"""Property tests for checkpoint serialisation.

Three invariants:

- :class:`PTRepo` snapshot/restore preserves every interned set *and* its
  id — a revived parallel worker's peer mirrors resolve recorded wire
  ids, so id stability is load-bearing, not cosmetic.
- :class:`ObjectVersioning` (the VSFS meld/version tables) round-trips
  through its snapshot exactly, including the ``[INTERNAL]`` version
  sharing the restore replays.
- A sealed file under arbitrary single-byte corruption or truncation
  either still reads back *exactly* the original document (the flip hit a
  byte the seal canonicalisation ignores — rare but possible) or raises a
  typed :class:`CheckpointError`; it never returns different data and
  never leaks an untyped exception.
"""

import os

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.versioning import ObjectVersioning
from repro.datastructs.ptrepo import PTRepo
from repro.errors import CheckpointError
from repro.frontend import compile_c
from repro.pipeline import AnalysisPipeline
from repro.store.atomic import read_sealed_json, write_sealed_json

RELAXED = settings(max_examples=50, deadline=None,
                   suppress_health_check=[HealthCheck.function_scoped_fixture])

masks_strategy = st.lists(st.integers(min_value=0, max_value=2 ** 200),
                          max_size=40)


class TestPTRepoRoundTrip:
    @given(masks_strategy)
    @settings(max_examples=200)
    def test_snapshot_preserves_sets_and_ids(self, masks):
        repo = PTRepo()
        ids = [repo.intern(mask) for mask in masks]
        restored = PTRepo.from_snapshot(repo.snapshot())
        for entry, mask in zip(ids, masks):
            assert restored.mask(entry) == mask
        # Interning the same sets again yields the same ids.
        for entry, mask in zip(ids, masks):
            assert restored.intern(mask) == entry


# A pool of small programs with stores, loads, branches and indirect
# calls: enough shape diversity for the versioning tables to differ.
PROGRAMS = [
    "int *g; int x; int main() { g = &x; return 0; }",
    """
    int *g; int x; int y;
    int main(int c) { if (c) { g = &x; } else { g = &y; } int *l = g; return 0; }
    """,
    """
    struct node { int v; struct node *f0; };
    struct node *g;
    struct node *cb1(struct node *a, struct node *b) { g = a; return b; }
    struct node *cb2(struct node *a, struct node *b) { g = b; return a; }
    fnptr h;
    int main(int c) {
        struct node *n = (struct node*)malloc(sizeof(struct node));
        if (c) { h = cb1; } else { h = cb2; }
        struct node *r = h(n, g);
        return 0;
    }
    """,
]

#: (object id, source version, destination version) triples, as
#: add_constraint takes them.
constraint_strategy = st.lists(
    st.tuples(st.integers(0, 5), st.integers(1, 8), st.integers(1, 8)),
    max_size=10)


class TestVersioningRoundTrip:
    @given(st.integers(0, len(PROGRAMS) - 1), constraint_strategy)
    @settings(max_examples=40, deadline=None)
    def test_meld_tables_round_trip(self, program_index, extra_constraints):
        pipeline = AnalysisPipeline(compile_c(PROGRAMS[program_index]))
        svfg = pipeline.svfg()
        versioning = ObjectVersioning(svfg).run()
        node_count = len(svfg.nodes)
        object_count = len(pipeline.module.objects)
        # Extra constraints model on-the-fly call edges discovered
        # mid-solve (the state a checkpoint must capture).
        for oid, src_ver, dst_ver in extra_constraints:
            versioning.add_constraint(oid % max(object_count, 1),
                                      src_ver, dst_ver)
        state = versioning.snapshot()
        restored = ObjectVersioning(svfg).restore(state)
        assert restored.snapshot() == state
        # The version tables answer identically for every (node, object).
        for node in range(node_count):
            for obj in range(object_count):
                assert (restored.consumed_version(node, obj)
                        == versioning.consumed_version(node, obj))
                assert (restored.yielded_version(node, obj)
                        == versioning.yielded_version(node, obj))


document_strategy = st.fixed_dictionaries({
    "meta": st.dictionaries(st.text(max_size=8),
                            st.integers(-100, 100), max_size=4),
    "payload": st.recursive(
        st.one_of(st.integers(-1000, 1000), st.text(max_size=10),
                  st.booleans(), st.none()),
        lambda leaf: st.lists(leaf, max_size=4),
        max_leaves=10),
})


class TestSealedCorruptionFuzz:
    @given(document_strategy, st.data())
    @settings(max_examples=150, deadline=None)
    def test_any_single_byte_flip_is_detected_or_harmless(self, document, data):
        import tempfile

        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "doc.json")
            write_sealed_json(path, "fuzz", 1,
                              document["meta"], document["payload"])
            with open(path, "rb") as handle:
                raw = bytearray(handle.read())
            offset = data.draw(st.integers(0, len(raw) - 1))
            flip = data.draw(st.integers(1, 255))
            raw[offset] ^= flip
            with open(path, "wb") as handle:
                handle.write(bytes(raw))
            try:
                meta, payload = read_sealed_json(path, "fuzz", 1)
            except CheckpointError:
                return  # detected: the only acceptable failure mode
            assert meta == document["meta"]
            assert payload == document["payload"]

    @given(document_strategy, st.data())
    @settings(max_examples=100, deadline=None)
    def test_any_truncation_is_detected(self, document, data):
        import tempfile

        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "doc.json")
            write_sealed_json(path, "fuzz", 1,
                              document["meta"], document["payload"])
            size = os.path.getsize(path)
            keep = data.draw(st.integers(0, size - 1))
            with open(path, "r+b") as handle:
                handle.truncate(keep)
            try:
                read_sealed_json(path, "fuzz", 1)
            except CheckpointError:
                return
            raise AssertionError("truncated sealed file was accepted")

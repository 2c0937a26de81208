"""Property tests for the self-healing I/O layer (DESIGN.md §12).

One invariant, two media: an on-disk artifact — solver checkpoint,
stage-cache entry — corrupted by a byte flip or truncation
at an *arbitrary* offset must never produce garbage downstream.

- A checkpoint load either returns the exact data or raises a **typed**
  quarantining error (:class:`CheckpointError`).
- A stage-cache probe self-heals: the entry is quarantined, the heal
  trail names the rejection's ``reason``, the stage rebuilds, and the
  caller gets the exact answer.

Never an untyped exception, never silently different data.
"""

import os
import shutil

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.engine import Engine, StageCache, StageContext
from repro.errors import CheckpointError
from repro.ir.fingerprint import FINGERPRINT_SCHEME
from repro.runtime.checkpoint import CHECKPOINT_SCHEMA, load_checkpoint
from repro.store.atomic import write_sealed_json

RELAXED = settings(max_examples=30, deadline=None,
                   suppress_health_check=[HealthCheck.function_scoped_fixture])

SOURCE = """
int *g; int x; int y;
int main() { g = &x; int *a; a = g; g = &y; return 0; }
"""


def _mutilate(path: str, offset: int, mode: str, bit: int) -> None:
    """Flip one bit at *offset* (mod size) or truncate there."""
    with open(path, "rb") as handle:
        data = bytearray(handle.read())
    if not data:
        return
    offset %= len(data)
    if mode == "truncate":
        data = data[:offset]
    else:
        data[offset] ^= 1 << bit
    with open(path, "wb") as handle:
        handle.write(bytes(data))


corruption = st.tuples(st.integers(min_value=0, max_value=10 ** 6),
                       st.sampled_from(["flip", "truncate"]),
                       st.integers(min_value=0, max_value=7))


class TestCheckpointCorruption:
    @pytest.fixture
    def checkpoint_file(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        write_sealed_json(path, "checkpoint", CHECKPOINT_SCHEMA,
                          {"ir_hash": "x" * 8, "analysis": "sfs",
                           "step": 12, "fp_scheme": FINGERPRINT_SCHEME},
                          {"worklist": [1, 2, 3], "pt": ["0x5"]})
        return path

    def test_undamaged_fixture_loads(self, checkpoint_file):
        """Without this, every corruption case below could take the typed
        branch and the "data must be exact" branch would never run."""
        meta, payload = load_checkpoint(checkpoint_file)
        assert meta["step"] == 12
        assert payload == {"worklist": [1, 2, 3], "pt": ["0x5"]}

    @RELAXED
    @given(corruption)
    def test_load_is_exact_or_typed(self, checkpoint_file, corruption):
        offset, mode, bit = corruption
        work = checkpoint_file + ".case"
        shutil.copyfile(checkpoint_file, work)
        _mutilate(work, offset, mode, bit)
        try:
            meta, payload = load_checkpoint(work)
        except CheckpointError as err:
            # Typed, and the damaged file was quarantined: the next
            # supervisor retry starts fresh instead of tripping again.
            assert err.reason in ("missing", "corrupt", "schema", "kind")
            assert not os.path.exists(work)
        else:
            # The flip hit a byte the seal ignores: data must be EXACT.
            assert meta["step"] == 12
            assert payload == {"worklist": [1, 2, 3], "pt": ["0x5"]}
        for leftover in [work] + [work + s for s in (".quarantined",)]:
            if os.path.exists(leftover):
                os.remove(leftover)


class TestStageCacheCorruption:
    @pytest.fixture
    def warm_cache_dir(self, tmp_path):
        cache_dir = str(tmp_path / "stages")
        cache = StageCache(cache_dir)
        ctx = StageContext(module=None, source=SOURCE, language="c",
                           cache=cache)
        engine = Engine(ctx)
        engine.ensure("versioning")
        baseline = engine.solve("vsfs").snapshot()
        return cache_dir, baseline

    def _entries(self, cache_dir):
        return sorted(os.path.join(cache_dir, name)
                      for name in os.listdir(cache_dir)
                      if not name.endswith(".quarantined"))

    @RELAXED
    @given(st.data())
    def test_default_mode_heals_to_the_exact_answer(self, warm_cache_dir,
                                                    data):
        cache_dir, baseline = warm_cache_dir
        entries = self._entries(cache_dir)
        victim = data.draw(st.sampled_from(entries))
        offset, mode, bit = data.draw(corruption)
        backup = victim + ".orig"
        shutil.copyfile(victim, backup)
        _mutilate(victim, offset, mode, bit)
        try:
            ctx = StageContext(module=None, source=SOURCE, language="c",
                               cache=StageCache(cache_dir))
            engine = Engine(ctx)
            # Whatever the corruption did — detected (quarantine +
            # recompute, heal recorded) or harmless — the answer is
            # bit-identical to the warm baseline.  Never garbage.
            assert engine.solve("vsfs").snapshot() == baseline
        finally:
            shutil.move(backup, victim)  # restore warmth for the next case
            for name in os.listdir(cache_dir):
                if name.endswith(".quarantined"):
                    os.remove(os.path.join(cache_dir, name))

    @RELAXED
    @given(st.data())
    def test_corruption_heals_with_reason(self, warm_cache_dir, data):
        cache_dir, baseline = warm_cache_dir
        entries = self._entries(cache_dir)
        victim = data.draw(st.sampled_from(entries))
        offset, mode, bit = data.draw(corruption)
        backup = victim + ".orig"
        shutil.copyfile(victim, backup)
        _mutilate(victim, offset, mode, bit)
        try:
            cache = StageCache(cache_dir)
            ctx = StageContext(module=None, source=SOURCE, language="c",
                               cache=cache)
            engine = Engine(ctx)
            snapshot = engine.solve("vsfs").snapshot()
            heals = [h for h in engine.trace.heals
                     if h.get("point") == "stage_cache_read"]
            if heals:
                # Detected: the heal names a typed reason and the
                # quarantined file, and the stage rebuilt.
                assert len(heals) == 1
                assert heals[0]["reason"] in ("corrupt", "kind", "schema",
                                              "config-mismatch")
                assert heals[0]["path"] in cache.quarantined
            else:
                # The damage hit a byte the seal ignores: nothing is
                # quarantined and the entry loaded as it was.
                assert not cache.quarantined
            assert snapshot == baseline
        finally:
            shutil.move(backup, victim)
            for name in os.listdir(cache_dir):
                if name.endswith(".quarantined"):
                    os.remove(os.path.join(cache_dir, name))

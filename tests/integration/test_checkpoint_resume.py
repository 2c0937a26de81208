"""Kill-at-step-N × resume: resumed runs must be bit-identical.

The solvers are monotone fixpoint computations, so a checkpoint taken at
any intermediate step captures a valid lattice point; continuing from it
in a *fresh* process (modelled here by a fresh compile of the same
source) must converge to exactly the same points-to solution as the
uninterrupted run — not merely an equivalent one.
"""

import json
import os

import pytest

from repro.errors import BudgetExceeded, CheckpointError
from repro.frontend import compile_c
from repro.pipeline import analyze
from repro.runtime import Budget, CheckpointConfig, load_checkpoint
from repro.store import ResultStore, ir_fingerprint
from repro.store.atomic import write_sealed_json

# Indirect calls (OTF edges), loads/stores through globals, and heap
# allocation keep every solver feature on the resume path.
PROGRAM = """
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
"""

MATRIX = [
    (analysis, kill_at)
    for analysis in ("sfs", "vsfs", "ander", "icfg-fs")
    for kill_at in (3, 11)
]


def _interrupt(tmp_path, analysis, kill_at, program=None, every_steps=2):
    """Budget-kill a run at *kill_at* steps; returns the checkpoint path."""
    config = CheckpointConfig(str(tmp_path), every_steps=every_steps)
    with pytest.raises(BudgetExceeded) as exc:
        analyze(program if program is not None else compile_c(PROGRAM),
                analysis=analysis, budget=Budget(max_steps=kill_at),
                fallback=False, checkpoint=config)
    path = exc.value.checkpoint_path
    assert path is not None and os.path.exists(path)
    report = exc.value.run_report
    assert report.checkpoint_saves >= 1
    assert report.checkpoint_path == path
    return config, path


class TestKillResumeMatrix:
    @pytest.mark.parametrize("analysis,kill_at", MATRIX,
                             ids=lambda p: str(p))
    def test_resume_is_bit_identical(self, tmp_path, analysis, kill_at):
        clean = analyze(compile_c(PROGRAM), analysis=analysis)
        config, __ = _interrupt(tmp_path, analysis, kill_at)
        resumed = analyze(compile_c(PROGRAM), analysis=analysis,
                          checkpoint=config, resume_from=True)
        assert resumed.report.resumed
        assert resumed.report.resumed_from_step is not None
        assert resumed.snapshot() == clean.snapshot()
        # The completed run discarded its own checkpoint.
        assert not any(name.startswith("ckpt-")
                       for name in os.listdir(tmp_path))

    def test_resume_via_explicit_path(self, tmp_path):
        clean = analyze(compile_c(PROGRAM), analysis="vsfs")
        __, path = _interrupt(tmp_path, "vsfs", 5)
        resumed = analyze(compile_c(PROGRAM), analysis="vsfs",
                          resume_from=path)
        assert resumed.report.resumed
        assert resumed.snapshot() == clean.snapshot()

    def test_resume_from_empty_directory_starts_fresh(self, tmp_path):
        config = CheckpointConfig(str(tmp_path))
        result = analyze(compile_c(PROGRAM), analysis="vsfs",
                         checkpoint=config, resume_from=True)
        assert not result.report.resumed
        clean = analyze(compile_c(PROGRAM), analysis="vsfs")
        assert result.snapshot() == clean.snapshot()

    def test_repeated_interrupts_chain(self, tmp_path):
        """Kill, resume-and-kill again, then finish: still bit-identical."""
        clean = analyze(compile_c(PROGRAM), analysis="vsfs")
        config, __ = _interrupt(tmp_path, "vsfs", 3)
        with pytest.raises(BudgetExceeded):
            analyze(compile_c(PROGRAM), analysis="vsfs", checkpoint=config,
                    resume_from=True, budget=Budget(max_steps=4),
                    fallback=False)
        resumed = analyze(compile_c(PROGRAM), analysis="vsfs",
                          checkpoint=config, resume_from=True)
        assert resumed.report.resumed
        assert resumed.snapshot() == clean.snapshot()


class TestRejection:
    def test_explicit_missing_path_raises(self):
        with pytest.raises(CheckpointError) as exc:
            analyze(compile_c(PROGRAM), analysis="vsfs",
                    resume_from="/nonexistent/ckpt.json")
        assert exc.value.reason == "missing"

    def test_edited_program_rejected(self, tmp_path):
        __, path = _interrupt(tmp_path, "vsfs", 5)
        edited = PROGRAM.replace("g = a", "g = b")
        with pytest.raises(CheckpointError) as exc:
            analyze(compile_c(edited), analysis="vsfs", resume_from=path)
        assert exc.value.reason == "ir-mismatch"

    def test_wrong_ablation_rejected(self, tmp_path):
        """A checkpoint of the deleted storage fork (schema 4, which wrote
        ``ptrepo`` in its manifest and PTRepo ids or raw masks where
        schema 5 indexes one ``masks`` list) is refused typed and
        quarantined; directory mode then starts fresh."""
        config, path = _interrupt(tmp_path, "sfs", 5)
        _reseal(path, "checkpoint", 4, ptrepo=False)
        with pytest.raises(CheckpointError) as exc:
            analyze(compile_c(PROGRAM), analysis="sfs", resume_from=path)
        assert exc.value.reason == "schema"
        assert not os.path.exists(path)
        assert os.path.exists(exc.value.path)  # the quarantined copy
        fresh = analyze(compile_c(PROGRAM), analysis="sfs",
                        checkpoint=config, resume_from=True)
        assert not fresh.report.resumed

    def test_wrong_ladder_rejected(self, tmp_path):
        __, path = _interrupt(tmp_path, "icfg-fs", 5)
        with pytest.raises(CheckpointError) as exc:
            analyze(compile_c(PROGRAM), analysis="sfs", resume_from=path)
        assert exc.value.reason == "config-mismatch"

    def test_corrupt_checkpoint_raises_typed_error(self, tmp_path):
        __, path = _interrupt(tmp_path, "vsfs", 5)
        with open(path, "r+b") as handle:
            handle.seek(200)
            handle.write(b"\x00\x00\x00")
        with pytest.raises(CheckpointError) as exc:
            analyze(compile_c(PROGRAM), analysis="vsfs", resume_from=path)
        assert exc.value.reason == "corrupt"
        # Quarantined: a directory-mode retry now starts fresh.
        assert not os.path.exists(path)

    def test_truncated_checkpoint_raises_typed_error(self, tmp_path):
        config, path = _interrupt(tmp_path, "vsfs", 5)
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size // 2)
        with pytest.raises(CheckpointError) as exc:
            analyze(compile_c(PROGRAM), analysis="vsfs",
                    checkpoint=config, resume_from=True)
        assert exc.value.reason == "corrupt"

    def test_corruption_never_degrades(self, tmp_path):
        """A bad checkpoint must surface even with fallback enabled."""
        __, path = _interrupt(tmp_path, "vsfs", 5)
        with open(path, "w") as handle:
            handle.write("garbage")
        with pytest.raises(CheckpointError):
            analyze(compile_c(PROGRAM), analysis="vsfs", resume_from=path,
                    fallback=True)


class TestCheckpointManifest:
    def test_manifest_records_run_identity(self, tmp_path):
        __, path = _interrupt(tmp_path, "vsfs", 5)
        meta, payload = load_checkpoint(path)
        assert meta["analysis"] == "vsfs"
        assert "delta" not in meta and "ptrepo" not in meta
        assert meta["reason"] == "budget"
        assert isinstance(meta["step"], int) and meta["step"] >= 0
        assert isinstance(payload, dict) and "worklist" in payload

    def test_budget_save_beats_cadence(self, tmp_path):
        """Even with a huge cadence, the budget trip itself checkpoints."""
        config = CheckpointConfig(str(tmp_path), every_steps=10 ** 9)
        with pytest.raises(BudgetExceeded) as exc:
            analyze(compile_c(PROGRAM), analysis="vsfs",
                    budget=Budget(max_steps=5), fallback=False,
                    checkpoint=config)
        assert exc.value.checkpoint_path is not None
        meta, __ = load_checkpoint(exc.value.checkpoint_path)
        assert meta["reason"] == "budget"


def _reseal(path, kind, schema, payload_edit=None, **meta_edit):
    """Rewrite a sealed document as *schema*, with *meta_edit* merged into
    its manifest and *payload_edit* applied to its payload."""
    with open(path) as handle:
        document = json.load(handle)
    payload = document["payload"]
    if payload_edit is not None:
        payload_edit(payload)
    write_sealed_json(path, kind, schema, dict(document["meta"], **meta_edit),
                      payload)


def _reseal_as_schema_two(path, kind, payload_edit):
    """Rewrite a sealed document as the pre-eager-kernel layout: schema
    2, a ``delta`` flag in the manifest, *payload_edit* applied."""
    _reseal(path, kind, 2, payload_edit, delta=True)


class TestSchemaTwoRefused:
    """Artifacts written by the delta kernel's layout are refused typed
    and quarantined, never half-restored."""

    def test_schema_two_checkpoint_with_delta_worklist(self, tmp_path):
        config, path = _interrupt(tmp_path, "sfs", 5)

        def as_delta_worklist(payload):
            items = payload["worklist"]["items"]
            payload["worklist"] = {
                "items": items, "full": sorted(items[1:]),
                "dirty": {str(items[0]): {"0": "1"}} if items else {}}

        _reseal_as_schema_two(path, "checkpoint", as_delta_worklist)
        with pytest.raises(CheckpointError) as exc:
            analyze(compile_c(PROGRAM), analysis="sfs", resume_from=path)
        assert exc.value.reason == "schema"
        assert not os.path.exists(path)
        assert os.path.exists(exc.value.path)  # the quarantined copy
        # Directory mode now finds nothing and solves from scratch.
        fresh = analyze(compile_c(PROGRAM), analysis="sfs",
                        checkpoint=config, resume_from=True)
        assert not fresh.report.resumed
        assert fresh.snapshot() == analyze(compile_c(PROGRAM),
                                           analysis="sfs").snapshot()

    def test_schema_two_result_store_entry(self, tmp_path):
        module = compile_c(PROGRAM)
        result = analyze(module, analysis="vsfs")
        store = ResultStore(str(tmp_path))
        path = store.put(module, "vsfs", result)
        _reseal_as_schema_two(path, "result", lambda payload: None)
        with pytest.raises(CheckpointError) as exc:
            store.get(compile_c(PROGRAM), "vsfs",
                      ir_hash=ir_fingerprint(module))
        assert exc.value.reason == "schema"
        assert not os.path.exists(path)
        assert store.quarantined == [exc.value.path]
        assert os.path.exists(exc.value.path)
        # The quarantined entry no longer shadows the key.
        assert store.get(module, "vsfs") is None


class TestSchemaThreeRefused:
    """A VSFS checkpoint sealed before the version-cycle collapse (schema
    3) stores meld-only version ids; it is refused typed and quarantined,
    never restored into the collapsed version table."""

    def test_schema_three_vsfs_checkpoint(self, tmp_path):
        config, path = _interrupt(tmp_path, "vsfs", 5)
        _reseal(path, "checkpoint", 3)
        with pytest.raises(CheckpointError) as exc:
            analyze(compile_c(PROGRAM), analysis="vsfs", resume_from=path)
        assert exc.value.reason == "schema"
        assert not os.path.exists(path)
        assert os.path.exists(exc.value.path)  # the quarantined copy
        fresh = analyze(compile_c(PROGRAM), analysis="vsfs",
                        checkpoint=config, resume_from=True)
        assert not fresh.report.resumed
        assert fresh.snapshot() == analyze(compile_c(PROGRAM),
                                           analysis="vsfs").snapshot()


class TestPTRepoLayoutsRefused:
    """A result entry of the PTRepo storage (store schema 3, whose stats
    hold the union-cache fields) is refused typed and quarantined; for
    its checkpoints see ``TestRejection.test_wrong_ablation_rejected``."""

    def test_schema_three_result_store_entry(self, tmp_path):
        module = compile_c(PROGRAM)
        store = ResultStore(str(tmp_path))
        path = store.put(module, "sfs", analyze(module, analysis="sfs"))

        def with_union_cache_stats(payload):
            payload["stats"].update(union_cache_hits=0, ptrepo_enabled=True)

        _reseal(path, "result", 3, with_union_cache_stats, ptrepo=True)
        with pytest.raises(CheckpointError) as exc:
            store.get(module, "sfs")
        assert exc.value.reason == "schema"
        assert store.quarantined == [exc.value.path]
        assert store.get(module, "sfs") is None


class TestResumedSolveCountsSameWork:
    """A resumed staged solve continues the uninterrupted one exactly:
    the restored versioning keeps its constraints in first-seen order, so
    the work counters match too, not only the answer."""

    @pytest.mark.parametrize("program,analysis", [
        ("du", "sfs"), ("du", "vsfs"), ("tmux", "sfs"), ("tmux", "vsfs"),
    ])
    def test_resumed_counters_match_uninterrupted(self, tmp_path, program,
                                                  analysis):
        from repro.bench.workloads import suite_program

        module = suite_program(program)
        clean = analyze(module, analysis=analysis)
        config, __ = _interrupt(tmp_path, analysis, 500, program=module,
                                every_steps=None)
        resumed = analyze(module, analysis=analysis, checkpoint=config,
                          resume_from=True)
        assert resumed.report.resumed
        assert resumed.snapshot() == clean.snapshot()
        counters = ("nodes_processed", "propagations", "unions")
        assert [getattr(resumed.stats, name) for name in counters] \
            == [getattr(clean.stats, name) for name in counters]

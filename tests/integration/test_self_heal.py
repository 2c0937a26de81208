"""Self-healing resilience, end to end (DESIGN.md §12).

The degraded-not-dead contract: io-domain faults and on-disk corruption
are absorbed — quarantine + recompute, retry + skip — with the incident
recorded as ``self_heal`` events on the run report; parallel-domain
faults are absorbed by the watchdog (kill-and-revive, then a collapse
onto the bit-identical serial rung).  The answer is never wrong and the
process never sees an untyped traceback.
"""

import glob
import json
import os

import pytest

from repro.cli import main
from repro.engine import StageCache
from repro.errors import WorkerCrash
from repro.frontend import compile_c
from repro.parallel.driver import solve_parallel
from repro.incremental import IncrementalStore
from repro.pipeline import AnalysisPipeline, solve_stored
from repro.runtime.checkpoint import CheckpointConfig
from repro.runtime.degrade import solve_with_ladder
from repro.runtime.faults import FaultPlan
from repro.runtime.resilience import IO_RETRY
from repro.store import ResultStore

SOURCE = """
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


@pytest.fixture
def c_file(tmp_path):
    path = tmp_path / "prog.c"
    path.write_text(SOURCE)
    return str(path)


def _corrupt(path, payload=b"garbage {"):
    with open(path, "wb") as handle:
        handle.write(payload)


class TestWarmRunHealsCorruption:
    """The acceptance scenario: corrupt stage-cache entry AND corrupt
    result entry — the warm run still answers."""

    def _heal_points(self, report_path):
        with open(report_path) as handle:
            doc = json.load(handle)
        heals = (doc.get("report") or {}).get("self_heal") or []
        heals += doc.get("self_heal") or []
        return {h.get("point") for h in heals}, doc

    def test_cli_warm_run_self_heals(self, c_file, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        report_path = str(tmp_path / "report.json")
        assert main(["-vfspta", c_file, "--store", store_dir]) == 0
        capsys.readouterr()

        # Vandalise everything the warm run depends on.
        stage_entries = glob.glob(os.path.join(store_dir, "stages", "*"))
        result_entries = glob.glob(os.path.join(store_dir, "result-*.json"))
        assert stage_entries and result_entries
        _corrupt(stage_entries[0])
        _corrupt(result_entries[0])

        code = main(["-vfspta", c_file, "--store", store_dir,
                     "--report-json", report_path])
        err = capsys.readouterr().err
        assert code == 0
        assert "quarantined" in err and "recomputing" in err
        points, doc = self._heal_points(report_path)
        assert "stage_cache_read" in points
        assert "result_store_get" in points
        assert doc["report"]["precision_lost"] is False

    def test_healed_answer_matches_clean_answer(self, tmp_path):
        store = str(tmp_path / "store")
        cache = StageCache(os.path.join(store, "stages"))
        clean = AnalysisPipeline.from_source(SOURCE, cache=cache).vsfs()
        for entry in glob.glob(os.path.join(store, "stages", "*")):
            _corrupt(entry)
        healed_pipeline = AnalysisPipeline.from_source(
            SOURCE, cache=StageCache(os.path.join(store, "stages")))
        healed = healed_pipeline.vsfs()
        assert healed._pt == clean._pt
        assert len(healed_pipeline.trace.heals) >= 1


class TestCheckpointSkips:
    def test_unwritable_checkpoints_skip_not_fail(self, tmp_path):
        module = compile_c(SOURCE)
        plan = FaultPlan(point="checkpoint_write", probability=1.0,
                         once=False)
        pipeline = AnalysisPipeline(module)
        config = CheckpointConfig(str(tmp_path / "ck"), every_steps=1)
        result = solve_with_ladder(pipeline, analysis="sfs", faults=plan,
                                   checkpoint=config)
        clean = AnalysisPipeline(compile_c(SOURCE)).sfs()
        assert result._pt == clean._pt
        report = result.report
        assert not report.degraded
        assert report.checkpoint_skips >= 1 and report.checkpoint_saves == 0
        assert any(h.get("point") == "checkpoint_write"
                   and h.get("action") == "skip-write"
                   for h in report.self_heal)


class TestWatchdogCollapse:
    def test_budget_spend_collapses_bit_identical(self):
        module = compile_c(SOURCE)
        serial = AnalysisPipeline(module).sfs()
        plan = FaultPlan(point="frontier_send", probability=1.0, once=False)
        pipeline = AnalysisPipeline(module)
        result = solve_with_ladder(pipeline, analysis="sfs-par", jobs=2,
                                   faults=plan, parallel_mode="inline")
        assert result._pt == serial._pt  # collapse costs nothing
        report = result.report
        assert report.degraded_from == "sfs-par"
        assert report.precision_level == "sfs"
        assert report.precision_lost is False
        assert report.attempts[0].error_type == "WorkerCrash"

    def test_worker_crash_is_typed_and_contextual(self):
        module = compile_c(SOURCE)
        pipeline = AnalysisPipeline(module)
        plan = FaultPlan(point="frontier_recv", probability=1.0, once=False)
        with pytest.raises(WorkerCrash) as info:
            solve_parallel(pipeline.svfg(), "sfs", jobs=2,
                           faults=plan, mode="inline",
                           max_worker_failures=1)
        err = info.value
        assert err.worker >= 0 and err.failures == 1
        assert err.incident == "frontier-recv"

    def test_single_fault_revives_and_stays_parallel(self):
        module = compile_c(SOURCE)
        serial = AnalysisPipeline(module).sfs()
        plan = FaultPlan(point="frontier_send")  # once=True: one incident
        result = AnalysisPipeline(module).sfs_par(jobs=2, faults=plan,
                                                  mode="inline")
        assert result._pt == serial._pt
        assert result.parallel.revivals >= 1
        assert result.parallel.worker_failures >= 1
        assert plan.fired  # the incident actually happened


class TestResultStorePut:
    def test_failed_put_is_skippable(self, tmp_path):
        clean = AnalysisPipeline(compile_c(SOURCE)).sfs()
        store = ResultStore(str(tmp_path / "results"))
        plan = FaultPlan(point="result_store_put", probability=1.0,
                         once=False)
        result, hit = solve_stored(AnalysisPipeline(compile_c(SOURCE)),
                                   "sfs", store=store, faults=plan)
        # Retry, then skip: a lost cache entry never loses the answer.
        assert not hit and result._pt == clean._pt
        assert not glob.glob(os.path.join(store.directory, "result-*"))
        puts = [h for h in result.report.self_heal
                if h.get("point") == "result_store_put"]
        assert [h["action"] for h in puts] == \
            ["retry"] * IO_RETRY.retries + ["skip-write"]
        assert all(h["error"] == "InjectedFault" for h in puts)
        # A once=True plan heals through on the second try.
        retry_plan = FaultPlan(point="result_store_put")
        result, __ = solve_stored(AnalysisPipeline(compile_c(SOURCE)),
                                  "sfs", store=store, faults=retry_plan)
        assert retry_plan.fired
        assert [h["action"] for h in result.report.self_heal] == ["retry"]
        assert os.path.exists(store.last_path)


class TestStoredSolveHeals:
    def test_rejected_entry_and_slot_heal_with_reason(self, tmp_path):
        def stored():
            return solve_stored(
                AnalysisPipeline(compile_c(SOURCE)), "vsfs",
                store=ResultStore(str(tmp_path / "results")),
                incremental=IncrementalStore(str(tmp_path / "incremental")))

        cold, hit = stored()
        assert not hit and not cold.report.self_heal
        for entry in glob.glob(str(tmp_path / "*" / "*.json")):
            _corrupt(entry)
        healed, hit = stored()
        assert not hit and healed._pt == cold._pt
        heals = {h["point"]: h for h in healed.report.self_heal}
        for point in ("result_store_get", "incremental_load"):
            assert heals[point]["action"] == "recompute"
            assert heals[point]["reason"] == "corrupt"
            assert heals[point]["path"].endswith(".quarantined")
        # The healed run stored its answer again: the next run hits.
        again, hit = stored()
        assert hit and again._pt == cold._pt


class TestChaosHarness:
    def test_mini_soak_passes(self, capsys):
        from repro.chaos import chaos_main

        assert chaos_main(["--seeds", "2", "--analyses", "sfs",
                           "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert "no garbage outcomes" in out

    def test_schedule_listing(self, capsys):
        from repro.chaos import chaos_main

        assert chaos_main(["--list", "--seeds", "3"]) == 0
        out = capsys.readouterr().out
        assert "chaos schedule" in out and "pre_meld" in out

    def test_schedule_is_deterministic_and_covering(self):
        from repro.chaos import build_daemon_schedule, build_schedule
        from repro.runtime.faults import FAULT_DOMAINS, FAULT_POINTS

        runs = build_schedule(["sfs", "vsfs"], [1, 2], 8, 0)
        again = build_schedule(["sfs", "vsfs"], [1, 2], 8, 0)
        assert [(r.point, r.trigger, r.seed) for r in runs] == \
            [(r.point, r.trigger, r.seed) for r in again]
        # Only SFS shards: VSFS is soaked serially, once.
        assert sorted({r.config for r in runs}) == \
            ["sfs/j1", "sfs/j2", "vsfs/j1"]
        # The batch soak owns every non-service point; the daemon soak
        # (--daemon) owns the service domain — together, the whole table.
        targeted = {r.point for r in runs}
        service = set(FAULT_DOMAINS["service"])
        assert targeted == set(FAULT_POINTS) - service
        daemon_runs = build_daemon_schedule(["sfs", "vsfs"], 8, 0)
        assert {r.point for r in daemon_runs} == service

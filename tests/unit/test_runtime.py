"""Unit tests for the resource-governance runtime (repro.runtime).

Budget/BudgetMeter enforcement semantics, deterministic fault plans,
RunReport bookkeeping, and the run_ladder fallback contract — all without
touching the solvers (integration coverage lives in
tests/integration/test_fault_injection.py).
"""

import time
import tracemalloc

import pytest

from repro.errors import AnalysisError, BudgetExceeded, InjectedFault, ReproError
from repro.runtime import Budget, FaultPlan, RunReport, run_ladder
from repro.runtime.budget import CHECK_INTERVAL, BudgetMeter
from repro.runtime.faults import FAULT_POINTS


class TestBudget:
    def test_unlimited_by_default(self):
        assert Budget().is_unlimited()
        assert not Budget(max_steps=5).is_unlimited()

    def test_describe(self):
        assert Budget().describe() == "unlimited"
        text = Budget(wall_seconds=1.5, max_steps=10,
                      max_memory_bytes=2 * 1024 * 1024).describe()
        assert "wall 1.5s" in text and "steps 10" in text and "2 MiB" in text

    def test_meter_is_fresh_each_time(self):
        budget = Budget(max_steps=1)
        assert budget.meter() is not budget.meter()


class TestBudgetMeterSteps:
    def test_step_limit_is_exact(self):
        meter = Budget(max_steps=3).meter().start()
        meter.tick()
        meter.tick()
        meter.tick()  # exactly at the limit: still fine
        with pytest.raises(BudgetExceeded) as info:
            meter.tick()
        assert info.value.resource == "steps"
        assert info.value.limit == 3 and info.value.used == 4

    def test_zero_step_budget_trips_on_first_tick(self):
        meter = Budget(max_steps=0).meter().start()
        with pytest.raises(BudgetExceeded):
            meter.tick()

    def test_unlimited_never_raises(self):
        meter = Budget().meter().start()
        for __ in range(CHECK_INTERVAL * 3):
            meter.tick()
        assert meter.steps == CHECK_INTERVAL * 3


class TestBudgetMeterWallClock:
    def test_zero_wall_budget_trips_on_check(self):
        meter = Budget(wall_seconds=0).meter().start()
        with pytest.raises(BudgetExceeded) as info:
            meter.check()
        assert info.value.resource == "wall"

    def test_zero_wall_budget_trips_on_first_tick(self):
        # tick probes wall/memory on the first tick, not only every
        # CHECK_INTERVAL-th — a zero budget must not get a free interval.
        meter = Budget(wall_seconds=0).meter().start()
        with pytest.raises(BudgetExceeded):
            meter.tick()

    def test_check_implies_start(self):
        meter = Budget(wall_seconds=1000).meter()
        assert not meter.started()
        meter.check()
        assert meter.started()


class TestBudgetMeterMemory:
    def test_memory_budget_traces_and_trips(self):
        was_tracing = tracemalloc.is_tracing()
        meter = Budget(max_memory_bytes=1).meter().start()
        try:
            ballast = [bytearray(4096) for __ in range(4)]  # noqa: F841
            with pytest.raises(BudgetExceeded) as info:
                meter.check()
            assert info.value.resource == "memory"
            assert info.value.used > 1
        finally:
            meter.stop()
        assert tracemalloc.is_tracing() == was_tracing  # stop() releases tracing

    def test_peak_bytes_none_when_not_tracing(self):
        if tracemalloc.is_tracing():
            pytest.skip("ambient tracemalloc active")
        meter = Budget(max_steps=5).meter().start()  # no memory budget
        assert meter.peak_bytes() is None
        meter.stop()


class TestFaultPlan:
    def test_rejects_unknown_point(self):
        with pytest.raises(AnalysisError):
            FaultPlan(point="not-a-point")

    def test_rejects_zero_hit(self):
        with pytest.raises(AnalysisError):
            FaultPlan(at_hit=0)

    @pytest.mark.parametrize("point", FAULT_POINTS)
    def test_fires_on_nth_hit_of_matching_point(self, point):
        plan = FaultPlan(point=point, at_hit=2)
        plan.fire(point, stage="sfs")  # hit 1: no fire
        with pytest.raises(InjectedFault) as info:
            plan.fire(point, stage="sfs")
        assert info.value.point == point
        assert info.value.stage == "sfs"
        assert info.value.hit == 2
        assert plan.fired == [(point, "sfs", 2)]

    def test_ignores_other_points(self):
        plan = FaultPlan(point="otf_edge")
        for __ in range(5):
            plan.fire("propagate", stage="vsfs")
        assert plan.fired == []
        assert plan.hits["propagate"] == 5

    def test_once_disarms_after_firing(self):
        plan = FaultPlan(point="propagate", at_hit=1)
        with pytest.raises(InjectedFault):
            plan.fire("propagate", stage="vsfs")
        plan.fire("propagate", stage="sfs")  # disarmed: the retry completes
        assert len(plan.fired) == 1

    def test_wildcard_matches_first_point_reached(self):
        plan = FaultPlan(point="*", at_hit=1)
        with pytest.raises(InjectedFault) as info:
            plan.fire("pre_meld", stage="vsfs")
        assert info.value.point == "pre_meld"

    def test_probability_stream_is_deterministic(self):
        def firing_pattern(seed):
            plan = FaultPlan(point="propagate", probability=0.3, seed=seed,
                             once=False)
            pattern = []
            for __ in range(64):
                try:
                    plan.fire("propagate")
                    pattern.append(False)
                except InjectedFault:
                    pattern.append(True)
            return pattern

        assert firing_pattern(seed=7) == firing_pattern(seed=7)
        assert any(firing_pattern(seed=7))

    def test_probability_zero_never_fires(self):
        plan = FaultPlan(probability=0.0)
        for point in FAULT_POINTS:
            plan.fire(point)
        assert plan.fired == []


class TestRunReport:
    def test_completed_run(self):
        report = RunReport(requested="vsfs")
        report.record_attempt("vsfs")
        report.finish(precision_level="vsfs")
        assert not report.degraded
        assert report.stage_reached == "vsfs"
        assert report.summary() == "vsfs completed"
        assert report.exception_chain() == []

    def test_degraded_run(self):
        report = RunReport(requested="vsfs", budget=Budget(max_steps=1))
        report.record_attempt("vsfs", error=BudgetExceeded("steps", resource="steps"))
        report.record_attempt("andersen")
        report.finish(precision_level="andersen")
        assert report.degraded and report.degraded_from == "vsfs"
        assert "degraded to andersen" in report.summary()
        assert "budget-exceeded" in report.summary()
        assert len(report.exception_chain()) == 1

    def test_to_dict_is_json_ready(self):
        import json
        report = RunReport(requested="sfs", budget=Budget(wall_seconds=2))
        report.record_attempt("sfs", error=InjectedFault(point="propagate"))
        report.record_attempt("andersen")
        report.finish(precision_level="andersen")
        record = json.loads(json.dumps(report.to_dict()))
        assert record["requested"] == "sfs"
        assert record["degraded"] is True
        assert record["budget"]["wall_seconds"] == 2
        assert [a["outcome"] for a in record["attempts"]] == [
            "fault-injected", "completed"]

    def test_render_mentions_budget_and_attempts(self):
        report = RunReport(requested="vsfs", budget=Budget(max_steps=9))
        report.record_attempt("vsfs")
        report.finish(precision_level="vsfs")
        text = report.render()
        assert "run report" in text and "steps 9" in text
        assert "1. vsfs: completed" in text


class TestRunLadder:
    def test_first_rung_success(self):
        result, report = run_ladder([("vsfs", lambda meter: "precise")])
        assert result == "precise"
        assert report.precision_level == "vsfs" and not report.degraded

    def test_falls_through_to_floor(self):
        def failing(meter):
            raise InjectedFault(point="propagate", stage="vsfs", hit=1)

        result, report = run_ladder([
            ("vsfs", failing),
            ("andersen", lambda meter: "floor"),
        ])
        assert result == "floor"
        assert report.degraded and report.degraded_from == "vsfs"
        assert report.attempts[0].outcome == "fault-injected"
        assert report.attempts[0].stage == "vsfs"

    def test_no_fallback_reraises_with_report(self):
        def failing(meter):
            raise BudgetExceeded("boom", resource="steps")

        with pytest.raises(BudgetExceeded) as info:
            run_ladder([("vsfs", failing), ("andersen", lambda meter: "x")],
                       fallback=False)
        assert info.value.run_report is not None
        assert info.value.run_report.attempts[0].outcome == "budget-exceeded"

    def test_floor_failure_reraises(self):
        def failing(meter):
            raise ReproError("even the floor broke")

        with pytest.raises(ReproError) as info:
            run_ladder([("andersen", failing)])
        assert info.value.run_report is not None

    def test_floor_runs_ungoverned(self):
        seen = {}

        def floor(meter):
            seen["meter"] = meter
            return "answer"

        result, report = run_ladder(
            [("vsfs", lambda meter: (_ for _ in ()).throw(
                BudgetExceeded("x", resource="wall"))),
             ("andersen", floor)],
            budget=Budget(wall_seconds=0),
        )
        assert result == "answer"
        assert seen["meter"] is None  # the guaranteed floor takes no meter

    def test_shared_meter_spans_rungs(self):
        meters = []

        def rung(meter):
            meters.append(meter)
            meter.tick()
            raise BudgetExceeded("spent", resource="steps")

        result, report = run_ladder(
            [("vsfs", rung), ("sfs", rung), ("andersen", lambda meter: "floor")],
            budget=Budget(max_steps=100),
        )
        assert result == "floor"
        assert meters[0] is meters[1]  # one meter, whole-run budget
        assert report.steps_used == 2

    def test_ungoverned_ladder_reports_wall_and_steps(self):
        from types import SimpleNamespace

        def solved(meter):
            assert meter is None  # no budget: no meter, no ticks
            time.sleep(0.01)
            return SimpleNamespace(stats=SimpleNamespace(
                nodes_processed=40, resumed_steps=10))

        def failing(meter):
            raise ReproError("rung broke")

        result, report = run_ladder([("vsfs", failing), ("sfs", solved)])
        assert report.precision_level == "sfs"
        assert report.steps_used == 30  # own steps, not restored ones
        assert report.wall_seconds_used >= 0.01
        first, second = report.attempts
        assert (first.steps, second.steps) == (0, 30)
        assert 0.0 < first.wall_seconds <= second.wall_seconds
        assert second.wall_seconds == report.wall_seconds_used

    def test_ungoverned_solve_reports_solver_steps(self):
        from repro.pipeline import AnalysisPipeline
        from repro.runtime.degrade import solve_with_ladder

        pipeline = AnalysisPipeline.from_source(
            "int *g; int x; int main() { g = &x; int *p = g; return 0; }")
        result = solve_with_ladder(pipeline, analysis="vsfs")
        report = result.report.to_dict()
        assert report["steps_used"] == result.stats.nodes_processed > 0
        assert report["wall_seconds_used"] > 0.0
        assert report["attempts"][0]["steps"] == report["steps_used"]

    def test_empty_ladder_is_an_error(self):
        with pytest.raises(AnalysisError):
            run_ladder([])

    def test_memory_error_degrades(self):
        def oom(meter):
            raise MemoryError

        result, report = run_ladder([("vsfs", oom),
                                     ("andersen", lambda meter: "floor")])
        assert result == "floor"
        assert report.attempts[0].outcome == "error"
        assert report.attempts[0].error_type == "MemoryError"

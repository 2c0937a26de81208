"""Fault injection and graceful degradation, end to end.

Proves the robustness contract of repro.runtime over the full matrix of
trigger point × solver:

- with ``fallback=False`` every injected **solver-domain** fault surfaces
  as a typed :class:`~repro.errors.InjectedFault` carrying stage context
  (never an untyped exception, never a wrong answer) — the io/parallel
  domains added by the resilience layer are *absorbed* instead of
  surfaced, and are covered by the self-heal and chaos tests;
- with the degradation ladder the same fault costs precision, not the
  answer: the result is a *superset* of the precise points-to sets
  (sound may-analysis), tagged with ``precision_level``/``degraded_from``;
- a zero budget still produces an Andersen-backed answer;
- unbudgeted, fault-free governed runs are bit-identical to the
  ungoverned solvers.
"""

import pytest

from repro.errors import BudgetExceeded, InjectedFault
from repro.frontend import compile_c
from repro.pipeline import AnalysisPipeline, analyze
from repro.runtime import Budget, FaultPlan
from repro.runtime.faults import FAULT_DOMAINS

# Indirect calls (OTF edges), loads/stores through globals, and heap
# allocation: every trigger point is reachable on this program.
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

SOLVERS = ("sfs", "vsfs")

MATRIX = [
    (point, solver)
    for point in FAULT_DOMAINS["solver"]
    for solver in SOLVERS
]


def _matrix_id(param):
    return str(param)


def _precise_masks(solver):
    result = analyze(compile_c(PROGRAM), analysis=solver)
    assert result.precision_level == solver
    return list(result._pt)


@pytest.mark.parametrize("point,solver", MATRIX, ids=_matrix_id)
class TestFaultMatrix:
    def test_fault_surfaces_typed_without_fallback(self, point, solver):
        plan = FaultPlan(point=point)
        with pytest.raises(InjectedFault) as info:
            analyze(compile_c(PROGRAM), analysis=solver, fallback=False,
                    faults=plan)
        err = info.value
        assert err.point == point
        assert err.stage == solver  # stage context names the solver it hit
        assert err.hit >= 1
        assert err.run_report is not None
        assert err.run_report.attempts[0].outcome == "fault-injected"
        assert plan.fired and plan.fired[0][0] == point

    def test_fault_degrades_to_sound_superset(self, point, solver):
        plan = FaultPlan(point=point)  # once=True: the retry completes
        result = analyze(compile_c(PROGRAM), analysis=solver, faults=plan)
        precise = _precise_masks(solver)
        assert result.degraded_from == solver
        assert result.report.degraded
        ladder_rest = {"vsfs": ("sfs", "andersen"), "sfs": ("andersen",)}
        assert result.precision_level in ladder_rest[solver]
        assert "fault-injected" in [
            a.outcome for a in result.report.attempts]
        # Soundness: degrading may only ADD may-point-to facts.
        degraded = list(result._pt)
        assert len(degraded) == len(precise)
        for precise_mask, degraded_mask in zip(precise, degraded):
            assert precise_mask & ~degraded_mask == 0


class TestDegradationLadder:
    @pytest.mark.parametrize("budget", [
        Budget(wall_seconds=0), Budget(max_steps=0), Budget(max_memory_bytes=0),
    ], ids=["wall", "steps", "memory"])
    def test_zero_budget_still_answers(self, budget):
        result = analyze(compile_c(PROGRAM), budget=budget)
        assert result.precision_level == "andersen"
        assert result.degraded_from == "vsfs"
        report = result.report
        assert report.degraded and report.stage_reached == "andersen"
        assert report.attempts[-1].outcome == "completed"
        # The fallback result still answers the query API soundly.
        precise = _precise_masks("vsfs")
        for precise_mask, fallback_mask in zip(precise, result._pt):
            assert precise_mask & ~fallback_mask == 0

    def test_zero_budget_without_fallback_raises(self):
        with pytest.raises(BudgetExceeded) as info:
            analyze(compile_c(PROGRAM), budget=Budget(wall_seconds=0),
                    fallback=False)
        assert info.value.resource == "wall"
        assert info.value.run_report is not None

    def test_step_budget_interrupt_attaches_partial_state(self):
        with pytest.raises(BudgetExceeded) as info:
            analyze(compile_c(PROGRAM), budget=Budget(max_steps=3),
                    fallback=False)
        err = info.value
        assert err.resource == "steps"
        assert err.stage == "vsfs"
        assert err.stats is not None
        partial = err.partial_result
        assert partial is not None and partial.complete is False

    @pytest.mark.parametrize("point", ["pre_meld", "propagate"])
    def test_vsfs_fault_falls_to_sfs_not_straight_to_floor(self, point):
        plan = FaultPlan(point=point)
        result = analyze(compile_c(PROGRAM), analysis="vsfs", faults=plan)
        # once=True disarms after the vsfs firing, so the sfs rung — which
        # computes the *identical* points-to sets — completes; a fault in
        # the middle of VSFS's propagation leaves nothing the rung reuses.
        assert result.precision_level == "sfs"
        assert result._pt == _precise_masks("vsfs")

    def test_repeating_fault_falls_to_andersen_floor(self):
        plan = FaultPlan(point="pre_meld", probability=1.0, once=False)
        result = analyze(compile_c(PROGRAM), analysis="vsfs", faults=plan)
        # The fault fires on every rung it instruments; only the fault-free
        # Andersen floor can answer.
        assert result.precision_level == "andersen"
        assert [a.outcome for a in result.report.attempts] == [
            "fault-injected", "fault-injected", "completed"]


class TestGovernedRunsAreBitIdentical:
    @pytest.mark.parametrize("solver", SOLVERS)
    def test_unbudgeted_faultfree_matches_ungoverned(self, solver):
        governed = analyze(compile_c(PROGRAM), analysis=solver)
        pipeline = AnalysisPipeline(compile_c(PROGRAM))
        direct = (pipeline.sfs if solver == "sfs" else pipeline.vsfs)()
        assert governed._pt == direct._pt
        for counter in ("propagations", "unions", "strong_updates",
                        "weak_updates", "nodes_processed", "stored_ptsets",
                        "unique_ptsets", "top_level_bits", "callgraph_edges"):
            assert getattr(governed.stats, counter) == \
                getattr(direct.stats, counter), counter
        assert governed.precision_level == solver
        assert governed.report is not None and not governed.report.degraded

"""Graceful degradation: budgets and faults cost precision, never answers.

The ladder runs the requested analysis and, when a rung fails with a typed
:class:`~repro.errors.ReproError` (budget exhaustion, an injected fault, a
solver inconsistency) or a ``MemoryError``, retries on the next, cheaper
rung instead of crashing::

    vsfs  →  sfs  →  andersen
    sfs   →  andersen
    icfg-fs → andersen
    ander →  andersen

Soundness by construction: every rung is a sound may-analysis of the same
program, and each is at most as precise as the one below it — so degrading
returns a *superset* of the points-to sets the precise run would have
produced, never a wrong answer.  The final Andersen rung is the staging
analysis the flow-sensitive solvers are built on (it already ran to
completion as their auxiliary analysis), which is why it can serve as the
unconditional floor: when fallback is enabled the last rung runs
ungoverned and fault-free, guaranteeing an answer even under a zero
budget.

One :class:`~repro.runtime.budget.BudgetMeter` spans all rungs, so the
budget caps the whole governed run, not each attempt.  Partial solver
state abandoned by a failed rung is *never* reused — a partial fixpoint
under-approximates and would be unsound; it is kept only on the exception
for diagnostics.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.analysis.andersen import AndersenResult
from repro.datastructs.bitset import count_bits
from repro.errors import AnalysisError, CheckpointError, ReproError
from repro.runtime.budget import Budget, BudgetMeter
from repro.runtime.checkpoint import CheckpointConfig, Checkpointer
from repro.runtime.diagnostics import RunReport
from repro.solvers.base import FlowSensitiveResult, SolverStats

#: Ladder per requested analysis, most precise first.  Sharded SFS
#: degrades to its serial twin first (same precision, simpler execution)
#: before dropping precision — a worker blowing its budget falls back to
#: one process before falling back to Andersen.
LADDERS = {
    "vsfs": ("vsfs", "sfs", "andersen"),
    "sfs": ("sfs", "andersen"),
    "sfs-par": ("sfs-par", "sfs", "andersen"),
    "icfg-fs": ("icfg-fs", "andersen"),
    "ander": ("andersen",),
}

#: A rung: (precision level, thunk taking the shared meter — or None for
#: the ungoverned floor — and returning a result).
Rung = Tuple[str, Callable[[Optional[BudgetMeter]], object]]


def andersen_as_flow_sensitive(andersen: AndersenResult,
                               degraded_from: Optional[str] = None) -> FlowSensitiveResult:
    """Repackage an Andersen result in the flow-sensitive result shape.

    Sound by construction: Andersen is the staging analysis, so its sets
    are supersets of what SFS/VSFS would compute.  The synthesised result
    answers the same ``points_to``/``may_alias``/``snapshot`` API, letting
    budget-exhausted callers keep working at reduced precision.
    """
    module = andersen.module
    pt = [0] * len(module.variables)
    for var in module.variables:
        if 0 <= var.id < len(pt):
            pt[var.id] = andersen.pts_mask(var)
    stats = SolverStats(
        analysis="andersen",
        solve_time=andersen.stats.solve_time,
        callgraph_edges=andersen.callgraph.num_edges(),
        top_level_bits=sum(count_bits(mask) for mask in pt),
    )
    return FlowSensitiveResult(module, pt, andersen.callgraph, stats,
                               precision_level="andersen",
                               degraded_from=degraded_from)


def run_ladder(rungs: Sequence[Rung], budget: Optional[Budget] = None,
               fallback: bool = True, requested: Optional[str] = None,
               ) -> Tuple[object, RunReport]:
    """Try each rung in order under one shared meter; see module docstring.

    With ``fallback`` the last rung runs ungoverned (the guaranteed
    floor); without it, the first failure re-raises with the report
    attached as ``exc.run_report``.  Returns ``(result, report)``.

    Without a budget no meter is created (solve loops stay tick-free); the
    report then takes wall time from ``perf_counter`` and steps from each
    rung's result stats.
    """
    if not rungs:
        raise AnalysisError("run_ladder needs at least one rung")
    requested = requested or rungs[0][0]
    meter = budget.meter() if budget is not None else None
    report = RunReport(requested=requested, budget=budget, fallback=fallback)
    last = len(rungs) - 1
    begun = time.perf_counter()

    def record(level: str, outcome: object = None,
               error: Optional[BaseException] = None) -> None:
        attempt = report.record_attempt(level, error=error, meter=meter)
        if meter is None:
            attempt.wall_seconds = time.perf_counter() - begun
            attempt.steps = report.steps_used + result_steps(outcome)
            report.wall_seconds_used = attempt.wall_seconds
            report.steps_used = attempt.steps

    try:
        if meter is not None:
            meter.start()
        for index, (level, thunk) in enumerate(rungs):
            floor = fallback and index == last
            rung_meter = None if floor else meter
            try:
                if rung_meter is not None:
                    rung_meter.check()  # don't build a rung we can't afford
                result = thunk(rung_meter)
            except (ReproError, MemoryError) as exc:
                record(level, getattr(exc, "partial_result", None), exc)
                # A rejected checkpoint is an input problem, not a resource
                # problem: degrading would silently discard the user's
                # resume request, so it always surfaces (CLI exit code 3).
                if isinstance(exc, CheckpointError) or not fallback or index == last:
                    report.finish(meter)
                    exc.run_report = report
                    raise
                continue
            record(level, result)
            report.finish(meter, precision_level=level)
            return result, report
    finally:
        if meter is not None:
            meter.stop()
    raise AssertionError("unreachable: ladder neither returned nor raised")


def result_steps(result: object) -> int:
    """Solver steps *result*'s own attempt performed (0 without stats):
    pops for the staged solvers, processed nodes for Andersen, minus any
    steps replayed from a restored checkpoint."""
    stats = getattr(result, "stats", None)
    processed = getattr(stats, "nodes_processed", None) \
        or getattr(stats, "processed_nodes", 0)
    return processed - getattr(stats, "resumed_steps", 0)


def solve_with_ladder(pipeline, analysis: str = "vsfs",
                      budget: Optional[Budget] = None, fallback: bool = True,
                      faults=None,
                      checkpoint: Optional[CheckpointConfig] = None,
                      resume_state=None, resume_meta=None,
                      jobs: int = 1, parallel_mode: Optional[str] = None,
                      warm_plan=None, capture_regions: bool = False):
    """Run *analysis* on *pipeline* under the degradation ladder.

    Returns the usual result object, tagged with ``precision_level``,
    ``degraded_from`` and a ``report`` (:class:`RunReport`).  Unbudgeted,
    fault-free runs execute exactly the ungoverned solver path and are
    bit-identical to calling the pipeline directly.

    With *checkpoint* (a :class:`CheckpointConfig`) each rung gets its own
    :class:`Checkpointer`, keyed by IR hash × rung — a degraded run's
    precise-rung checkpoint survives for a later retry.
    *resume_state*/*resume_meta* (as returned by :func:`load_checkpoint`)
    restore the matching rung's solver mid-fixpoint before it runs; the
    state is applied only to the rung whose level equals the manifest's
    ``analysis``, so a checkpoint from an sfs fallback rung resumes that
    rung even when vsfs was requested.  On success the completed rung's
    checkpoint is discarded; more precise rungs' checkpoints are kept.
    """
    levels = LADDERS.get(analysis)
    if levels is None:
        raise AnalysisError(
            f"unknown analysis {analysis!r}; choose from {tuple(LADDERS)}")
    requested = "andersen" if analysis == "ander" else analysis

    checkpointers: Dict[str, Checkpointer] = {}
    ir_hash = pipeline.engine.ir_hash() if checkpoint is not None else None

    bus = pipeline.engine.ctx.bus

    def checkpointer_for(level: str) -> Optional[Checkpointer]:
        if checkpoint is None:
            return None
        ck = checkpointers.get(level)
        if ck is None:
            # Wire the fault plan and the pipeline's event bus through so
            # the checkpoint_write fault point fires and skipped saves
            # surface as self_heal events on the run's trace.
            ck = checkpointers[level] = Checkpointer(
                checkpoint, ir_hash, level, faults=faults, bus=bus)
        return ck

    resume_level = resume_meta.get("analysis") if resume_meta else None
    resume_step = resume_meta.get("step", 0) if resume_meta else 0
    if resume_state is not None and resume_level not in levels:
        raise CheckpointError(
            f"checkpoint is for analysis {resume_level!r}, which is not a "
            f"rung of the {analysis!r} ladder {levels}",
            reason="config-mismatch")

    def plan_for(level: str) -> object:
        # The warm plan applies only to the rung it was planned for —
        # a degraded rung solves a *different* analysis, whose stored
        # solution (if any) lives in its own slot.
        base = "sfs" if level == "sfs-par" else level
        if warm_plan is not None \
                and getattr(warm_plan, "analysis", None) == base:
            return warm_plan
        return None

    def make_rung(level: str) -> Rung:
        if level == "sfs-par":
            # The parallel rung does its own sealing/revival in memory;
            # cross-run checkpoints and resume stay serial-only.
            return level, lambda meter: pipeline.sfs_par(
                jobs=jobs, meter=meter, faults=faults,
                mode=parallel_mode, warm_plan=plan_for(level),
                capture_regions=capture_regions)
        ck = checkpointer_for(level)
        state = resume_state if level == resume_level else None
        if level == "vsfs":
            return level, lambda meter: pipeline.vsfs(
                meter=meter, faults=faults,
                checkpointer=ck, resume_state=state, resume_step=resume_step,
                warm_plan=plan_for(level), capture_regions=capture_regions)
        if level == "sfs":
            return level, lambda meter: pipeline.sfs(
                meter=meter, faults=faults,
                checkpointer=ck, resume_state=state, resume_step=resume_step,
                warm_plan=plan_for(level), capture_regions=capture_regions)
        if level == "icfg-fs":
            return level, lambda meter: pipeline.icfg_fs(
                meter=meter, checkpointer=ck, resume_state=state,
                resume_step=resume_step)
        # The Andersen rung takes no faults: it is the guaranteed floor.
        return level, lambda meter: pipeline.andersen(
            meter=meter, checkpointer=ck, resume_state=state,
            resume_step=resume_step)

    def stamp(report: RunReport, failure=None) -> None:
        report.stage_trace = getattr(pipeline, "trace", None)
        report.resumed = resume_state is not None
        report.resumed_from_step = resume_step if report.resumed else None
        report.resume_count = 1 if report.resumed else 0
        report.checkpoint_saves = sum(ck.saves for ck in checkpointers.values())
        report.checkpoint_skips = sum(
            ck.skipped for ck in checkpointers.values())
        report.checkpoint_time_s = sum(
            ck.total_time for ck in checkpointers.values())
        if failure is not None:
            report.checkpoint_path = getattr(failure, "checkpoint_path", None)

    try:
        result, report = run_ladder([make_rung(level) for level in levels],
                                    budget=budget, fallback=fallback,
                                    requested=requested)
    except (ReproError, MemoryError) as exc:
        failed_report = getattr(exc, "run_report", None)
        if failed_report is not None:
            stamp(failed_report, failure=exc)
        raise
    stamp(report)
    completed = checkpointers.get(report.precision_level)
    if completed is not None:
        completed.discard()
    return _tag(result, analysis, report)


def _tag(result, analysis: str, report: RunReport):
    """Stamp precision metadata (and synthesise the fallback shape)."""
    level = report.precision_level
    degraded_from = report.degraded_from
    if isinstance(result, AndersenResult) and analysis != "ander":
        result = andersen_as_flow_sensitive(result, degraded_from=degraded_from)
    result.precision_level = level
    result.degraded_from = degraded_from
    incr = getattr(result, "incremental", None)
    if incr is not None:
        report.incremental = incr.to_dict()
    result.report = report
    return result

"""Topological executor for the stage graph.

:meth:`Engine.ensure` builds a substrate stage after its inputs,
memoising artifacts in the context and consulting the stage cache when
one is attached, with the cyclic collector paused for the build;
:meth:`Engine.solve` builds and runs one solve rung (the timed main
phase) from the governance it is given.  Every execution is bracketed by
events on the context's bus, folded by the engine's
:class:`~repro.engine.events.StageTrace` into the per-stage breakdown
reproducing the paper's setup-vs-main-phase split.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from typing import Any, Iterator, Optional

from repro.analysis.andersen import AndersenAnalysis
from repro.engine.context import StageContext
from repro.engine.events import (StageEvent, StageTrace, gc_collections,
                                 gc_detail, heal_event)
from repro.engine.stages import default_stages
from repro.errors import AnalysisError, CheckpointError, InjectedFault
from repro.runtime.degrade import result_steps
from repro.runtime.resilience import IO_RETRY
from repro.store.codec import ir_fingerprint

#: Solve levels the engine can run (= degradation-ladder rungs); it also
#: runs ``sfs-par``, sharded SFS on ``jobs`` workers.
SOLVE_LEVELS = ("andersen", "sfs", "vsfs", "icfg-fs")

#: Substrate each solve level reads, ensured before its timed window.
_SOLVE_INPUTS = {"sfs": ("svfg",), "sfs-par": ("svfg",),
                 "vsfs": ("svfg", "versioning")}


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Disable the cyclic collector for the block, if it is enabled.

    A substrate build allocates large, long-lived object graphs, and the
    collector's full collections would re-walk all of them without
    freeing any.  Nothing is frozen and no threshold moves: the collector
    runs as before once the block ends, so the daemon still reclaims the
    cycles of evicted sessions.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class Engine:
    """Executes stages over one :class:`StageContext`."""

    def __init__(self, ctx: StageContext):
        self.ctx = ctx
        self.stages = default_stages()
        self.trace = StageTrace(ctx.bus)
        self._ir_hash: Optional[str] = None

    def ir_hash(self) -> str:
        """The prepared module's IR hash, computed on first use.

        Only persistence reads it (the stage cache, the result store and
        checkpoints), so a run that stores nothing hashes nothing.
        """
        if self._ir_hash is None:
            self._ir_hash = ir_fingerprint(self.ensure("prepare"))
        return self._ir_hash

    # -------------------------------------------------------------- substrate

    def _cache_lookup(self, stage: Any, ir_hash: str) -> Any:
        """Probe the stage cache, healing failed probes into misses.

        The ``stage_cache_read`` fault point fires here.  A corrupt or
        unreadable entry is quarantined by :class:`StageCache` itself;
        the failure is absorbed as a ``self_heal``/``recompute`` event
        (carrying a rejection's ``reason`` and ``path``) and the probe
        degrades to a miss — the stage simply rebuilds.
        """
        ctx = self.ctx
        from repro.engine.cache import CacheProbe

        try:
            if ctx.faults is not None:
                ctx.faults.fire("stage_cache_read", stage=stage.name)
            return ctx.cache.lookup(stage, ctx, ir_hash)
        except (CheckpointError, InjectedFault, OSError) as exc:
            ctx.bus.emit(heal_event(
                stage.name, "io", "recompute", point="stage_cache_read",
                error=type(exc).__name__,
                reason=getattr(exc, "reason", None),
                path=getattr(exc, "path", None)))
            ctx.cache.misses += 1
            return CacheProbe("miss")

    def _cache_store(self, stage: Any, ir_hash: str, artifact: Any) -> None:
        """Persist a fresh artifact, retrying transient failures.

        The ``stage_cache_write`` fault point fires inside the retried
        window.  Exhausting the :data:`IO_RETRY` budget never fails the
        run — the artifact is simply not cached this time
        (``self_heal``/``skip-write``).
        """
        ctx = self.ctx
        name = stage.name

        def attempt() -> None:
            if ctx.faults is not None:
                ctx.faults.fire("stage_cache_write", stage=name)
            __, nbytes = ctx.cache.store(stage, ir_hash, artifact)
            ctx.bus.emit(StageEvent("artifact_bytes", name,
                                    artifact_bytes=nbytes))

        def on_retry(attempt_no: int, exc: BaseException) -> None:
            ctx.bus.emit(heal_event(
                name, "io", "retry", point="stage_cache_write",
                attempt=attempt_no, error=type(exc).__name__))

        try:
            IO_RETRY.run(attempt, retry_on=(OSError, InjectedFault),
                         on_retry=on_retry)
        except (OSError, InjectedFault) as exc:
            ctx.bus.emit(heal_event(
                name, "io", "skip-write", point="stage_cache_write",
                error=type(exc).__name__))

    def ensure(self, name: str) -> Any:
        """Build (or load) the substrate artifact *name*, inputs first."""
        ctx = self.ctx
        if name in ctx.artifacts:
            return ctx.artifacts[name]
        stage = self.stages.get(name)
        if stage is None:
            raise AnalysisError(f"unknown stage {name!r}")
        for dep in stage.inputs:
            self.ensure(dep)
        cacheable = stage.cache_mode is not None and ctx.cache is not None
        ir_hash = self.ir_hash() if cacheable else None
        ctx.bus.emit(StageEvent("stage_start", name))
        begun = time.perf_counter()
        with _collector_paused():
            gc_begun = gc_collections()
            cache_label: Optional[str] = None
            try:
                artifact: Any = None
                if cacheable:
                    probe = self._cache_lookup(stage, ir_hash)
                    cache_label = probe.mode
                    if probe.mode == "codec":
                        artifact = probe.artifact
                        ctx.bus.emit(StageEvent(
                            "cache_hit", name, cache="codec",
                            artifact_bytes=probe.nbytes))
                if artifact is None:
                    artifact = stage.run(ctx)
                    if cacheable:
                        self._cache_store(stage, ir_hash, artifact)
            except BaseException as exc:
                ctx.bus.emit(StageEvent(
                    "stage_end", name, wall_s=time.perf_counter() - begun,
                    cache=cache_label, outcome=type(exc).__name__,
                    detail=gc_detail(gc_begun)))
                raise
            ctx.artifacts[name] = artifact
            ctx.bus.emit(StageEvent(
                "stage_end", name, wall_s=time.perf_counter() - begun,
                steps=stage.steps(artifact), cache=cache_label,
                outcome="ok", detail=gc_detail(gc_begun)))
        return artifact

    # ------------------------------------------------------------ main phase

    def solve(self, level: str, meter: Any = None,
              faults: Any = None, checkpointer: Any = None,
              resume_state: Any = None, resume_step: int = 0,
              jobs: int = 1, parallel_mode: Optional[str] = None,
              warm_plan: Any = None, capture_regions: bool = False) -> Any:
        """Build and run one solve rung; substrate is ensured (untimed)
        first.

        *meter*, *faults* and *checkpointer* govern the solver;
        *resume_state*/*resume_step* restore it mid-fixpoint; a usable
        *warm_plan* for this level re-solves only its dirty regions; and
        *capture_regions* attaches the solved per-node memory and flow
        graph as ``result.incremental_capture``.  ``sfs-par`` shards SFS
        over *jobs* workers (*parallel_mode* picks the transport).

        The Andersen level keeps the auxiliary result's memo semantics: a
        plain call reuses the substrate artifact, a checkpointed/resumed
        call always runs fresh, and a completed governed run re-seeds the
        substrate memo (a completed run is a valid auxiliary analysis).
        """
        ctx = self.ctx
        if level not in SOLVE_LEVELS and level != "sfs-par":
            raise AnalysisError(f"unknown solve level {level!r}")
        name = f"solve:{level}"
        if level == "andersen":
            if meter is None and checkpointer is None and resume_state is None:
                return self.ensure("andersen")
            if checkpointer is None and resume_state is None \
                    and "andersen" in ctx.artifacts:
                return ctx.artifacts["andersen"]
        # Build the substrate outside the solve's timed window.
        for dep in _SOLVE_INPUTS.get(level, ("prepare",)):
            self.ensure(dep)
        ctx.bus.emit(StageEvent("stage_start", name, main_phase=True))
        begun = time.perf_counter()
        gc_begun = gc_collections()
        try:
            result = self._run_solver(
                level, meter, faults, checkpointer, resume_state,
                resume_step, jobs, parallel_mode, warm_plan, capture_regions)
        except BaseException as exc:
            ctx.bus.emit(StageEvent(
                "stage_end", name, wall_s=time.perf_counter() - begun,
                main_phase=True, outcome=type(exc).__name__,
                detail=gc_detail(gc_begun)))
            raise
        if level == "andersen":
            ctx.artifacts["andersen"] = result
        pstats = getattr(result, "parallel", None)
        if pstats is not None and getattr(pstats, "revivals", 0):
            ctx.bus.emit(heal_event(
                name, "parallel", "revive",
                revivals=getattr(pstats, "revivals", 0),
                worker_failures=getattr(pstats, "worker_failures", 0) or None,
                heartbeat_timeouts=(
                    getattr(pstats, "heartbeat_timeouts", 0) or None)))
        incr = getattr(result, "incremental", None)
        detail = {"incremental": incr.to_dict()} if incr is not None else None
        # Per-execution work only: a resumed solve's nodes_processed is
        # cumulative across attempts, and trace records are per attempt —
        # reporting the cumulative figure would double-count every
        # pre-crash pop when traces are summed (batch stage totals).
        ctx.bus.emit(StageEvent(
            "stage_end", name, wall_s=time.perf_counter() - begun,
            steps=result_steps(result), main_phase=True,
            outcome="ok", detail=gc_detail(gc_begun, detail)))
        return result

    def _run_solver(self, level: str, meter: Any, faults: Any,
                    checkpointer: Any, resume_state: Any, resume_step: int,
                    jobs: int, parallel_mode: Optional[str], plan: Any,
                    capture_regions: bool) -> Any:
        """The body of :meth:`solve`'s timed window."""
        artifacts = self.ctx.artifacts
        usable = (plan is not None and plan.usable
                  and plan.analysis == ("sfs" if level == "sfs-par"
                                        else level))
        if level == "sfs-par":
            if usable:
                # A warm re-solve retracts/reseeds from a stored solution;
                # a sharded run would have to split that preload across
                # worker partitions.  Collapse to the serial kernel —
                # result-identical by confluence (DESIGN.md §10) — and
                # keep the warm savings instead of the parallel speedup.
                self.ctx.bus.emit(heal_event(
                    "solve:sfs-par", "parallel", "collapse",
                    reason="warm-start", jobs=jobs))
                level = "sfs"
            else:
                if resume_state is not None:
                    raise AnalysisError(
                        "parallel solve stages cannot resume a serial "
                        "checkpoint; rerun serially (--jobs 1) to resume")
                from repro.parallel.driver import solve_parallel

                result = solve_parallel(
                    artifacts["svfg"], "sfs", jobs,
                    budget=meter.budget if meter is not None else None,
                    faults=faults, mode=parallel_mode)
                if meter is not None:
                    # The workers metered themselves (per-worker budgets);
                    # reflect their pops into the governing meter so
                    # ladder reports and stage step totals add up.
                    meter.steps += result.stats.nodes_processed
                return result
        if level == "andersen":
            solver = AndersenAnalysis(artifacts["prepare"], meter=meter,
                                      checkpointer=checkpointer)
        elif level == "icfg-fs":
            from repro.solvers.icfg_fs import ICFGFlowSensitive

            solver = ICFGFlowSensitive(artifacts["prepare"], meter=meter,
                                       checkpointer=checkpointer)
        elif level == "sfs":
            from repro.solvers.sfs import SFSAnalysis

            solver = SFSAnalysis(artifacts["svfg"], meter=meter,
                                 faults=faults, checkpointer=checkpointer)
        else:
            from repro.core.vsfs import VSFSAnalysis

            solver = VSFSAnalysis(artifacts["svfg"], artifacts["versioning"],
                                  meter=meter, faults=faults,
                                  checkpointer=checkpointer)
        warm = usable and resume_state is None
        if resume_state is not None:
            solver.restore_state(resume_state, resume_step)
        if warm:
            solver.warm_start(plan)
        result = solver.run()
        if plan is not None and level in ("sfs", "vsfs"):
            # A plan that fell back to cold still reports why.
            if warm:
                plan.stats.finish(result.stats.nodes_processed)
            result.incremental = plan.stats
        if capture_regions and level in ("sfs", "vsfs"):
            from repro.incremental.deps import node_flow_graph

            node_in, node_out = solver.export_node_memory()
            result.incremental_capture = {
                "node_in": node_in,
                "node_out": node_out,
                "flow": node_flow_graph(solver.svfg),
            }
        return result

    # ----------------------------------------------------------- integration

    def record_external_hit(self, stage_name: str, label: str,
                            nbytes: int = 0) -> None:
        """Record a cache hit satisfied outside the engine (e.g. the
        result store short-circuiting a solve) so traces stay complete."""
        self.ctx.bus.emit(StageEvent("stage_start", stage_name,
                                     main_phase=True))
        self.ctx.bus.emit(StageEvent("cache_hit", stage_name, cache=label,
                                     artifact_bytes=nbytes or None))
        self.ctx.bus.emit(StageEvent("stage_end", stage_name, wall_s=0.0,
                                     main_phase=True, outcome="ok",
                                     detail=gc_detail(gc_collections())))

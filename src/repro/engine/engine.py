"""Topological executor for the stage graph.

:meth:`Engine.ensure` builds a substrate stage after its inputs,
memoising artifacts in the context and consulting the stage cache when
one is attached, with the cyclic collector paused for the build;
:meth:`Engine.solve` runs one solve rung (the timed
main phase) under per-rung governance.  Every execution is bracketed by
events on the context's bus, folded by the engine's
:class:`~repro.engine.events.StageTrace` into the per-stage breakdown
reproducing the paper's setup-vs-main-phase split.
"""

from __future__ import annotations

import gc
import hashlib
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional

from repro.engine.context import StageContext
from repro.engine.events import (StageEvent, StageTrace, gc_collections,
                                 gc_detail, heal_event)
from repro.engine.stages import Stage, default_stages
from repro.errors import AnalysisError, CheckpointError, InjectedFault
from repro.runtime.resilience import IO_RETRY


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

    def __init__(self, ctx: StageContext,
                 stages: Optional[Dict[str, Stage]] = None):
        self.ctx = ctx
        self.stages = stages if stages is not None else default_stages()
        self.trace = StageTrace(ctx.bus)

    # ----------------------------------------------------------- fingerprints

    def fingerprint(self, name: str) -> str:
        """Content fingerprint of *name* under the base context's config.

        Requires the stage's fingerprint inputs to have been ensured
        (the prepare stage is the content-addressed root and must have
        run before anything downstream is fingerprinted).
        """
        fp = self.ctx.fingerprints.get(name)
        if fp is None:
            fp = self._fingerprint_for(self.stages[name], self.ctx)
            self.ctx.fingerprints[name] = fp
        return fp

    def _fingerprint_for(self, stage: Stage, ctx: Any) -> str:
        chained = stage.fingerprint_inputs
        if chained is None:
            chained = stage.inputs
        parts = [stage.name, f"v{stage.version}", stage.config_token(ctx)]
        parts.extend(self.fingerprint(dep) for dep in chained)
        return hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()

    # -------------------------------------------------------------- substrate

    def _cache_lookup(self, stage: Stage, fp: str) -> Any:
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
            return ctx.cache.lookup(stage, ctx, fp)
        except (CheckpointError, InjectedFault, OSError) as exc:
            ctx.bus.emit(heal_event(
                stage.name, "io", "recompute", point="stage_cache_read",
                error=type(exc).__name__,
                reason=getattr(exc, "reason", None),
                path=getattr(exc, "path", None)))
            ctx.cache.misses += 1
            return CacheProbe("miss")

    def _cache_store(self, stage: Stage, fp: str, artifact: Any) -> None:
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
            __, nbytes = ctx.cache.store(stage, ctx, fp, artifact)
            ctx.bus.emit(StageEvent(
                "artifact_bytes", name, artifact_bytes=nbytes,
                fingerprint=fp))

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
        fp = self.fingerprint(name) if cacheable else None
        ctx.bus.emit(StageEvent("stage_start", name,
                                main_phase=stage.main_phase, fingerprint=fp))
        begun = time.perf_counter()
        with _collector_paused():
            gc_begun = gc_collections()
            cache_label: Optional[str] = None
            try:
                artifact: Any = None
                if cacheable:
                    probe = self._cache_lookup(stage, fp)
                    cache_label = probe.mode
                    if probe.mode == "codec":
                        artifact = probe.artifact
                        ctx.bus.emit(StageEvent(
                            "cache_hit", name, cache="codec",
                            artifact_bytes=probe.nbytes, fingerprint=fp))
                if artifact is None:
                    artifact = stage.run(ctx)
                    if cacheable:
                        self._cache_store(stage, fp, artifact)
            except BaseException as exc:
                ctx.bus.emit(StageEvent(
                    "stage_end", name, wall_s=time.perf_counter() - begun,
                    main_phase=stage.main_phase, cache=cache_label,
                    fingerprint=fp, outcome=type(exc).__name__,
                    detail=gc_detail(gc_begun)))
                raise
            ctx.artifacts[name] = artifact
            if fp is None:
                fp = self.fingerprint(name)  # content roots hash post-run
            ctx.bus.emit(StageEvent(
                "stage_end", name, wall_s=time.perf_counter() - begun,
                steps=stage.steps(artifact), main_phase=stage.main_phase,
                cache=cache_label, fingerprint=fp, outcome="ok",
                detail=gc_detail(gc_begun)))
        return artifact

    # ------------------------------------------------------------ main phase

    def solve(self, level: str, meter: Any = None,
              faults: Any = None, checkpointer: Any = None,
              resume_state: Any = None, resume_step: int = 0,
              jobs: Optional[int] = None,
              parallel_mode: Optional[str] = None,
              warm_plan: Any = None,
              capture_regions: Optional[bool] = None) -> Any:
        """Run one solve rung; substrate is ensured (untimed) first.

        The Andersen level keeps the auxiliary result's memo semantics: a
        plain call reuses the substrate artifact, a checkpointed/resumed
        call always runs fresh, and a completed governed run re-seeds the
        substrate memo (a completed run is a valid auxiliary analysis).
        """
        ctx = self.ctx
        name = f"solve:{level}"
        stage = self.stages.get(name)
        if stage is None:
            raise AnalysisError(f"unknown solve level {level!r}")
        if level == "andersen":
            if meter is None and checkpointer is None and resume_state is None:
                return self.ensure("andersen")
            if checkpointer is None and resume_state is None \
                    and "andersen" in ctx.artifacts:
                return ctx.artifacts["andersen"]
            self.ensure("prepare")
        else:
            # Build the substrate outside the solve's timed window.
            for dep in stage.inputs:
                self.ensure(dep)
        rung = ctx.for_solve(
            jobs=ctx.jobs if jobs is None else max(1, int(jobs)),
            parallel_mode=(ctx.parallel_mode if parallel_mode is None
                           else parallel_mode),
            meter=meter, faults=faults, checkpointer=checkpointer,
            resume_state=resume_state, resume_step=resume_step,
            warm_plan=warm_plan if warm_plan is not None else ctx.warm_plan,
            capture_regions=(ctx.capture_regions if capture_regions is None
                             else bool(capture_regions)))
        fp = self._fingerprint_for(stage, rung)
        ctx.bus.emit(StageEvent("stage_start", name, main_phase=True,
                                fingerprint=fp))
        begun = time.perf_counter()
        gc_begun = gc_collections()
        try:
            result = stage.run(rung)
        except BaseException as exc:
            ctx.bus.emit(StageEvent(
                "stage_end", name, wall_s=time.perf_counter() - begun,
                main_phase=True, fingerprint=fp,
                outcome=type(exc).__name__, detail=gc_detail(gc_begun)))
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
        ctx.bus.emit(StageEvent(
            "stage_end", name, wall_s=time.perf_counter() - begun,
            steps=stage.steps(result), main_phase=True, fingerprint=fp,
            outcome="ok", detail=gc_detail(gc_begun, detail)))
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

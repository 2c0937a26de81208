"""One-stop pipeline: source/module in, points-to results out.

:class:`AnalysisPipeline` is a thin compatibility shim over the
stage-graph engine (:mod:`repro.engine`): each lazy getter delegates to
:meth:`Engine.ensure`, each solver entry point to :meth:`Engine.solve`,
so callers share the expensive substrate between SFS and VSFS runs —
exactly how the paper benchmarks the two (auxiliary analysis and SVFG
construction excluded from the timed main phase).  No solver mutates
the shared SVFG or versioning: each reads the SVFG through its own view
(:meth:`SVFG.copy`), which shares every edge row and table with the
build and keeps the rows on-the-fly call resolution grows in its own
overlay (:attr:`SVFG.wired`).

:func:`solve_stored` is the one *stored solve*: result-store lookup,
warm-slot planning, the degradation ladder, the result put and the
warm-slot capture, each failure healed the same way.  ``repro-wpa``,
the daemon, the chaos soak and :func:`analyze` all call it.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.analysis.andersen import AndersenResult
from repro.analysis.modref import ModRefInfo
from repro.core.versioning import ObjectVersioning
from repro.engine import Engine, StageCache, StageContext, StageTrace
from repro.engine.events import heal_event
from repro.errors import AnalysisError, CheckpointError, InjectedFault
from repro.frontend import compile_c
from repro.ir.module import Module
from repro.ir.parser import parse_module
from repro.memssa.builder import MemSSA
from repro.passes.prepare import prepare_module
from repro.runtime.checkpoint import CheckpointConfig
from repro.runtime.degrade import solve_with_ladder
from repro.runtime.resilience import IO_RETRY
from repro.solvers.base import FlowSensitiveResult
from repro.svfg.builder import SVFG

ANALYSES = ("ander", "sfs", "vsfs", "icfg-fs")


class AnalysisPipeline:
    """Caches each stage; every getter builds its dependencies on demand."""

    def __init__(self, module: Optional[Module] = None,
                 cache: Optional[StageCache] = None,
                 source: Optional[str] = None, language: str = "c",
                 faults=None):
        if module is None and source is None:
            raise AnalysisError(
                "AnalysisPipeline needs a prepared module or source text")
        ctx = StageContext(module=module, source=source, language=language,
                           cache=cache, faults=faults)
        self.engine = Engine(ctx)
        self.module: Module = self.engine.ensure("prepare")

    @classmethod
    def from_source(cls, source: str, language: str = "c",
                    cache: Optional[StageCache] = None,
                    faults=None) -> "AnalysisPipeline":
        """Route parsing/preparation through the engine's own stages."""
        return cls(source=source, language=language, cache=cache,
                   faults=faults)

    @property
    def trace(self) -> StageTrace:
        """Per-stage wall/steps/cache breakdown of everything run so far."""
        return self.engine.trace

    # -------------------------------------------------------------- substrate

    def andersen(self, meter=None, checkpointer=None,
                 resume_state=None, resume_step: int = 0) -> AndersenResult:
        if meter is None and checkpointer is None and resume_state is None:
            return self.engine.ensure("andersen")
        return self.engine.solve("andersen", meter=meter,
                                 checkpointer=checkpointer,
                                 resume_state=resume_state,
                                 resume_step=resume_step)

    def modref(self) -> ModRefInfo:
        return self.engine.ensure("modref")

    def memssa(self) -> MemSSA:
        return self.engine.ensure("memssa")

    def svfg(self) -> SVFG:
        """The shared, immutable SVFG build (solvers make their own views)."""
        return self.engine.ensure("svfg")

    def versioning(self) -> ObjectVersioning:
        """The shared versioning every VSFS solve on this pipeline reads."""
        return self.engine.ensure("versioning")

    # ------------------------------------------------------------- main phase

    def sfs(self, meter=None,
            faults=None, checkpointer=None, resume_state=None,
            resume_step: int = 0, warm_plan=None,
            capture_regions: bool = False) -> FlowSensitiveResult:
        return self.engine.solve("sfs",
                                 meter=meter, faults=faults,
                                 checkpointer=checkpointer,
                                 resume_state=resume_state,
                                 resume_step=resume_step,
                                 warm_plan=warm_plan,
                                 capture_regions=capture_regions)

    def vsfs(self, meter=None,
             faults=None, checkpointer=None, resume_state=None,
             resume_step: int = 0, warm_plan=None,
             capture_regions: bool = False) -> FlowSensitiveResult:
        return self.engine.solve("vsfs",
                                 meter=meter, faults=faults,
                                 checkpointer=checkpointer,
                                 resume_state=resume_state,
                                 resume_step=resume_step,
                                 warm_plan=warm_plan,
                                 capture_regions=capture_regions)

    def sfs_par(self, jobs: int = 2,
                meter=None, faults=None, mode: Optional[str] = None,
                warm_plan=None,
                capture_regions: bool = False) -> FlowSensitiveResult:
        """Sharded parallel SFS on *jobs* workers (bit-identical to
        :meth:`sfs`; see :mod:`repro.parallel`).  A usable *warm_plan*
        collapses the run onto the serial kernel (same result)."""
        return self.engine.solve("sfs-par",
                                 meter=meter, faults=faults, jobs=jobs,
                                 parallel_mode=mode, warm_plan=warm_plan,
                                 capture_regions=capture_regions)

    def icfg_fs(self, meter=None, checkpointer=None, resume_state=None,
                resume_step: int = 0) -> FlowSensitiveResult:
        return self.engine.solve("icfg-fs", meter=meter,
                                 checkpointer=checkpointer,
                                 resume_state=resume_state,
                                 resume_step=resume_step)


def module_from(source: Union[str, Module], language: str = "c") -> Module:
    """Accept a ready module, mini-C source, or textual IR."""
    if isinstance(source, Module):
        return source
    if language == "c":
        return compile_c(source)
    if language == "ir":
        module = parse_module(source)
        prepare_module(module, promote=False)
        return module
    raise AnalysisError(f"unknown language {language!r} (want 'c' or 'ir')")


def analyze(source: Union[str, Module], analysis: str = "vsfs",
            language: str = "c", budget=None, fallback: bool = True,
            faults=None, checkpoint=None, resume_from=None):
    """Run one analysis end to end, governed by the degradation ladder.

    :param source: a prepared :class:`Module`, mini-C source text, or
        textual IR (set ``language='ir'``).
    :param analysis: ``'ander'``, ``'sfs'``, ``'vsfs'`` (default) or
        ``'icfg-fs'``.
    :param budget: optional :class:`~repro.runtime.budget.Budget`; when it
        is exhausted the run degrades down the ladder (or raises
        :class:`~repro.errors.BudgetExceeded` with ``fallback=False``).
    :param fallback: walk the degradation ladder on failure (default) —
        the result's ``precision_level``/``degraded_from`` record what
        actually ran; with ``False`` the first failure raises.
    :param faults: optional :class:`~repro.runtime.faults.FaultPlan` for
        deterministic fault injection (testing infrastructure).
    :param checkpoint: optional
        :class:`~repro.runtime.checkpoint.CheckpointConfig` (or a
        directory path) enabling periodic crash-safe snapshots of the
        in-flight solver, plus one final snapshot when a budget trips.
    :param resume_from: resume a previous interrupted run: a checkpoint
        file path, a directory to search, or ``True`` to search
        ``checkpoint``'s directory.  Discovery is content-addressed (IR
        hash × rung) and walks the ladder most-precise
        first; a stale or mismatched checkpoint raises
        :class:`~repro.errors.CheckpointError`, while "no checkpoint
        found" in directory mode simply starts fresh.
    :returns: :class:`AndersenResult` or :class:`FlowSensitiveResult`,
        tagged with ``precision_level`` and a ``report``
        (:class:`~repro.runtime.diagnostics.RunReport`, including the
        per-stage trace).  Unbudgeted fault-free runs produce
        bit-identical points-to results to the ungoverned solvers — and
        so do resumed runs versus uninterrupted ones.
    """
    if analysis not in ANALYSES:
        raise AnalysisError(f"unknown analysis {analysis!r}; choose from {ANALYSES}")
    if isinstance(source, Module):
        pipeline = AnalysisPipeline(source)
    else:
        pipeline = AnalysisPipeline.from_source(source, language=language)
    result, __ = solve_stored(pipeline, analysis, budget=budget,
                              fallback=fallback, faults=faults,
                              checkpoint=checkpoint, resume_from=resume_from)
    return result


def solve_stored(pipeline: AnalysisPipeline, analysis: str = "vsfs",
                 store=None, incremental=None, budget=None,
                 fallback: bool = True, faults=None,
                 checkpoint=None, resume_from=None, jobs: int = 1,
                 parallel_mode: Optional[str] = None):
    """Answer *analysis* from *store*, or solve it and store the answer.

    The stored solve behind ``repro-wpa --store``, the daemon, the chaos
    soak and :func:`analyze`:

    1. *store* (a :class:`~repro.store.ResultStore`) is looked up first;
       a hit returns at once, with no run report.
    2. For SFS and VSFS without *resume_from*, *incremental* (a
       :class:`~repro.incremental.IncrementalStore`, or its directory)
       holds the last solved program, and
       :func:`~repro.incremental.plan_warm` plans a warm re-solve of the
       edit's dirty closure (DESIGN.md §14).
    3. The degradation ladder runs; see :func:`analyze` for *budget*,
       *fallback*, *faults*, *checkpoint* and *resume_from*.  With ``jobs > 1`` an SFS solve
       that resumes nothing runs sharded.
    4. A full-precision answer is put in *store*, and the solved program
       is captured into the warm slot for the next edit.

    Every failure absorbed on the way is a ``self_heal`` event on the
    pipeline's bus.  A rejected result-store entry or warm slot (already
    quarantined) heals to ``recompute``, with the rejection's ``reason``
    and ``path``.  A put or a slot save is retried under
    :data:`~repro.runtime.resilience.IO_RETRY`, with a ``retry`` event
    each time, and then given up (``skip-write``): a lost entry never
    loses the answer.  *faults* reaches the put, so the
    ``result_store_put`` point fires here.

    Returns ``(result, hit)``; *hit* is True when *store* answered.
    """
    module = pipeline.module
    bus = pipeline.engine.ctx.bus
    ir_hash = pipeline.engine.ir_hash  # computed once, on first call
    stage = f"solve:{'andersen' if analysis == 'ander' else analysis}"

    def heal(action: str, point: str, err: BaseException, **detail) -> None:
        bus.emit(heal_event(stage, "io", action, point=point,
                            error=type(err).__name__, **detail))

    def write(point: str, attempt) -> None:
        try:
            IO_RETRY.run(attempt, retry_on=(OSError, InjectedFault),
                         on_retry=lambda n, err: heal("retry", point, err,
                                                      attempt=n))
        except (OSError, InjectedFault) as err:
            heal("skip-write", point, err, message=str(err))

    if store is not None:
        try:
            cached = store.get(module, analysis, ir_hash=ir_hash())
        except CheckpointError as err:
            heal("recompute", "result_store_get", err, reason=err.reason,
                 path=err.path)
            cached = None
        if cached is not None:
            pipeline.engine.record_external_hit(stage, "result-store")
            return cached, True

    if isinstance(checkpoint, str):
        checkpoint = CheckpointConfig(checkpoint)
    resume_meta = resume_state = None
    if resume_from:
        resume_meta, resume_state = _load_resume_state(
            ir_hash(), analysis, resume_from, checkpoint)
    warm = (incremental is not None and analysis in ("sfs", "vsfs")
            and not resume_from)
    warm_plan = None
    if warm:
        # Imported here: a run that cannot start warm never loads it.
        from repro.incremental import IncrementalStore, plan_warm

        if isinstance(incremental, str):
            incremental = IncrementalStore(incremental)
        try:
            slot = incremental.load(analysis)
        except CheckpointError as err:
            heal("recompute", "incremental_load", err, reason=err.reason,
                 path=err.path)
            slot = None
        if slot is not None:
            warm_plan = plan_warm(slot, pipeline.svfg(), pipeline.modref(),
                                  analysis, pipeline.andersen())
    sharded = analysis == "sfs" and jobs > 1 and not resume_from
    result = solve_with_ladder(
        pipeline, analysis="sfs-par" if sharded else analysis, budget=budget,
        fallback=fallback, faults=faults,
        checkpoint=checkpoint, resume_state=resume_state,
        resume_meta=resume_meta, jobs=jobs, parallel_mode=parallel_mode,
        warm_plan=warm_plan, capture_regions=warm)
    if result.report.precision_lost:
        # Sound, but less precise than the store key promises.
        return result, False
    if store is not None:
        write("result_store_put",
              lambda: store.put(module, analysis, result, ir_hash=ir_hash(),
                                faults=faults))
    capture = getattr(result, "incremental_capture", None)
    if warm and capture is not None:
        from repro.incremental import build_payload

        slot = build_payload(
            pipeline.svfg(), pipeline.modref(), result, capture["node_in"],
            capture["node_out"], capture["flow"], analysis,
            pipeline.andersen())
        write("incremental_save", lambda: incremental.save(slot))
    return result, False


def _load_resume_state(ir_hash: str, analysis: str, resume_from,
                       checkpoint):
    """Locate and verify the checkpoint ``analyze(resume_from=...)`` names.

    Returns ``(meta, payload)`` or ``(None, None)`` when directory-mode
    discovery finds nothing (a fresh start, not an error).  An explicit
    file path that is missing or fails verification always raises.
    """
    import os

    from repro.runtime.checkpoint import find_checkpoint, load_checkpoint
    from repro.runtime.degrade import LADDERS

    levels = LADDERS[analysis]
    path = None
    if isinstance(resume_from, str) and not os.path.isdir(resume_from):
        path = resume_from  # explicit checkpoint file
    else:
        if isinstance(resume_from, str):
            directory = resume_from
        elif checkpoint is not None:
            directory = checkpoint.directory
        else:
            raise AnalysisError(
                "resume_from=True needs a checkpoint directory "
                "(pass checkpoint=... or a directory path)")
        for level in levels:  # most precise rung first
            path = find_checkpoint(directory, ir_hash, level)
            if path is not None:
                break
        if path is None:
            return None, None
    meta, payload = load_checkpoint(path, ir_hash=ir_hash)
    if meta.get("analysis") not in levels:
        raise CheckpointError(
            f"checkpoint at {path} is for analysis {meta.get('analysis')!r}, "
            f"not a rung of the {analysis!r} ladder {levels}",
            reason="config-mismatch", path=path)
    return meta, payload

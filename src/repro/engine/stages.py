"""The typed stages of the analysis flow.

Each :class:`Stage` names its inputs (edges of the stage graph), whether
it is cached (``codec`` round-trips through an encoder; only Andersen's
result is cached, because only its hit skips work), whether it belongs
to the paper's timed main phase, and how to run it from a
:class:`~repro.engine.context.StageContext`.

The graph mirrors the paper's staging::

    parse -> prepare -> andersen -> modref -> memssa -> svfg -> versioning
                   \\-> solve:andersen            (aux as the requested analysis)
                   \\-> solve:icfg-fs             (dense baseline)
                             svfg -> solve:sfs               (main phase)
                             svfg -> solve:sfs-par           (main phase, sharded)
                 svfg, versioning -> solve:vsfs              (main phase)

Fingerprints are content hashes: a stage's fingerprint mixes its name,
its version, its configuration token and every upstream fingerprint; the
root is the prepared module's printed-IR hash, so editing the program
(or the sharded rung's worker count) changes exactly the fingerprints
downstream of the change.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Optional, Tuple

from repro.analysis.andersen import AndersenAnalysis
from repro.analysis.modref import compute_modref
from repro.core.versioning import version_objects
from repro.errors import AnalysisError
from repro.ir.parser import parse_module
from repro.memssa.builder import build_memssa
from repro.passes.prepare import prepare_module
from repro.store import decode_result, encode_result


class Stage:
    """One node of the stage graph; subclasses define the flow."""

    name: str = ""
    #: Upstream stage names; executed (and fingerprint-chained) in order.
    inputs: Tuple[str, ...] = ()
    #: Chain these fingerprints instead of ``inputs`` (None: same as inputs).
    fingerprint_inputs: Optional[Tuple[str, ...]] = None
    #: True only for solve stages — the paper's timed main phase.
    main_phase: bool = False
    #: Bump to invalidate cached artifacts when the stage's logic changes.
    version: int = 1
    #: None (never cached) or "codec" (encode/decode through the cache).
    cache_mode: Optional[str] = None

    def config_token(self, ctx: Any) -> str:
        """Configuration that affects this stage's output (fingerprinted)."""
        return ""

    def run(self, ctx: Any) -> Any:
        raise NotImplementedError

    def steps(self, artifact: Any) -> int:
        """Solver steps the artifact embodies (0 for pure constructions)."""
        return 0

    # ---- codec mode ----

    def encode(self, ctx: Any, artifact: Any) -> Any:
        raise NotImplementedError

    def decode(self, ctx: Any, payload: Any) -> Any:
        raise NotImplementedError


class ParseStage(Stage):
    """Source text → raw (unprepared) IR module; pass-through for a
    caller-provided module."""

    name = "parse"

    def config_token(self, ctx: Any) -> str:
        if ctx.module is not None:
            from repro.store.codec import ir_fingerprint

            return "module:" + ir_fingerprint(ctx.module)
        text = f"{ctx.language}\x00{ctx.source}"
        return "source:" + hashlib.sha256(text.encode("utf-8")).hexdigest()

    def run(self, ctx: Any) -> Any:
        if ctx.module is not None:
            return ctx.module
        if ctx.source is None:
            raise AnalysisError("the engine needs a module or source text")
        if ctx.language == "c":
            from repro.frontend import compile_c

            return compile_c(ctx.source, prepare=False)
        if ctx.language == "ir":
            return parse_module(ctx.source)
        raise AnalysisError(
            f"unknown language {ctx.language!r} (want 'c' or 'ir')")


class PrepareStage(Stage):
    """Pre-analysis normalisation (repro.passes.prepare), idempotent.

    Content-addressed root of the fingerprint chain: its fingerprint is
    derived from the *prepared* module's printed IR, so identical IR
    reached from different source paths shares every downstream cache
    entry.
    """

    name = "prepare"
    inputs = ("parse",)
    fingerprint_inputs = ()

    def config_token(self, ctx: Any) -> str:
        from repro.store.codec import ir_fingerprint

        return ir_fingerprint(ctx.artifacts[self.name])

    def run(self, ctx: Any) -> Any:
        module = ctx.artifacts["parse"]
        if ctx.module is None:
            # mini-C is promoted to partial SSA; textual IR is analysed
            # as written (matching module_from's historical behaviour).
            prepare_module(module, promote=ctx.language == "c")
        return module


class AndersenStage(Stage):
    """Auxiliary flow-insensitive analysis; cached via the result codec."""

    name = "andersen"
    inputs = ("prepare",)
    cache_mode = "codec"

    def run(self, ctx: Any) -> Any:
        return AndersenAnalysis(ctx.artifacts["prepare"]).run()

    def steps(self, artifact: Any) -> int:
        return artifact.stats.processed_nodes

    def encode(self, ctx: Any, artifact: Any) -> Any:
        return encode_result(artifact)

    def decode(self, ctx: Any, payload: Any) -> Any:
        return decode_result(ctx.artifacts["prepare"], payload)


class ModRefStage(Stage):
    """Per-function mod/ref masks."""

    name = "modref"
    inputs = ("prepare", "andersen")

    def run(self, ctx: Any) -> Any:
        return compute_modref(ctx.artifacts["prepare"],
                              ctx.artifacts["andersen"])


class MemSSAStage(Stage):
    """Memory SSA (μ/χ/MEMPHI annotations)."""

    name = "memssa"
    inputs = ("prepare", "andersen", "modref")

    def run(self, ctx: Any) -> Any:
        return build_memssa(ctx.artifacts["prepare"],
                            ctx.artifacts["andersen"],
                            ctx.artifacts["modref"])


class SVFGStage(Stage):
    """The sparse value-flow graph.

    The built graph is the *immutable* shared substrate: every solver
    reads it through its own :meth:`SVFG.copy` view.
    """

    name = "svfg"
    inputs = ("prepare", "andersen", "memssa")

    def run(self, ctx: Any) -> Any:
        from repro.svfg.builder import build_svfg

        return build_svfg(ctx.artifacts["prepare"],
                          ctx.artifacts["andersen"],
                          ctx.artifacts["memssa"])


class VersioningStage(Stage):
    """Object versioning (prelabel + meld) on the shared SVFG, read (never
    mutated) by every VSFS solve."""

    name = "versioning"
    inputs = ("svfg",)

    def run(self, ctx: Any) -> Any:
        return version_objects(ctx.artifacts["svfg"])


class SolveStage(Stage):
    """One solve rung (the timed main phase); never disk-cached — final
    results live in the :class:`~repro.store.ResultStore`.  VSFS's
    fingerprint chains the SVFG's alone: versioning is a function of it."""

    main_phase = True

    def __init__(self, level: str):
        self.level = level
        self.name = f"solve:{level}"
        self.inputs = {"sfs": ("svfg",), "vsfs": ("svfg", "versioning")
                       }.get(level, ("prepare",))
        self.fingerprint_inputs = self.inputs[:1]

    def run(self, ctx: Any) -> Any:
        solver = self.make_solver(ctx)
        plan = ctx.warm_plan
        warm = (plan is not None and getattr(plan, "usable", False)
                and getattr(plan, "analysis", None) == self.level
                and ctx.resume_state is None)
        if ctx.resume_state is not None:
            solver.restore_state(ctx.resume_state, ctx.resume_step)
        if warm:
            solver.warm_start(plan)
        result = solver.run()
        if warm:
            plan.stats.finish(result.stats.nodes_processed)
            result.incremental = plan.stats
        elif plan is not None and self.level in ("sfs", "vsfs"):
            # A plan that fell back to cold still reports why.
            result.incremental = plan.stats
        if ctx.capture_regions and self.level in ("sfs", "vsfs"):
            from repro.incremental.deps import node_flow_graph

            node_in, node_out = solver.export_node_memory()
            result.incremental_capture = {
                "node_in": node_in,
                "node_out": node_out,
                "flow": node_flow_graph(solver.svfg),
            }
        return result

    def make_solver(self, ctx: Any) -> Any:
        module = ctx.artifacts["prepare"]
        if self.level == "andersen":
            return AndersenAnalysis(module, ctx=ctx)
        if self.level == "icfg-fs":
            from repro.solvers.icfg_fs import ICFGFlowSensitive

            return ICFGFlowSensitive(module, ctx=ctx)
        svfg = ctx.artifacts["svfg"]
        if self.level == "sfs":
            from repro.solvers.sfs import SFSAnalysis

            return SFSAnalysis(svfg, ctx=ctx)
        if self.level == "vsfs":
            from repro.core.vsfs import VSFSAnalysis

            return VSFSAnalysis(svfg, ctx.artifacts["versioning"], ctx=ctx)
        raise AnalysisError(f"unknown solve level {self.level!r}")

    def steps(self, artifact: Any) -> int:
        # Per-execution work only: a resumed solve's nodes_processed is
        # cumulative across attempts, and trace records are per attempt —
        # reporting the cumulative figure would double-count every
        # pre-crash pop when traces are summed (batch stage totals).
        from repro.runtime.degrade import result_steps

        return result_steps(artifact)


class ParallelSolveStage(SolveStage):
    """Sharded multiprocessing SFS solve (:mod:`repro.parallel`).

    ``solve:sfs-par`` runs the SFS kernel on ``ctx.jobs`` workers over an
    SCC-condensed partition of the SVFG.  The result is bit-identical to
    the serial rung's (SFS is confluent; DESIGN.md §10), so the worker
    count is a *run* configuration, not an analysis change — which is why
    this stage shares the serial rung's result identity and only the
    trace and the attached ``result.parallel`` stats differ.
    """

    def __init__(self) -> None:
        super().__init__("sfs")
        self.level = "sfs-par"
        self.name = "solve:sfs-par"

    def config_token(self, ctx: Any) -> str:
        return f"jobs={ctx.jobs},mode={ctx.parallel_mode}"

    def run(self, ctx: Any) -> Any:
        from repro.parallel.driver import solve_parallel

        plan = ctx.warm_plan
        if plan is not None and getattr(plan, "usable", False) \
                and getattr(plan, "analysis", None) == "sfs":
            # A warm re-solve retracts/reseeds from a stored solution; a
            # sharded run would have to split that preload across worker
            # partitions.  Collapse to the serial kernel — result-
            # identical by confluence (DESIGN.md §10) — and keep the
            # warm savings instead of the parallel speedup.
            from repro.engine.events import heal_event

            ctx.bus.emit(heal_event(self.name, "parallel", "collapse",
                                    reason="warm-start", jobs=ctx.jobs))
            return SolveStage("sfs").run(ctx)
        if ctx.resume_state is not None:
            raise AnalysisError(
                "parallel solve stages cannot resume a serial checkpoint; "
                "rerun serially (--jobs 1) to resume")
        budget = ctx.meter.budget if ctx.meter is not None else None
        result = solve_parallel(
            ctx.artifacts["svfg"], "sfs", ctx.jobs,
            budget=budget, faults=ctx.faults, mode=ctx.parallel_mode)
        if ctx.meter is not None:
            # The workers metered themselves (per-worker budgets); reflect
            # their pops into the governing meter so ladder reports and
            # stage step totals add up.
            ctx.meter.steps += result.stats.nodes_processed
        return result


#: Solve levels the engine can run (= degradation-ladder rungs).
SOLVE_LEVELS = ("andersen", "sfs", "vsfs", "icfg-fs")


def default_stages() -> Dict[str, Stage]:
    """The standard stage registry, name → stage."""
    stages: Dict[str, Stage] = {}
    for stage in (ParseStage(), PrepareStage(), AndersenStage(),
                  ModRefStage(), MemSSAStage(), SVFGStage(),
                  VersioningStage(),
                  *(SolveStage(level) for level in SOLVE_LEVELS),
                  ParallelSolveStage()):
        stages[stage.name] = stage
    return stages

"""The typed substrate stages of the analysis flow.

Each :class:`Stage` names its inputs (edges of the stage graph), whether
it is cached (``codec`` round-trips through an encoder; only Andersen's
result is cached, because only its hit skips work), and how to run it
from a :class:`~repro.engine.context.StageContext`.

The graph mirrors the paper's staging::

    parse -> prepare -> andersen -> modref -> memssa -> svfg -> versioning

Solves are not stages: :meth:`~repro.engine.engine.Engine.solve` builds
and runs the rung's solver from its own arguments, on top of these.
"""

from __future__ import annotations

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
    #: Upstream stage names, executed in order.
    inputs: Tuple[str, ...] = ()
    #: None (never cached) or "codec" (encode/decode through the cache).
    cache_mode: Optional[str] = None

    def run(self, ctx: Any) -> Any:
        raise NotImplementedError

    def steps(self, artifact: Any) -> int:
        """Solver steps the artifact embodies (0 for pure constructions)."""
        return 0

    # ---- codec mode ----

    def encode(self, artifact: Any) -> Any:
        raise NotImplementedError

    def decode(self, ctx: Any, payload: Any) -> Any:
        raise NotImplementedError


class ParseStage(Stage):
    """Source text → raw (unprepared) IR module; pass-through for a
    caller-provided module."""

    name = "parse"

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

    Its artifact is the module whose IR hash keys everything persisted
    (:meth:`~repro.engine.engine.Engine.ir_hash`), so identical IR
    reached from different source text shares every stored entry.
    """

    name = "prepare"
    inputs = ("parse",)

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

    def encode(self, artifact: Any) -> Any:
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


def default_stages() -> Dict[str, Stage]:
    """The substrate stage registry, name → stage."""
    return {stage.name: stage
            for stage in (ParseStage(), PrepareStage(), AndersenStage(),
                          ModRefStage(), MemSSAStage(), SVFGStage(),
                          VersioningStage())}

"""The single carrier of everything a stage run can depend on.

Before the engine existed, budget meters, fault plans, checkpointers and
resume state were threaded through every solver constructor as keyword
arguments.  A :class:`StageContext` replaces that plumbing: stages read
what they need from the context, and a governed solve gets a per-rung
copy (:meth:`for_solve`) with its own meter/faults/checkpointer while
sharing the artifact and fingerprint tables with the base context.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional

from repro.engine.events import EventBus


@dataclass
class StageContext:
    """Inputs, configuration and governance for one engine run.

    Exactly one of *module* (a prepared :class:`~repro.ir.module.Module`)
    or *source* (mini-C or textual IR, per *language*) must be provided;
    the parse/prepare stages turn the latter into the former.
    """

    # ---- program input ----
    module: Optional[Any] = None  # pre-built, already-prepared Module
    source: Optional[str] = None
    language: str = "c"
    # ---- parallel solving (repro.parallel) ----
    #: Worker count for the solve:*-par stages (1 = serial stages only).
    jobs: int = 1
    #: Transport override for parallel stages ("fork"/"inline"; None = auto).
    parallel_mode: Optional[str] = None
    # ---- resource governance (repro.runtime) ----
    meter: Optional[Any] = None  # BudgetMeter
    faults: Optional[Any] = None  # FaultPlan
    checkpointer: Optional[Any] = None  # Checkpointer
    resume_state: Optional[Any] = None  # checkpoint payload
    resume_step: int = 0
    # ---- function-granular incrementality (repro.incremental) ----
    #: A usable WarmPlan makes the solve rung retract/reseed only the
    #: dirty regions instead of solving cold (DESIGN.md §14).
    warm_plan: Optional[Any] = None
    #: Capture per-node memory + the solved flow graph on the result
    #: (result.incremental_capture) so the run can be stored for the
    #: next warm re-solve.
    capture_regions: bool = False
    # ---- persistence + instrumentation ----
    cache: Optional[Any] = None  # StageCache (stage-level artifact cache)
    bus: EventBus = field(default_factory=EventBus)
    #: stage name -> built artifact (in-memory memo; shared across rungs).
    artifacts: Dict[str, Any] = field(default_factory=dict)
    #: stage name -> content fingerprint (memo; shared across rungs).
    fingerprints: Dict[str, str] = field(default_factory=dict)

    def for_solve(self, **overrides: Any) -> "StageContext":
        """A per-rung view: same program, artifacts, cache and bus, with
        this rung's governance (meter/faults/checkpointer/resume) and
        solver configuration swapped in."""
        return replace(self, **overrides)

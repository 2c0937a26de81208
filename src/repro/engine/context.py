"""What a substrate stage reads.

A :class:`StageContext` holds the program, the fault plan whose
``stage_cache_read``/``stage_cache_write`` points the engine fires, the
stage cache, the event bus and the artifact memo.  A solve's governance
(meter, faults, checkpointer, resume state, warm plan, ...) is not here:
:meth:`~repro.engine.engine.Engine.solve` takes it as arguments and
hands it to the solver it builds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.engine.events import EventBus


@dataclass
class StageContext:
    """The program and the shared state of one engine.

    Exactly one of *module* (a prepared :class:`~repro.ir.module.Module`)
    or *source* (mini-C or textual IR, per *language*) must be provided;
    the parse/prepare stages turn the latter into the former.
    """

    module: Optional[Any] = None  # pre-built, already-prepared Module
    source: Optional[str] = None
    language: str = "c"
    faults: Optional[Any] = None  # FaultPlan (stage-cache points)
    cache: Optional[Any] = None  # StageCache (stage-level artifact cache)
    bus: EventBus = field(default_factory=EventBus)
    #: stage name -> built artifact (in-memory memo).
    artifacts: Dict[str, Any] = field(default_factory=dict)

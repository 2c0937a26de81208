"""The instrumented stage-graph engine behind the analysis flow.

``parse → prepare → andersen → modref → memssa → svfg → versioning`` are
the substrate stages, built by :meth:`Engine.ensure` over one
:class:`StageContext` (Andersen through the stage cache when one is
attached); :meth:`Engine.solve` builds and runs a solve rung
(``andersen``, ``sfs``, ``vsfs``, ``icfg-fs`` or ``sfs-par``) from the
governance passed to it.  :class:`~repro.pipeline.AnalysisPipeline` is a
thin compatibility shim over this package.
"""

from repro.engine.cache import STAGE_CACHE_SCHEMA, CacheProbe, StageCache
from repro.engine.context import StageContext
from repro.engine.engine import SOLVE_LEVELS, Engine
from repro.engine.events import EventBus, StageEvent, StageRecord, StageTrace
from repro.engine.stages import Stage, default_stages

__all__ = [
    "CacheProbe",
    "Engine",
    "EventBus",
    "SOLVE_LEVELS",
    "STAGE_CACHE_SCHEMA",
    "Stage",
    "StageCache",
    "StageContext",
    "StageEvent",
    "StageRecord",
    "StageTrace",
    "default_stages",
]

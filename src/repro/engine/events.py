"""Stage-graph instrumentation: events, the bus, and the trace.

The engine emits one :class:`StageEvent` stream per run —
``stage_start`` / ``stage_end`` around every stage execution, plus
``cache_hit`` (the stage was served from the stage cache) and
``artifact_bytes`` (a fresh artifact was persisted) in between.  A
:class:`StageTrace` subscriber folds the stream into ordered per-stage
records carrying wall time, solver steps, cache disposition and the
substrate-vs-main-phase flag — the breakdown behind ``repro-wpa
--trace``, the batch driver's stage totals, and the bench runner's JSON
(the paper's Table III excludes everything with ``main_phase=False``
from the timed main phase).

Every ``stage_end`` detail carries ``gc_collections``: the cyclic
collector's collections per generation (0, 1, 2) during the stage.  The
counts are read from ``gc.get_stats()`` and are process-wide, so a
daemon stage that overlaps other workers' stages includes their
collections too.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

#: Event kinds, in the order a single stage execution can emit them.
#: ``self_heal`` may appear anywhere: it records a fault that was
#: absorbed (quarantine-and-recompute, retry-and-skip, revive, collapse)
#: instead of surfacing — the degraded-not-dead audit trail.
EVENT_KINDS = ("stage_start", "cache_hit", "artifact_bytes", "self_heal",
               "stage_end")

#: ``cache`` values that mean "served from a cache" in a trace record.
CACHE_HIT_LABELS = ("codec", "result-store")


@dataclass
class StageEvent:
    """One observation from the engine; see :data:`EVENT_KINDS`."""

    kind: str
    stage: str
    wall_s: float = 0.0
    steps: int = 0
    #: None (no cache in play), "miss", or a :data:`CACHE_HIT_LABELS` entry.
    cache: Optional[str] = None
    artifact_bytes: Optional[int] = None
    #: True for solve stages (the paper's timed main phase); False for the
    #: substrate (parse/prepare/andersen/modref/memssa/svfg/versioning).
    main_phase: bool = False
    #: "ok" or the exception type name that ended the stage.
    outcome: Optional[str] = None
    #: Optional stage-specific observations (every stage attaches its
    #: collector work; solve stages add their incremental summary).
    detail: Optional[Dict[str, object]] = None


def gc_collections() -> List[int]:
    """Collections the cyclic collector has run so far, per generation
    (read-only; process-wide)."""
    return [gen["collections"] for gen in gc.get_stats()]


def gc_detail(since: List[int],
              detail: Optional[Dict[str, object]] = None) -> Dict[str, object]:
    """*detail* plus ``gc_collections``: the collections per generation
    since the :func:`gc_collections` reading *since*."""
    merged: Dict[str, object] = dict(detail or {})
    merged["gc_collections"] = [now - then for now, then
                                in zip(gc_collections(), since)]
    return merged


def heal_event(stage: str, domain: str, action: str,
               **detail: object) -> StageEvent:
    """Build a ``self_heal`` event: *domain* (fault domain the incident
    belongs to), *action* (what the healer did: ``recompute``,
    ``skip-write``, ``retry``, ``revive``, ``collapse``), plus
    free-form detail."""
    payload: Dict[str, object] = {"domain": domain, "action": action}
    payload.update({key: value for key, value in detail.items()
                    if value is not None})
    return StageEvent("self_heal", stage, detail=payload)


class EventBus:
    """Synchronous fan-out of :class:`StageEvent`\\ s to subscribers."""

    def __init__(self) -> None:
        self._subscribers: List[Callable[[StageEvent], None]] = []

    def subscribe(self, callback: Callable[[StageEvent], None]) -> None:
        self._subscribers.append(callback)

    def emit(self, event: StageEvent) -> None:
        for callback in self._subscribers:
            callback(event)


@dataclass
class StageRecord:
    """One completed stage execution, folded from its event window."""

    stage: str
    main_phase: bool = False
    wall_s: float = 0.0
    steps: int = 0
    cache: Optional[str] = None
    artifact_bytes: Optional[int] = None
    outcome: Optional[str] = None
    detail: Optional[Dict[str, object]] = None

    @property
    def cache_hit(self) -> bool:
        return self.cache in CACHE_HIT_LABELS

    def to_dict(self) -> Dict[str, object]:
        return {
            "stage": self.stage,
            "main_phase": self.main_phase,
            "wall_s": self.wall_s,
            "steps": self.steps,
            "cache": self.cache,
            "cache_hit": self.cache_hit,
            "artifact_bytes": self.artifact_bytes,
            "outcome": self.outcome,
            "detail": self.detail,
        }


class StageTrace:
    """Event-bus subscriber building the ordered per-stage breakdown."""

    def __init__(self, bus: Optional[EventBus] = None) -> None:
        self.records: List[StageRecord] = []
        #: Absorbed-fault audit trail, in emission order: one dict per
        #: ``self_heal`` event (stage + the event's detail payload).
        self.heals: List[Dict[str, object]] = []
        self._open: Dict[str, StageRecord] = {}
        if bus is not None:
            bus.subscribe(self.on_event)

    # -------------------------------------------------------------- folding

    def on_event(self, event: StageEvent) -> None:
        if event.kind == "self_heal":
            entry: Dict[str, object] = {"stage": event.stage}
            entry.update(event.detail or {})
            self.heals.append(entry)
            return
        if event.kind == "stage_start":
            self._open[event.stage] = StageRecord(
                stage=event.stage, main_phase=event.main_phase)
            return
        record = self._open.get(event.stage)
        if event.kind in ("cache_hit", "artifact_bytes"):
            if record is not None:
                if event.cache is not None:
                    record.cache = event.cache
                if event.artifact_bytes is not None:
                    record.artifact_bytes = event.artifact_bytes
            return
        if event.kind == "stage_end":
            record = self._open.pop(event.stage, None)
            if record is None:  # tolerate an end without a start
                record = StageRecord(stage=event.stage)
            record.main_phase = event.main_phase
            record.wall_s = event.wall_s
            record.steps = event.steps
            record.outcome = event.outcome
            if record.cache is None and event.cache is not None:
                record.cache = event.cache
            if event.detail is not None:
                record.detail = event.detail
            self.records.append(record)

    # ------------------------------------------------------------ observation

    def substrate_wall(self) -> float:
        """Total wall clock of non-main-phase stages (paper: excluded)."""
        return sum(r.wall_s for r in self.records if not r.main_phase)

    def main_phase_wall(self) -> float:
        return sum(r.wall_s for r in self.records if r.main_phase)

    def cache_hits(self) -> int:
        return sum(1 for r in self.records if r.cache_hit)

    def retry_attempts(self) -> int:
        """Transient-I/O retries attempted (``RetryPolicy`` re-runs that
        healed or preceded a give-up), summed across the heal trail."""
        return sum(1 for heal in self.heals if heal.get("action") == "retry")

    def retry_give_ups(self) -> int:
        """Operations abandoned after the retry budget was spent (the
        ``skip-*`` heal actions: the run continued without the write)."""
        return sum(1 for heal in self.heals
                   if str(heal.get("action", "")).startswith("skip"))

    def record_for(self, stage: str) -> Optional[StageRecord]:
        """The most recent completed record for *stage* (None if never ran)."""
        for record in reversed(self.records):
            if record.stage == stage:
                return record
        return None

    def to_dict(self) -> List[Dict[str, object]]:
        """JSON-ready record list (``--report-json``/bench/batch payloads)."""
        return [record.to_dict() for record in self.records]

    def render(self) -> str:
        """Text table for ``repro-wpa --trace``."""
        lines = ["--- stage trace ---",
                 f"{'stage':<16} {'phase':<9} {'wall':>9} {'steps':>8} "
                 f"{'cache':<12} {'bytes':>8} {'gc2':>4} outcome"]
        for record in self.records:
            phase = "main" if record.main_phase else "substrate"
            cache = record.cache or "-"
            size = str(record.artifact_bytes) if record.artifact_bytes else "-"
            detail = record.detail or {}
            collections = detail.get("gc_collections")
            gc2 = str(collections[2]) if collections else "-"
            lines.append(
                f"{record.stage:<16} {phase:<9} {record.wall_s:>8.4f}s "
                f"{record.steps:>8} {cache:<12} {size:>8} {gc2:>4} "
                f"{record.outcome or '-'}")
            incr = detail.get("incremental")
            if isinstance(incr, dict):
                if incr.get("fallback_reason"):
                    lines.append(
                        f"  {'':<14} incremental: cold "
                        f"(fallback={incr['fallback_reason']})")
                else:
                    lines.append(
                        f"  {'':<14} incremental: "
                        f"{incr.get('regions_reused', 0)}/"
                        f"{incr.get('regions_total', 0)} regions reused, "
                        f"{len(incr.get('dirty_functions', []))} dirty fn(s), "
                        f"{incr.get('steps_saved', 0)} steps saved")
        lines.append(
            f"substrate: {self.substrate_wall():.4f}s (excluded from main "
            f"phase); main phase: {self.main_phase_wall():.4f}s; "
            f"cache hits: {self.cache_hits()}")
        if self.heals:
            lines.append(
                f"resilience: {len(self.heals)} heal(s), "
                f"{self.retry_attempts()} retry attempt(s), "
                f"{self.retry_give_ups()} give-up(s)")
        return "\n".join(lines)

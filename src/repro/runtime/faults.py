"""Deterministic fault injection across every platform fault domain.

The first trigger points covered only the solver hot loops; the
resilience layer (:mod:`repro.runtime.resilience`, DESIGN.md §12) extends
the table to every layer that can fail in production.  Points are grouped
into **fault domains**:

- ``solver`` — the stage boundary and the hot spots of the solve loops
  (``pre_meld``, ``otf_edge``, ``propagate``);
- ``io`` — the on-disk substrate: stage-cache read/write, checkpoint
  write, result-store put;
- ``parallel`` — the sharded driver's transport: frontier send/recv,
  worker spawn, worker heartbeat;
- ``service`` — the always-on daemon's request path (:mod:`repro.service`):
  request decode, queue admission, worker execution, warm-cache attach.

A :class:`FaultPlan` decides, deterministically, whether a reached point
fires.  Two trigger modes: *step-indexed* (fire on the N-th hit of a
point) and *seeded probability* (a private ``random.Random(seed)`` stream,
so two plans with the same seed fire identically).  Firing raises
:class:`~repro.errors.InjectedFault` — a typed ``ReproError`` carrying the
point, stage and hit count.  What happens next depends on the domain:
solver faults surface to the degradation ladder exactly like a real
internal failure; ``io`` faults are absorbed by the self-healing wrappers
(recompute, retry, or skip — the run completes); ``parallel`` faults are
absorbed by the driver's watchdog (kill-and-revive, then collapse onto
the serial rung once the failure budget is spent); ``service`` faults
are absorbed by the daemon's admission control (typed shed/error
responses, worker revival, cache-less sessions — the daemon stays up).
The chaos harness (``repro-wpa chaos``) soaks the batch table under
seeded schedules; ``repro-wpa chaos --daemon`` soaks the service domain.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.errors import AnalysisError, InjectedFault

#: Fault domain -> its trigger points, in pipeline order.
FAULT_DOMAINS: Dict[str, Tuple[str, ...]] = {
    "solver": ("pre_meld", "otf_edge", "propagate"),
    "io": ("stage_cache_read", "stage_cache_write", "checkpoint_write",
           "result_store_put"),
    "parallel": ("worker_spawn", "worker_heartbeat",
                 "frontier_send", "frontier_recv"),
    "service": ("request_decode", "queue_admit", "worker_exec",
                "cache_attach"),
}

#: Every instrumented trigger point, in (domain, pipeline) order.
FAULT_POINTS = tuple(point for points in FAULT_DOMAINS.values()
                     for point in points)

#: One-line description per point (``repro-wpa --list-fault-points``).
FAULT_DESCRIPTIONS: Dict[str, str] = {
    "pre_meld": "start of the solve (before VSFS indexes the cached "
                "versioning / SFS seeds its worklist)",
    "otf_edge": "a new on-the-fly call edge is about to be wired into "
                "the SVFG",
    "propagate": "an indirect points-to propagation is starting",
    "stage_cache_read": "a stage-cache entry is about to be probed "
                        "(heals: quarantine + recompute)",
    "stage_cache_write": "a fresh stage artifact is about to be persisted "
                         "(heals: retry, then skip caching)",
    "checkpoint_write": "a solver checkpoint is about to be sealed to disk "
                        "(heals: retry, then skip the save)",
    "result_store_put": "a completed result is about to enter the store "
                        "(heals: retry, then skip the put)",
    "worker_spawn": "a parallel worker is about to be constructed "
                    "(heals: respawn, counted against the failure budget)",
    "worker_heartbeat": "the driver is about to wait on a worker's round "
                        "reply (fires = the worker is treated as hung: "
                        "kill-and-revive)",
    "frontier_send": "a frontier batch delivery to a worker is starting "
                     "(fires = the worker is lost: kill-and-revive)",
    "frontier_recv": "a worker's round reply is being collected "
                     "(fires = the reply is lost: kill-and-revive)",
    "request_decode": "a daemon request line/body is about to be decoded "
                      "(fires = typed error response, never a traceback "
                      "on the wire)",
    "queue_admit": "a decoded request is about to enter the admission "
                   "queue (fires = typed ServiceOverloaded shed)",
    "worker_exec": "a service worker is about to execute an admitted "
                   "request (fires = retry on a revived worker, charged "
                   "against its failure budget)",
    "cache_attach": "a program session is about to attach the warm "
                    "store/stage-cache (heals: serve cache-less)",
}


def fault_domain(point: str) -> str:
    """The domain *point* belongs to (:class:`AnalysisError` if unknown)."""
    for domain, points in FAULT_DOMAINS.items():
        if point in points:
            return domain
    raise AnalysisError(
        f"unknown fault point {point!r}; choose from {FAULT_POINTS}")


def describe_fault_points() -> str:
    """Human-readable table of every fault point, grouped by domain."""
    lines = ["--- fault points ---"]
    for domain, points in FAULT_DOMAINS.items():
        lines.append(f"[{domain}]")
        for point in points:
            lines.append(f"  {point:<18} {FAULT_DESCRIPTIONS[point]}")
    lines.append(f"{len(FAULT_POINTS)} points; inject with FaultPlan(point=...)"
                 f" or soak with `repro-wpa chaos`")
    return "\n".join(lines)


class FaultPlan:
    """Decides when an instrumented trigger point raises.

    :param point: which trigger point may fire (``"*"`` = any of them).
    :param at_hit: fire on the N-th hit (1-based) of a matching point;
        ignored when ``probability`` is given.
    :param probability: fire each matching hit with this probability,
        drawn from a ``random.Random(seed)`` stream (deterministic).
    :param seed: seed for the probability stream.
    :param once: disarm after the first firing (default) so a degraded
        re-run on a lower ladder rung — or a self-healing retry — can
        complete.

    ``hits`` counts every reached point (fired or not); ``fired`` records
    ``(point, stage, hit)`` triples for each injection, so tests can assert
    a fault actually happened rather than vacuously passing.
    """

    def __init__(self, point: str = "*", at_hit: int = 1,
                 probability: Optional[float] = None, seed: int = 0,
                 once: bool = True):
        if point != "*" and point not in FAULT_POINTS:
            raise AnalysisError(
                f"unknown fault point {point!r}; choose from {FAULT_POINTS} or '*'"
            )
        if at_hit < 1:
            raise AnalysisError(f"at_hit is 1-based, got {at_hit}")
        self.point = point
        self.at_hit = at_hit
        self.probability = probability
        self.once = once
        self._rng = random.Random(seed)
        self.hits: Dict[str, int] = {}
        self.fired: List[Tuple[str, str, int]] = []

    @property
    def domain(self) -> str:
        """Domain of the targeted point (``"*"`` for wildcard plans)."""
        return "*" if self.point == "*" else fault_domain(self.point)

    def _matches(self, point: str) -> bool:
        return self.point == "*" or self.point == point

    def fire(self, point: str, stage: str = "") -> None:
        """Record a reached trigger point; raise if the plan says so."""
        hit = self.hits.get(point, 0) + 1
        self.hits[point] = hit
        if not self._matches(point) or (self.once and self.fired):
            return
        if self.probability is not None:
            trigger = self._rng.random() < self.probability
        else:
            trigger = hit == self.at_hit
        if trigger:
            self.fired.append((point, stage, hit))
            raise InjectedFault(point=point, stage=stage, hit=hit)

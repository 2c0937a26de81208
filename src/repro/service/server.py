"""The analysis service: warm program sessions behind supervised execution.

:class:`AnalysisService` is the daemon's core, transport-agnostic: feed it
raw request lines (or dicts) and it produces typed responses.  One instance
owns

- the **warm substrate** — a result store, stage cache and warm slot
  shared by every program session (the same directory layout
  ``repro-wpa --store`` uses, and the same stored solve,
  :func:`repro.pipeline.solve_stored`, so the daemon and the batch CLI
  interconvert freely: a warm restart recovers from the on-disk stores
  and answers **bit-identically** to a cold batch run);
- an LRU of **program sessions** (:class:`ProgramSession`): parsed IR +
  primed engine per distinct source, so repeat queries against the same
  program skip straight to the client analysis;
- the **admission queue**, **worker pool** and **breaker board** that
  keep the process healthy under overload, bad requests, faults and
  hangs (see the sibling modules).

Request lifecycle: decode → admit → (worker) deadline check → breaker
plan → session solve under a wall-clock budget → client-op dispatch →
breaker record → typed response.  Every failure mode on that path has a
typed response; nothing escapes as a traceback.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.errors import (
    DeadlineExceeded,
    InjectedFault,
    InvalidRequest,
    ReproError,
    ServiceOverloaded,
)
from repro.pipeline import AnalysisPipeline, solve_stored
from repro.runtime.budget import Budget
from repro.service.admission import AdmissionQueue, TenantPolicy
from repro.service.breaker import BreakerBoard
from repro.service.protocol import (
    QUERY_OPS,
    Request,
    Response,
    decode_request,
    error_response,
)
from repro.service.workers import Ticket, WorkerPool
from repro.store.atomic import enc_mask_list

#: Extra wait the synchronous submit path allows past the request
#: deadline before giving up on the worker pool (covers the hang
#: watchdog's grace period plus scheduling slack).
REPLY_SLACK_S = 5.0


def program_key(source: str, language: str) -> str:
    """Stable fingerprint of a program text (session/breaker key)."""
    digest = hashlib.sha256()
    digest.update(language.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(source.encode("utf-8"))
    return digest.hexdigest()[:16]


@dataclass
class ServiceConfig:
    """Everything tunable about one daemon instance."""

    #: Durable substrate directory (results, stage cache); None
    #: runs fully in-memory (no warm restart).
    store_dir: Optional[str] = None
    queue_depth: int = 64
    workers: int = 2
    #: Warm program sessions kept (LRU eviction beyond this).
    max_programs: int = 8
    #: Deadline applied to requests that do not carry one (None = none).
    default_deadline_s: Optional[float] = 30.0
    tenants: Dict[str, TenantPolicy] = field(default_factory=dict)
    default_policy: TenantPolicy = field(default_factory=TenantPolicy)
    breaker_threshold: int = 3
    breaker_cooldown_s: float = 30.0
    faults: Any = None


class ProgramSession:
    """One warm program: parsed IR, primed engine, memoised results."""

    def __init__(self, key: str, source: str, language: str,
                 config: ServiceConfig, store: Any):
        self.key = key
        self.lock = threading.Lock()
        self.heals = 0
        self.cacheless = False
        cache = None
        if store is not None:
            try:
                if config.faults is not None:
                    config.faults.fire("cache_attach", stage="service")
                from repro.engine import StageCache

                cache = StageCache(os.path.join(config.store_dir, "stages"))
            except InjectedFault:
                # Degraded-not-dead: serve this program cache-less (every
                # query recomputes) instead of refusing it.
                self.cacheless = True
                self.heals += 1
        self.pipeline = AnalysisPipeline.from_source(
            source, language=language, cache=cache)
        self.module = self.pipeline.module
        #: Clean (full-precision) results memoised per analysis.
        self.results: Dict[str, Any] = {}


class AnalysisService:
    """Transport-agnostic daemon core; see module docstring."""

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        self.store = None
        if self.config.store_dir:
            from repro.store import ResultStore

            self.store = ResultStore(self.config.store_dir)
        # Latest-solution slots for the function-granular incremental
        # path (DESIGN.md §14): on disk next to the result store so a
        # warm restart keeps them, in memory otherwise.  Shared across
        # sessions deliberately — an ``update_source`` request plans its
        # dirty closure against the *previous* program's solution.
        from repro.incremental import IncrementalStore

        self.incremental = IncrementalStore(
            os.path.join(self.config.store_dir, "incremental")
            if self.config.store_dir else None)
        self.queue = AdmissionQueue(
            depth=self.config.queue_depth, tenants=self.config.tenants,
            default_policy=self.config.default_policy,
            faults=self.config.faults)
        self.breakers = BreakerBoard(self.config.breaker_threshold,
                                     self.config.breaker_cooldown_s)
        self.pool = WorkerPool(self.queue, self._handle_ticket,
                               size=self.config.workers,
                               faults=self.config.faults)
        self._sessions: "OrderedDict[str, ProgramSession]" = OrderedDict()
        self._sessions_lock = threading.Lock()
        self._drained = threading.Event()
        self.started_at = time.monotonic()
        self.requests = 0
        self.decode_errors = 0

    # -------------------------------------------------------------- lifecycle

    def start(self) -> "AnalysisService":
        self.pool.start()
        return self

    def drain(self, reply_grace_s: float = 30.0) -> None:
        """Graceful shutdown: finish in-flight work, shed the queue typed.

        Safe to call more than once (SIGTERM plus a ``drain`` op).
        """
        if self._drained.is_set():
            return
        self._drained.set()
        for ticket in self.queue.drain():
            request = ticket.request
            ticket.resolve(error_response(
                request.id, request.op,
                ServiceOverloaded(
                    "service is draining; request evicted from the queue",
                    retry_after_s=1.0, draining=True)))
        deadline = time.monotonic() + reply_grace_s
        while not self.pool.idle() and time.monotonic() < deadline:
            time.sleep(0.02)
        self.pool.stop(timeout=max(0.0, deadline - time.monotonic()))

    @property
    def draining(self) -> bool:
        return self._drained.is_set()

    # ------------------------------------------------------------- submission

    def submit(self, raw: Any) -> "Ticket | Response":
        """Decode and admit *raw*; control ops answer immediately.

        Returns a :class:`Ticket` (await it) for query ops, or a ready
        :class:`Response` for control ops and every typed rejection.
        """
        self.requests += 1
        start = time.monotonic()
        try:
            request = decode_request(raw, faults=self.config.faults)
        except ReproError as err:
            self.decode_errors += 1
            rid = raw.get("id", "") if isinstance(raw, dict) else ""
            op = raw.get("op", "") if isinstance(raw, dict) else ""
            return error_response(str(rid), str(op), err,
                                  elapsed_s=time.monotonic() - start)
        if request.op == "ping":
            return Response(id=request.id, op="ping",
                            result={"pong": True, "draining": self.draining},
                            elapsed_s=time.monotonic() - start)
        if request.op == "stats":
            return Response(id=request.id, op="stats", result=self.stats(),
                            elapsed_s=time.monotonic() - start)
        if request.op == "drain":
            # Kick the drain off-thread: the caller gets its ack even
            # though drain waits for in-flight work (possibly its own
            # transport's).
            threading.Thread(target=self.drain, daemon=True,
                             name="repro-svc-drain").start()
            return Response(id=request.id, op="drain",
                            result={"draining": True},
                            elapsed_s=time.monotonic() - start)
        # Query op: clamp the deadline by tenant policy, then admit.
        policy = self.queue.policy_for(request.tenant)
        if request.deadline_s is None:
            request.deadline_s = self.config.default_deadline_s
        request.deadline_s = policy.clamp_deadline(request.deadline_s)
        ticket = Ticket(request)
        try:
            self.queue.admit(ticket)
        except ServiceOverloaded as err:
            return error_response(request.id, request.op, err,
                                  elapsed_s=time.monotonic() - start)
        return ticket

    def handle_line(self, raw: Any) -> Response:
        """Synchronous request→response (the transports' entry point)."""
        outcome = self.submit(raw)
        if isinstance(outcome, Response):
            return outcome
        deadline = outcome.request.deadline_s
        timeout = None if deadline is None else deadline + REPLY_SLACK_S
        response = outcome.wait(timeout)
        if response is not None:
            return response
        # The pool never answered inside the allowance — the watchdog
        # should have caught this; answer typed rather than hang the
        # transport.
        return error_response(
            outcome.request.id, outcome.request.op,
            DeadlineExceeded("no worker reply within the deadline",
                             deadline_s=deadline or 0.0, phase="execute"))

    # -------------------------------------------------------------- execution

    def _session(self, request: Request) -> ProgramSession:
        key = program_key(request.program, request.language)
        with self._sessions_lock:
            session = self._sessions.get(key)
            if session is not None:
                self._sessions.move_to_end(key)
                return session
        # Parse outside the registry lock (it can be slow); a racing
        # duplicate build is harmless — last one wins the slot.
        session = ProgramSession(key, request.program, request.language,
                                 self.config, self.store)
        with self._sessions_lock:
            self._sessions[key] = session
            self._sessions.move_to_end(key)
            while len(self._sessions) > self.config.max_programs:
                self._sessions.popitem(last=False)
        return session

    def _handle_ticket(self, ticket: Ticket) -> Response:
        """Worker-side execution of one admitted query request."""
        request = ticket.request
        start = time.monotonic()
        remaining = ticket.remaining(start)
        if remaining is not None and remaining <= 0:
            raise DeadlineExceeded(
                f"deadline ({request.deadline_s:g}s) expired while queued",
                deadline_s=request.deadline_s, phase="queue")
        session = self._session(request)
        effective, probe, breaker = self.breakers.plan(
            request.tenant, session.key, request.analysis)
        pinned = effective != request.analysis
        try:
            with session.lock:
                result, cached, heals = self._solve(
                    session, effective, ticket.remaining())
                payload = self._dispatch(session, request, result)
        except ReproError:
            self.breakers.record(breaker, False, probe=probe)
            raise
        report = getattr(result, "report", None)
        precision_lost = bool(report.precision_lost if report is not None
                              else False)
        success = not precision_lost and not pinned
        self.breakers.record(breaker, not precision_lost, probe=probe)
        level = getattr(result, "precision_level", None) or effective
        degraded_from = getattr(result, "degraded_from", None)
        if pinned:
            degraded_from = request.analysis
        return Response(
            id=request.id, op=request.op, result=payload,
            precision_level=level,
            degraded_from=degraded_from if not success else None,
            precision_lost=precision_lost or pinned,
            heals=heals + session.heals,
            cached=cached,
            elapsed_s=time.monotonic() - start)

    def _solve(self, session: ProgramSession, analysis: str,
               remaining: Optional[float]) -> Tuple[Any, bool, int]:
        """Solve (or reuse) *analysis* for the session under its deadline.

        Returns ``(result, cached, heals)`` — heals counts absorbed
        faults on this solve path only: the heal trail the stored solve
        left on the session's trace, plus every ladder rung that failed.
        """
        memo = session.results.get(analysis)
        if memo is not None:
            return memo, True, 0
        budget = None
        if remaining is not None:
            budget = Budget(wall_seconds=max(remaining, 0.001))
        trail = session.pipeline.trace.heals
        trail_before = len(trail)
        # Every staged solve plans from, and then refreshes, the
        # service-wide warm slot — so an ``update_source`` after any
        # solved program answers from the warm path.
        result, cached = solve_stored(
            session.pipeline, analysis,
            store=None if session.cacheless else self.store,
            incremental=self.incremental, budget=budget,
            faults=self.config.faults)
        heals = len(trail) - trail_before
        if cached:
            session.results[analysis] = result
            return result, True, heals
        report = result.report
        heals += sum(1 for a in report.attempts if a.outcome != "completed")
        if not report.precision_lost:
            session.results[analysis] = result
        return result, False, heals

    def _dispatch(self, session: ProgramSession, request: Request,
                  result: Any) -> Dict[str, Any]:
        """Turn a solved result into the op's wire payload."""
        module = session.module
        if request.op in ("analyze", "update_source"):
            masks = list(getattr(result, "_pt", []) or [])
            payload = {
                "analysis": request.analysis,
                "variables": [var.name for var in module.variables],
                "masks": enc_mask_list(masks),
                "objects": [obj.name for obj in module.objects],
            }
            if request.op == "update_source":
                incr = getattr(result, "incremental", None)
                payload["incremental"] = (incr.to_dict()
                                          if incr is not None else None)
            return payload
        if request.op == "alias":
            from repro.clients.aliases import AliasOracle

            a = self._variable(module, request.params["a"])
            b = self._variable(module, request.params["b"])
            oracle = AliasOracle(module, result)
            return {
                "a": request.params["a"],
                "b": request.params["b"],
                "may_alias": bool(oracle.may_alias(a, b)),
                "pointees_a": sorted(o.name for o in oracle.pointees(a)),
                "pointees_b": sorted(o.name for o in oracle.pointees(b)),
            }
        if request.op == "nullderef":
            from repro.clients.nullderef import find_null_derefs

            report = find_null_derefs(module, result,
                                      session.pipeline.andersen())
            return {
                "count": len(report),
                "flow_sensitive_only": len(report.flow_sensitive_only()),
                "warnings": [w.describe() for w in report],
            }
        if request.op == "slice":
            from repro.clients.slicer import ValueFlowSlicer

            var = self._variable(module, request.params["var"])
            slicer = ValueFlowSlicer(session.pipeline.svfg())
            node = slicer.node_for_variable(var)
            if node is None:
                raise InvalidRequest(
                    f"variable {request.params['var']!r} has no defining "
                    f"SVFG node (not a pointer definition?)")
            direction = request.params.get("direction", "backward")
            nodes = (slicer.backward_slice(node) if direction == "backward"
                     else slicer.forward_slice(node))
            return {
                "var": request.params["var"],
                "direction": direction,
                "nodes": sorted(nodes),
                "instructions": slicer.describe(nodes).splitlines(),
            }
        raise InvalidRequest(f"op {request.op!r} is not a query op")

    @staticmethod
    def _variable(module: Any, name: str) -> Any:
        """Resolve a wire variable name; typed error when unknown.

        Top-level variables are post-SSA (the names ``--dump-pts``
        prints); a bare source name also matches its SSA versions
        (``name.…``), resolving to the last (merged) one.
        """
        matches = [v for v in module.variables if v.name == name]
        if not matches:
            matches = [v for v in module.variables
                       if v.name.startswith(name + ".")]
        if not matches:
            known = sorted({v.name for v in module.variables})[:20]
            raise InvalidRequest(
                f"unknown variable {name!r}; program defines e.g. {known}")
        return matches[-1]

    # ------------------------------------------------------------------ stats

    def stats(self) -> Dict[str, Any]:
        with self._sessions_lock:
            sessions = len(self._sessions)
            cacheless = sum(1 for s in self._sessions.values() if s.cacheless)
        return {
            "uptime_s": round(time.monotonic() - self.started_at, 3),
            "requests": self.requests,
            "decode_errors": self.decode_errors,
            "draining": self.draining,
            "sessions": {"warm": sessions, "cacheless": cacheless,
                         "max": self.config.max_programs},
            "queue": self.queue.stats(),
            "workers": self.pool.stats(),
            "breakers": self.breakers.stats(),
            "store": {"enabled": self.store is not None,
                      "dir": self.config.store_dir},
        }


# QUERY_OPS is re-exported for transports that want to pre-validate.
__all__ = ["AnalysisService", "ProgramSession", "ServiceConfig",
           "QUERY_OPS", "program_key"]

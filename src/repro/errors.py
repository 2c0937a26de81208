"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without also catching programming errors.
The CLI maps the hierarchy onto exit codes: I/O problems are 1, front-end
failures (:class:`ParseError`, :class:`IRError`) are 2, and analysis-time
failures (:class:`AnalysisError` and below, including budget exhaustion and
injected faults) are 3.
"""

from __future__ import annotations

from typing import Optional, Tuple


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class IRError(ReproError):
    """Raised when an IR module is malformed (verifier failures, bad builder use)."""


class ParseError(ReproError):
    """Raised by the mini-C frontend and the textual IR parser.

    Carries the source position of the offending token when available:
    ``line``/``column`` (0 = unknown), the combined ``pos`` pair, and
    ``raw_message`` — the message without the position prefix, so callers
    that format positions themselves (CLI, reports) never double-prefix.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        self.raw_message = message
        if line or column:
            message = f"{line}:{column}: {message}"
        super().__init__(message)

    @property
    def pos(self) -> Tuple[int, int]:
        """``(line, column)`` of the offending token (0 = unknown)."""
        return (self.line, self.column)


class AnalysisError(ReproError):
    """Raised when an analysis is mis-configured or run out of order."""


class SolverError(AnalysisError):
    """Raised when a points-to solver detects an internal inconsistency."""


class CheckpointError(AnalysisError):
    """A persisted artifact (checkpoint or result-store entry) was rejected.

    Raised — instead of ``json``/``KeyError``/``ValueError`` tracebacks — for
    every way a file on disk can fail to be trustworthy: unreadable or
    truncated bytes, checksum mismatches, an unknown schema version, a
    manifest recorded for a different program (IR hash) or solver
    configuration, or a payload whose shape does not match what the solver
    expects.  ``reason`` is a stable machine-readable tag:

    - ``"missing"``: the file does not exist or cannot be read;
    - ``"corrupt"``: undecodable, truncated, checksum mismatch, or a
      well-formed file whose payload does not restore cleanly;
    - ``"schema"``: a schema version this build does not understand;
    - ``"kind"``: the sealed file is of a different artifact type;
    - ``"ir-mismatch"``: recorded for a different program (IR content hash);
    - ``"config-mismatch"``: recorded for a different solver, stage or
      ladder.

    The CLI maps it (like every :class:`AnalysisError`) to exit code 3 and
    never loads the rejected state.
    """

    def __init__(self, message: str, reason: str = "corrupt",
                 path: Optional[str] = None):
        self.reason = reason
        self.path = path
        if path:
            message = f"{path}: {message}"
        super().__init__(message)


class BudgetExceeded(AnalysisError):
    """A governed run exhausted its :class:`repro.runtime.budget.Budget`.

    Raised cooperatively at worklist-pop granularity by every solver.  The
    raising solver :meth:`attach`\\ es its context, so a caller holding the
    exception can observe what was abandoned:

    - ``resource``: which budget dimension ran out (``"wall"``, ``"steps"``
      or ``"memory"``), with ``limit`` and ``used`` quantifying it;
    - ``stage``: the analysis that was interrupted (``"vsfs"``, ``"sfs"``,
      ``"andersen"``, ``"icfg-fs"``);
    - ``stats``: the solver's counters at the moment of interruption;
    - ``partial_result``: the partially-solved state.  **Diagnostic only**
      — a partial fixpoint under-approximates the converged may-analysis
      and must never be consumed as a sound result; the degradation ladder
      (:mod:`repro.runtime.degrade`) exists to produce sound answers.
    """

    def __init__(self, message: str, resource: str = "", limit=None, used=None):
        super().__init__(message)
        self.resource = resource
        self.limit = limit
        self.used = used
        self.stage: Optional[str] = None
        self.stats = None
        self.partial_result = None
        self.run_report = None  # filled by the degradation ladder on re-raise
        #: Path of the checkpoint written when the budget tripped (None when
        #: the run was not checkpointed) — the handle a supervisor resumes from.
        self.checkpoint_path: Optional[str] = None

    def attach(self, stage: Optional[str] = None, stats=None,
               partial_result=None) -> "BudgetExceeded":
        """Record solver context; first writer wins (the innermost stage)."""
        if stage is not None and self.stage is None:
            self.stage = stage
        if stats is not None and self.stats is None:
            self.stats = stats
        if partial_result is not None and self.partial_result is None:
            self.partial_result = partial_result
        return self


class ServiceError(ReproError):
    """Base class for typed failures of the analysis daemon (`repro-wpa
    serve`).

    Every request the service cannot answer gets one of these — encoded
    as a typed error *response* on the wire, never a dropped connection
    or a traceback.  The subclasses map onto the admission-control
    contract: :class:`InvalidRequest` (the request itself is bad),
    :class:`ServiceOverloaded` (load was shed; retry after the hinted
    delay), :class:`DeadlineExceeded` (the request's deadline passed
    before an answer was ready).
    """


class InvalidRequest(ServiceError):
    """A service request that cannot be decoded or names an unknown
    operation/analysis/variable.  Deterministic: retrying the identical
    request cannot help, so clients must not."""


class ServiceOverloaded(ServiceError):
    """The admission queue shed this request (bounded-queue overflow, a
    tenant over its queued quota, or a draining server).

    ``retry_after_s`` is the backoff hint encoded in the response; the
    queue stays bounded so an overloaded daemon degrades by shedding,
    never by growing without limit.
    """

    def __init__(self, message: str, retry_after_s: float = 0.5,
                 draining: bool = False):
        self.retry_after_s = retry_after_s
        self.draining = draining
        super().__init__(message)


class DeadlineExceeded(ServiceError):
    """A request's deadline expired — in the queue or mid-execution.

    The solve itself is interrupted cooperatively (the deadline becomes
    the wall-clock :class:`~repro.runtime.budget.Budget` of the run), so
    a late request costs bounded work, and the typed response tells the
    client exactly which phase timed out.
    """

    def __init__(self, message: str, deadline_s: float = 0.0,
                 phase: str = "queue"):
        self.deadline_s = deadline_s
        self.phase = phase  # "queue" | "execute"
        super().__init__(message)


class WorkerCrash(SolverError):
    """A parallel worker slot spent its failure budget.

    The driver's watchdog kills and revives workers that die, hang past
    the heartbeat timeout, or lose a frontier exchange; each incident
    charges that worker's failure budget.  When the budget is spent the
    driver aborts the parallel rung with this error so the degradation
    ladder collapses onto the serial twin (``sfs-par → sfs``; VSFS is
    never sharded) — same precision, bit-identical results, tagged
    ``degraded_from`` in the run report.
    """

    def __init__(self, message: str, worker: int = -1, failures: int = 0,
                 incident: str = ""):
        self.worker = worker
        self.failures = failures
        #: What spent the last budget unit: "died", "hung", "spawn",
        #: "frontier-send", "frontier-recv".
        self.incident = incident
        self.run_report = None  # filled by the degradation ladder on re-raise
        super().__init__(message)


class InjectedFault(SolverError):
    """A deterministic fault fired by :mod:`repro.runtime.faults`.

    Carries full stage context so tests can prove that faults never escape
    as untyped exceptions: ``point`` is the instrumented trigger point
    (one of :data:`repro.runtime.faults.FAULT_POINTS` — solver, I/O and
    parallel domains), ``stage`` the analysis it fired inside, and
    ``hit`` the 1-based count of times that point had been reached.
    """

    def __init__(self, point: str = "", stage: str = "", hit: int = 0):
        self.point = point
        self.stage = stage
        self.hit = hit
        self.run_report = None  # filled by the degradation ladder on re-raise
        super().__init__(
            f"injected fault at {point!r} (hit #{hit}, stage {stage or 'unknown'})"
        )

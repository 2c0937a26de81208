"""``repro.service`` — the always-on analysis daemon (``repro-wpa serve``).

ROADMAP item 2's server half: a long-running supervised process that
keeps the stage cache and result store warm between queries,
so IDE-latency alias/null-deref/slice lookups (:mod:`repro.clients`) hit
a hot substrate instead of paying a cold batch run per question.  The
paper's amortisation argument (and the CFG-free/MDE follow-ups in
PAPERS.md) only pays off if the warm process survives bad requests,
overload and crashes — so robustness is the architecture:

- **Typed wire protocol** (:mod:`repro.service.protocol`): JSONL
  requests/responses over stdio or localhost HTTP; every failure is a
  typed error response, never a dropped connection.
- **Admission control** (:mod:`repro.service.admission`): a bounded
  queue that sheds load with ``ServiceOverloaded`` + retry-after hints
  — memory use is bounded by construction — plus per-tenant queued
  quotas and per-request deadlines that become wall-clock
  :class:`~repro.runtime.budget.Budget`\\ s on the solve.
- **Circuit breakers** (:mod:`repro.service.breaker`): a per
  (tenant, program) breaker pins repeat offenders to a cheaper ladder
  rung; half-open probes restore full precision when the program
  behaves again.
- **Supervised workers** (:mod:`repro.service.workers`): request
  execution on a heartbeat-monitored pool with kill-and-revive and
  per-slot failure budgets, borrowed from the parallel watchdog.
- **Graceful drain + warm restart** (:mod:`repro.service.server`):
  SIGTERM finishes in-flight requests and sheds the queue with
  retry-after; every durable artifact lives in the content-addressed
  store and stage cache, so a restarted daemon answers bit-identically
  to a cold batch run.

``repro-wpa chaos --daemon`` soaks the whole request path under the
``service`` fault domain; every injected fault must classify as
shed / degraded / healed / typed-failure — garbage fails the soak.
"""

from repro.service.admission import AdmissionQueue, TenantPolicy
from repro.service.breaker import BreakerBoard, CircuitBreaker
from repro.service.protocol import (
    OPS,
    Request,
    Response,
    decode_request,
    error_response,
)
from repro.service.server import AnalysisService, ServiceConfig
from repro.service.workers import WorkerPool

__all__ = [
    "AdmissionQueue",
    "AnalysisService",
    "BreakerBoard",
    "CircuitBreaker",
    "OPS",
    "Request",
    "Response",
    "ServiceConfig",
    "TenantPolicy",
    "WorkerPool",
    "decode_request",
    "error_response",
]

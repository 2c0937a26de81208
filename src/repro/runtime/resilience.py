"""Shared self-healing policy: retries with deterministic seeded jitter.

Every layer that talks to a fallible medium — the stage cache, the
checkpointer, the result store and warm slot, the batch supervisor —
shares one :class:`RetryPolicy` shape instead of growing its own ad-hoc
backoff loop.  Three properties the platform depends on:

- **Capped exponential backoff.**  ``base_delay * multiplier**n``, capped
  at ``max_delay`` when one is set, so a retry storm cannot stretch into
  unbounded sleeps.
- **Deterministic seeded jitter.**  Without jitter, every worker that
  failed at the same instant retries at the same instant (``repro-wpa
  batch --jobs N`` historically woke all its backoff sleeps
  simultaneously).  The jitter here is *subtractive* (``delay * (1 -
  jitter * u)``) so the cap still bounds the worst case, and ``u`` is
  drawn from a stream keyed by ``(seed, attempt)`` — the same policy
  produces the same schedule every run, which is what keeps chaos
  schedules and tests reproducible.
- **Typed retry filters.**  :meth:`run` retries only the exception types
  the caller names (transient I/O: ``OSError``; injected chaos:
  :class:`~repro.errors.InjectedFault`) and re-raises everything else
  untouched — a retry loop must never swallow a genuine logic error.

:data:`IO_RETRY` is the one in-process write policy: the engine's
stage-cache writes, the checkpointer's saves, and the result-store puts
and warm-slot saves of :func:`repro.pipeline.solve_stored` all run under
it, retry on ``(OSError, InjectedFault)`` with a ``retry`` heal each
time, and then give up with a ``skip-write`` heal.  There is no
per-caller override.  The batch supervisor builds per-program policies
seeded from each program's path so concurrent programs spread their
wakeups deterministically.
"""

from __future__ import annotations

import random
import time
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional, Tuple, Type


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with deterministic seeded jitter.

    ``attempt`` is 1-based everywhere: ``delay(1)`` is the sleep after the
    first failure.  ``jitter`` is the fraction of each delay that is
    randomised away (0 = fixed schedule, 0.5 = up to half), drawn
    deterministically from ``seed`` — two policies with equal fields
    produce bit-equal schedules.
    """

    retries: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: Optional[float] = 2.0
    jitter: float = 0.25
    seed: int = 0

    def delay(self, attempt: int) -> float:
        """Sleep (seconds) after the *attempt*-th failure (1-based)."""
        if attempt < 1:
            from repro.errors import AnalysisError

            raise AnalysisError(f"attempt is 1-based, got {attempt}")
        backoff = self.base_delay * self.multiplier ** (attempt - 1)
        if self.max_delay is not None:
            backoff = min(backoff, self.max_delay)
        if not self.jitter:
            return backoff
        # Keyed stream, not a shared one: delay(n) is a pure function of
        # (policy, n), so concurrent consumers and resumed runs agree.
        u = random.Random(self.seed * 1000003 + attempt).random()
        return backoff * (1.0 - self.jitter * u)

    def delays(self) -> Iterator[float]:
        """The full deterministic schedule, one delay per allowed retry."""
        for attempt in range(1, self.retries + 1):
            yield self.delay(attempt)

    def run(self, fn: Callable[[], Any], *,
            retry_on: Tuple[Type[BaseException], ...] = (OSError,),
            sleep: Callable[[float], None] = time.sleep,
            on_retry: Optional[Callable[[int, BaseException], None]] = None
            ) -> Any:
        """Call *fn*, retrying ``retry_on`` failures up to ``retries`` times.

        Exhausting the budget re-raises the last failure; exceptions not
        in ``retry_on`` propagate immediately.  ``on_retry(attempt, exc)``
        observes each retry (diagnostics/self-heal events).
        """
        attempt = 0
        while True:
            try:
                return fn()
            except retry_on as exc:
                attempt += 1
                if attempt > self.retries:
                    raise
                if on_retry is not None:
                    on_retry(attempt, exc)
                sleep(self.delay(attempt))

    def seeded_for(self, token: str) -> "RetryPolicy":
        """The same policy with a seed derived from *token* (stable hash).

        The batch supervisor keys each program's schedule off its file
        path: deterministic per program, spread across programs.
        """
        derived = zlib.crc32(token.encode("utf-8")) ^ self.seed
        return RetryPolicy(retries=self.retries, base_delay=self.base_delay,
                           multiplier=self.multiplier,
                           max_delay=self.max_delay, jitter=self.jitter,
                           seed=derived)


#: Policy of the in-process transient-I/O wrappers (stage-cache writes,
#: checkpoint saves, result-store puts, warm-slot saves).  Delays are
#: tiny: these retries sit inside a solve, so healing must cost
#: milliseconds, not seconds.
IO_RETRY = RetryPolicy(retries=2, base_delay=0.01, max_delay=0.1,
                       jitter=0.5, seed=0)

#: Default per-worker failure budget of the parallel watchdog: how many
#: times one worker slot may die/hang/lose a frontier exchange before the
#: driver collapses the parallel rung onto the serial ladder.
DEFAULT_WORKER_FAILURE_BUDGET = 3

#: Default heartbeat timeout (seconds) the watchdog allows a forked
#: worker per round before treating it as hung.  In-process workers
#: cannot hang independently, so the timeout applies to fork transport.
DEFAULT_HEARTBEAT_SECONDS = 120.0

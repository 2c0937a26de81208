"""Measurement helpers for the benchmark harness.

The paper measures wall-clock seconds (C ``clock``) and maximum resident
size (GNU ``time``).  A Python reproduction's absolute numbers mean little,
so each measurement records three levels of evidence:

- wall-clock time of the measured phase (comparable within this repo);
- ``tracemalloc`` peak bytes during the phase (the "memory" column);
- the solver's own counters (propagations, stored sets, set bits) — the
  hardware-independent quantities the paper's speedups are made of.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.solvers.base import SolverStats


@dataclass
class BenchmarkMeasurement:
    """One analysis run on one program."""

    analysis: str
    wall_time: float
    peak_bytes: int
    stats: Optional[SolverStats] = None
    #: RunReport when the run was governed (budgets / degradation ladder).
    report: Optional[object] = None

    @property
    def propagations(self) -> int:
        return self.stats.propagations if self.stats else 0

    @property
    def stored_ptsets(self) -> int:
        return self.stats.stored_ptsets if self.stats else 0

    @property
    def unions(self) -> int:
        """Set-union operations applied during the solve."""
        return self.stats.unions if self.stats else 0

    @property
    def unique_ptsets(self) -> int:
        """Distinct points-to sets behind the stored references."""
        return self.stats.unique_ptsets if self.stats else 0

    @property
    def dedup_ratio(self) -> float:
        """Stored references per distinct set (1.0 = no sharing)."""
        return self.stats.dedup_ratio() if self.stats else 0.0


def measure_analysis(
    label: str,
    thunk: Callable[[], object],
    memory_thunk: Optional[Callable[[], object]] = None,
) -> BenchmarkMeasurement:
    """Measure *thunk*: wall time untraced, then memory under tracemalloc.

    tracemalloc slows allocation-heavy code several-fold, so (like the
    paper, which also uses separate runs for time and memory) timing and
    memory use **separate runs**: *thunk* is timed without tracing and
    *memory_thunk* (a fresh, equivalent run; defaults to *thunk*) provides
    the traced peak.
    """
    start = time.perf_counter()
    result = thunk()
    wall = time.perf_counter() - start

    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    (memory_thunk or thunk)()
    __, peak = tracemalloc.get_traced_memory()
    if not was_tracing:
        tracemalloc.stop()

    stats = getattr(result, "stats", None)
    return BenchmarkMeasurement(
        analysis=label,
        wall_time=wall,
        peak_bytes=peak,
        stats=stats if isinstance(stats, SolverStats) else None,
        report=getattr(result, "report", None),
    )

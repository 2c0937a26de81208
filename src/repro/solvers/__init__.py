"""Flow-sensitive points-to solvers.

- :mod:`repro.solvers.base` — machinery shared by SFS and VSFS: top-level
  (direct) propagation, on-the-fly call graph resolution, statistics.
- :mod:`repro.solvers.sfs` — staged flow-sensitive analysis (Hardekopf &
  Lin), the paper's baseline: per-node IN/OUT maps on the SVFG.
- :mod:`repro.solvers.icfg_fs` — classic iterative dataflow flow-sensitive
  analysis on the interprocedural CFG (§IV-A); precision ground truth for
  tests (slow, small programs only).

The paper's solver, VSFS, lives in :mod:`repro.core.vsfs`.
"""

from repro.solvers.base import FlowSensitiveResult, SolverStats
from repro.solvers.sfs import SFSAnalysis
from repro.solvers.icfg_fs import ICFGFlowSensitive, run_icfg_fs

__all__ = [
    "SolverStats",
    "FlowSensitiveResult",
    "SFSAnalysis",
    "ICFGFlowSensitive",
    "run_icfg_fs",
]

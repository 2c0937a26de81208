"""Function-granular incremental invalidation (DESIGN.md §14).

The unit of invalidation is the **function**, not the module: the IR
layer hashes every function independently
(:mod:`repro.ir.fingerprint`), :mod:`repro.incremental.deps` grows an
edit into its *dirty closure* over the SVFG,
per-function region digests (:mod:`repro.incremental.regions`) certify
that a nominally-clean region's analysis substrate really is unchanged,
and :mod:`repro.incremental.solution` stores one solved program in a
stable entity-key space so a warm re-solve can retract and reseed only
the dirty regions — verified bit-identical to a cold run.
"""

from repro.incremental.deps import (
    node_dirty_closure,
    node_flow_graph,
    potential_call_adjacency,
)
from repro.incremental.regions import region_digests
from repro.incremental.solution import (
    IncrStats,
    IncrementalStore,
    WarmPlan,
    build_payload,
    plan_warm,
)

__all__ = [
    "IncrStats",
    "IncrementalStore",
    "WarmPlan",
    "build_payload",
    "node_dirty_closure",
    "node_flow_graph",
    "plan_warm",
    "potential_call_adjacency",
    "region_digests",
]

"""Parallel sharded solving: SCC-condensed SVFG regions on workers.

The SVFG is condensed into its strongly-connected components
(:func:`repro.datastructs.graph.condensation`), the component DAG is cut
into contiguous topological segments ("shards"), and contiguous shard
ranges are assigned to workers.  Each worker runs the ordinary staged
SFS solver restricted to the nodes it owns; information that
crosses a worker boundary travels as *frontier deltas* — dense PTRepo
set ids plus an interner delta-table, never raw points-to sets — which
the driver routes between workers in rounds until a global fixpoint.

Because SFS is confluent (DESIGN.md §10), the sharded schedule reaches
the exact same least fixpoint as any serial schedule: parallel results
are bit-identical to serial ones.  VSFS is not sharded; ``--jobs`` runs
it serially.
"""

from repro.parallel.driver import ParallelStats, solve_parallel
from repro.parallel.partition import Partition, partition_svfg

__all__ = ["Partition", "partition_svfg", "ParallelStats", "solve_parallel"]

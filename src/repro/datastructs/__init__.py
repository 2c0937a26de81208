"""Low-level data structures shared by every analysis in the library.

The points-to solvers are propagation-heavy, so the representations here are
chosen for speed under CPython:

- Points-to sets are arbitrary-precision ints used as bit vectors (union
  is a single ``|``), mirroring the role LLVM's ``SparseBitVector`` plays
  in SVF; :func:`~repro.datastructs.bitset.iter_bits` and
  :func:`~repro.datastructs.bitset.count_bits` read them.
- :class:`~repro.datastructs.interning.Interner` deduplicates hashable values
  to dense integer ids; it is how meld-labelling results become version ids.
- :class:`~repro.datastructs.worklist.WorkList` /
  :class:`~repro.datastructs.worklist.FIFOWorkList` /
  :class:`~repro.datastructs.worklist.PriorityWorkList` drive the fixed-point
  solvers; the staged solvers pop SVFG node ids from one FIFO list.
- :class:`~repro.datastructs.ptrepo.PTRepo` interns points-to masks to dense
  ids; it is the parallel frontier's wire table (the staged solvers store
  hash-consed masks and need no ids).
- :class:`~repro.datastructs.unionfind.UnionFind` backs constraint-graph cycle
  collapsing in Andersen's analysis.
- :class:`~repro.datastructs.graph.DiGraph` is a small adjacency-list digraph
  with iterative SCC (Tarjan) and topological ordering, used by the call
  graph and the constraint graph.
"""

from repro.datastructs.bitset import count_bits, iter_bits
from repro.datastructs.graph import DiGraph, strongly_connected_components, topological_order
from repro.datastructs.interning import Interner
from repro.datastructs.unionfind import UnionFind
from repro.datastructs.worklist import FIFOWorkList, PriorityWorkList, WorkList

__all__ = [
    "count_bits",
    "iter_bits",
    "DiGraph",
    "strongly_connected_components",
    "topological_order",
    "Interner",
    "UnionFind",
    "FIFOWorkList",
    "PriorityWorkList",
    "WorkList",
]

"""The Sparse Value-Flow Graph (SVFG, §II-B).

Nodes are the program's instructions plus the memory-SSA artefacts
(``MEMPHI`` nodes and, following SVF, dedicated *ActualIN/ActualOUT* nodes
per call site and object and *FormalIN/FormalOUT* nodes per function and
object, which realise the paper's χ/μ-annotated ``CALL``/``FUNENTRY``/
``FUNEXIT`` instructions at per-object granularity).

Edges:

- **direct** edges carry top-level variables: from each variable's unique
  definition node to every node reading it, plus parameter/return binding
  edges for direct calls;
- **indirect** edges are labelled with an address-taken object ``o`` and
  connect the definition of one memory-SSA version of ``o`` to each of its
  uses.

The built graph's edges are immutable and hold no per-node containers:
the build makes each row once, as its final tuple; direct rows are one
tuple per node, and indirect edges are stored object-major as
``SVFG.ind_edges[oid][src] = (dst, ...)`` — the layout versioning melds
and SFS propagates over.  Node-major readers use
:meth:`SVFG.indirect_succs` / :meth:`SVFG.indirect_preds`.

Interprocedural edges of *indirect* calls are not added at build time: the
solvers resolve the call graph on the fly and call
:meth:`SVFG.connect_callsite` when flow-sensitive analysis discovers a
callee — the nodes that may acquire new incoming edges this way are the
paper's *δ nodes* (Definition 3).  Each solver does so on its own
:meth:`SVFG.copy` view, which shares every row, table and row list with
the built graph and owns only its connected pairs and an overlay
(:attr:`SVFG.wired`) of the rows it changed, each the built row plus
the new edges; so a solve never changes the built graph.
"""

from repro.svfg.nodes import (
    ActualINNode,
    ActualOUTNode,
    FormalINNode,
    FormalOUTNode,
    InstNode,
    MemPhiNode,
    SVFGNode,
)
from repro.svfg.builder import SVFG, SVFGStats, build_svfg

__all__ = [
    "SVFGNode",
    "InstNode",
    "MemPhiNode",
    "ActualINNode",
    "ActualOUTNode",
    "FormalINNode",
    "FormalOUTNode",
    "SVFG",
    "SVFGStats",
    "build_svfg",
]

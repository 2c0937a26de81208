"""Meld labelling (§IV-B): a prelabelling extension for directed graphs.

Given a directed graph, a *prelabelling* of some nodes, and a *meld
operator* ``⊙`` that is commutative, associative, idempotent, and has an
identity ``ε``, meld labelling propagates labels until fixpoint::

    [MELD]  n' -> n  ⟹  κ(n) := κ(n') ⊙ κ(n)

The result partitions nodes into equivalence classes by *which prelabels
transitively reach them* — nodes with equal final labels depend on exactly
the same prelabelled nodes.  The paper's worst case is O(|E|·P) time
(P = number of prelabels) and O(|N|) space.

:class:`MeldLabelling` is the rule as a generic engine over any
user-supplied operator: int bit masks with bitwise-or (the operator the
paper names), frozensets, or the pattern domain of the paper's Figure 4.
Object versioning (:mod:`repro.core.versioning`) runs its own meld over
the SVFG's object-major edge tables.
"""

from __future__ import annotations

from typing import Callable, Dict, Generic, Hashable, List, TypeVar

from repro.datastructs.graph import DiGraph
from repro.datastructs.worklist import FIFOWorkList

N = TypeVar("N", bound=Hashable)
K = TypeVar("K")


class MeldLabelling(Generic[N, K]):
    """Generic meld labelling over any meld operator.

    >>> g = DiGraph()
    >>> __ = g.add_edge("a", "b"); __ = g.add_edge("b", "c")
    >>> ml = MeldLabelling(g, meld=frozenset.union, identity=frozenset())
    >>> ml.prelabel("a", frozenset({"x"}))
    >>> labels = ml.run()
    >>> sorted(labels["c"])
    ['x']
    """

    def __init__(
        self,
        graph: DiGraph,
        meld: Callable[[K, K], K],
        identity: K,
    ):
        self.graph = graph
        self.meld = meld
        self.identity = identity
        self._prelabels: Dict[N, K] = {}
        self._frozen: set = set()

    def prelabel(self, node: N, label: K, frozen: bool = False) -> None:
        """Assign an initial label; *frozen* nodes never meld further."""
        if node in self._prelabels:
            self._prelabels[node] = self.meld(self._prelabels[node], label)
        else:
            self._prelabels[node] = label
        if frozen:
            self._frozen.add(node)

    def run(self) -> Dict[N, K]:
        """Propagate to fixpoint; return the final label of every node."""
        labels: Dict[N, K] = {node: self.identity for node in self.graph.nodes()}
        labels.update(self._prelabels)
        work: FIFOWorkList[N] = FIFOWorkList(self._prelabels.keys())
        while work:
            node = work.pop()
            label = labels[node]
            for succ in self.graph.successors(node):
                if succ in self._frozen:
                    continue
                melded = self.meld(labels[succ], label)
                if melded != labels[succ]:
                    labels[succ] = melded
                    work.push(succ)
        return labels

    def equivalence_classes(self, labels: Dict[N, K]) -> Dict[K, List[N]]:
        """Group nodes by final label (hashable label domains only)."""
        classes: Dict[K, List[N]] = {}
        for node, label in labels.items():
            classes.setdefault(label, []).append(node)
        return classes

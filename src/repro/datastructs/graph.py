"""A small adjacency-list directed graph with the algorithms the analyses need.

Used for the Andersen constraint graph, the call graph, and as the substrate
for generic meld labelling.  All algorithms are iterative (no recursion) so
they scale to SVFGs with hundreds of thousands of nodes without hitting
CPython's recursion limit.
"""

from __future__ import annotations

from typing import (Dict, Generic, Hashable, Iterable, Iterator, List, Mapping,
                    Set, Tuple, TypeVar)

N = TypeVar("N", bound=Hashable)


class DiGraph(Generic[N]):
    """Directed graph with hashable nodes and unlabelled edges.

    Parallel edges collapse (successor sets), which is the semantics every
    client here wants.

    >>> g = DiGraph()
    >>> g.add_edge(1, 2)
    True
    >>> g.add_edge(1, 2)
    False
    >>> sorted(g.successors(1))
    [2]
    """

    __slots__ = ("_succs", "_preds")

    def __init__(self) -> None:
        self._succs: Dict[N, Set[N]] = {}
        self._preds: Dict[N, Set[N]] = {}

    def add_node(self, node: N) -> None:
        if node not in self._succs:
            self._succs[node] = set()
            self._preds[node] = set()

    def add_edge(self, src: N, dst: N) -> bool:
        """Insert the edge ``src -> dst``; return True if it is new."""
        self.add_node(src)
        self.add_node(dst)
        if dst in self._succs[src]:
            return False
        self._succs[src].add(dst)
        self._preds[dst].add(src)
        return True

    def remove_edge(self, src: N, dst: N) -> None:
        self._succs[src].discard(dst)
        self._preds[dst].discard(src)

    def has_edge(self, src: N, dst: N) -> bool:
        return src in self._succs and dst in self._succs[src]

    def has_node(self, node: N) -> bool:
        return node in self._succs

    def successors(self, node: N) -> Set[N]:
        return self._succs.get(node, set())

    def predecessors(self, node: N) -> Set[N]:
        return self._preds.get(node, set())

    def nodes(self) -> Iterator[N]:
        return iter(self._succs)

    def edges(self) -> Iterator[Tuple[N, N]]:
        for src, dsts in self._succs.items():
            for dst in dsts:
                yield src, dst

    def num_nodes(self) -> int:
        return len(self._succs)

    def num_edges(self) -> int:
        return sum(len(dsts) for dsts in self._succs.values())

    def reachable_from(self, roots: Iterable[N]) -> Set[N]:
        """All nodes reachable from *roots* (inclusive)."""
        seen: Set[N] = set()
        stack = [root for root in roots if root in self._succs]
        seen.update(stack)
        while stack:
            node = stack.pop()
            for succ in self._succs[node]:
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        return seen

    def __contains__(self, node: N) -> bool:
        return node in self._succs

    def __len__(self) -> int:
        return len(self._succs)


def tarjan_sccs(roots: Iterable[N],
                succs: Mapping[N, Iterable[N]]) -> List[List[N]]:
    """Tarjan's SCC algorithm, iterative, in reverse topological order.

    Visits the graph reached from *roots* (in their order) through
    ``succs.get(node, ())``, so a node without successors need not be a
    key.  Every node of the visited graph lands in exactly one component,
    and components are returned callee-first: every edge leaving a
    component points to a component that appears *earlier* in the list.
    """
    index: Dict[N, int] = {}
    lowlink: Dict[N, int] = {}
    on_stack: Set[N] = set()
    stack: List[N] = []
    components: List[List[N]] = []
    no_succs: Tuple[N, ...] = ()
    counter = 0

    for root in roots:
        if root in index:
            continue
        # Each work item is (node, iterator over successors).
        work: List[Tuple[N, Iterator[N]]] = [
            (root, iter(succs.get(root, no_succs)))]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, pending = work[-1]
            advanced = False
            for succ in pending:
                if succ not in index:
                    index[succ] = lowlink[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(succs.get(succ, no_succs))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component: List[N] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
    return components


def strongly_connected_components(graph: DiGraph[N]) -> List[List[N]]:
    """The SCCs of *graph* in reverse topological order (see
    :func:`tarjan_sccs`)."""
    return tarjan_sccs(list(graph.nodes()), graph._succs)


def condensation(graph: DiGraph[N]) -> Tuple[Dict[N, int], List[List[N]], "DiGraph[int]"]:
    """SCC-condense *graph* into its component DAG.

    Returns ``(component_of, components, dag)`` where ``components`` lists
    every SCC exactly once in **topological order** (every edge of ``dag``
    goes from a lower component index to a higher one), ``component_of``
    maps each node to its component's index, and ``dag`` has one node per
    component and the collapsed inter-component edges (self-loops dropped).
    Every node of *graph* appears in exactly one component.
    """
    sccs = strongly_connected_components(graph)
    sccs.reverse()  # Tarjan yields callee-first; topological = reverse
    component_of: Dict[N, int] = {}
    for cid, members in enumerate(sccs):
        for node in members:
            component_of[node] = cid
    dag: DiGraph[int] = DiGraph()
    for cid in range(len(sccs)):
        dag.add_node(cid)
    for src, dst in graph.edges():
        a, b = component_of[src], component_of[dst]
        if a != b:
            dag.add_edge(a, b)
    return component_of, sccs, dag


def topological_order(graph: DiGraph[N]) -> List[N]:
    """Topological order of an acyclic graph (Kahn's algorithm).

    Raises ``ValueError`` if the graph has a cycle.
    """
    indegree: Dict[N, int] = {node: len(graph.predecessors(node)) for node in graph.nodes()}
    ready = [node for node, deg in indegree.items() if deg == 0]
    order: List[N] = []
    while ready:
        node = ready.pop()
        order.append(node)
        for succ in graph.successors(node):
            indegree[succ] -= 1
            if indegree[succ] == 0:
                ready.append(succ)
    if len(order) != graph.num_nodes():
        raise ValueError("graph has a cycle; topological order undefined")
    return order

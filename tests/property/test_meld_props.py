"""Property-based tests for meld labelling.

The ground truth for meld labelling with the union operator is
*reachability*: a node's final label is exactly the union of the prelabels
of the nodes that (transitively) reach it — including its own (§IV-B:
"nodes have been split into equivalence classes according to the melding of
prelabels which transitively reach them").
"""

from hypothesis import given, settings, strategies as st

from repro.core.meld import MeldLabelling
from repro.datastructs.graph import DiGraph

NODES = 12

edges_strategy = st.lists(
    st.tuples(st.integers(0, NODES - 1), st.integers(0, NODES - 1)),
    max_size=40,
)
prelabel_strategy = st.dictionaries(
    st.integers(0, NODES - 1), st.integers(1, 7), max_size=5
)


def reachability_oracle(edges, prelabels):
    """Expected labels: union of prelabels reaching each node."""
    succs = {n: set() for n in range(NODES)}
    for a, b in edges:
        succs[a].add(b)
    expected = [0] * NODES
    for source, mask in prelabels.items():
        seen = {source}
        stack = [source]
        expected[source] |= mask
        while stack:
            node = stack.pop()
            for nxt in succs[node]:
                expected[nxt] |= mask
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    return expected


def meld(edges, prelabels):
    """Final labels of nodes ``0..NODES-1`` under bitwise-or melding."""
    graph = DiGraph()
    for n in range(NODES):
        graph.add_node(n)
    for a, b in edges:
        graph.add_edge(a, b)
    engine = MeldLabelling(graph, meld=lambda x, y: x | y, identity=0)
    for node, mask in prelabels.items():
        engine.prelabel(node, mask)
    labels = engine.run()
    return [labels[n] for n in range(NODES)]


class TestMeldReachability:
    @given(edges_strategy, prelabel_strategy)
    @settings(max_examples=200)
    def test_bitwise_or_matches_reachability(self, edges, prelabels):
        assert meld(edges, prelabels) == reachability_oracle(edges, prelabels)

    @given(edges_strategy, prelabel_strategy)
    @settings(max_examples=100)
    def test_idempotent_rerun(self, edges, prelabels):
        first = meld(edges, prelabels)
        # re-running with the result as prelabels is a fixed point
        again = meld(edges, {n: m for n, m in enumerate(first) if m})
        assert again == first

    @given(edges_strategy, prelabel_strategy, prelabel_strategy)
    @settings(max_examples=100)
    def test_monotone_in_prelabels(self, edges, pre_a, pre_b):
        merged = dict(pre_a)
        for node, mask in pre_b.items():
            merged[node] = merged.get(node, 0) | mask
        small = meld(edges, pre_a)
        big = meld(edges, merged)
        assert all(s | b == b for s, b in zip(small, big))


class TestMeldOperatorLaws:
    """The meld operator requirements (commutative/associative/idempotent/
    identity) hold for bitwise-or — checked as the paper states them."""

    masks = st.integers(0, 2 ** 16)

    @given(masks, masks)
    def test_commutative(self, a, b):
        assert a | b == b | a

    @given(masks, masks, masks)
    def test_associative(self, a, b, c):
        assert a | (b | c) == (a | b) | c

    @given(masks)
    def test_idempotent(self, a):
        assert a | a == a

    @given(masks)
    def test_identity(self, a):
        assert a | 0 == a

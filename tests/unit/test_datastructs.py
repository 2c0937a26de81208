"""Unit tests for interner, worklists, union-find, and the digraph."""

import pytest

from repro.datastructs.graph import (DiGraph, strongly_connected_components, tarjan_sccs,
                                    topological_order)
from repro.datastructs.interning import Interner
from repro.datastructs.unionfind import UnionFind
from repro.datastructs.worklist import FIFOWorkList, PriorityWorkList, WorkList


class TestInterner:
    def test_dense_ids(self):
        interner = Interner()
        assert interner.intern("a") == 0
        assert interner.intern("b") == 1
        assert interner.intern("a") == 0

    def test_value_of_roundtrip(self):
        interner = Interner()
        ident = interner.intern(frozenset({1, 2}))
        assert interner.value_of(ident) == frozenset({1, 2})

    def test_get_without_allocating(self):
        interner = Interner()
        assert interner.get("missing") is None
        interner.intern("x")
        assert interner.get("x") == 0

    def test_len_contains_iter(self):
        interner = Interner()
        interner.intern(1)
        interner.intern(2)
        assert len(interner) == 2
        assert 1 in interner
        assert list(interner) == [1, 2]


class TestWorkLists:
    @pytest.mark.parametrize("cls", [WorkList, FIFOWorkList])
    def test_dedup(self, cls):
        wl = cls()
        assert wl.push(1) is True
        assert wl.push(1) is False
        assert len(wl) == 1

    def test_lifo_order(self):
        wl = WorkList([1, 2, 3])
        assert wl.pop() == 3

    def test_fifo_order(self):
        wl = FIFOWorkList([1, 2, 3])
        assert wl.pop() == 1

    def test_repush_after_pop(self):
        wl = FIFOWorkList([1])
        wl.pop()
        assert wl.push(1) is True

    def test_contains_and_bool(self):
        wl = WorkList()
        assert not wl
        wl.push("x")
        assert "x" in wl
        assert wl

    def test_extend(self):
        wl = FIFOWorkList()
        wl.extend([1, 2, 2, 3])
        assert len(wl) == 3

    def test_priority_order(self):
        wl = PriorityWorkList(key=lambda item: -item)
        wl.extend([1, 5, 3])
        assert wl.pop() == 5
        assert wl.pop() == 3
        assert wl.pop() == 1

    def test_priority_snapshot_restore_preserves_order(self):
        wl = PriorityWorkList(key=lambda item: -item)
        wl.extend([1, 5, 3])
        assert wl.snapshot() == {"items": [5, 3, 1]}
        clone = PriorityWorkList(key=lambda item: -item)
        clone.push(7)  # restore replaces, never merges
        clone.restore(wl.snapshot())
        assert not clone.push(3)  # membership restored with the queue
        assert [clone.pop() for _ in range(3)] == [5, 3, 1]
        assert not clone


class TestUnionFind:
    def test_initial_self_parents(self):
        uf = UnionFind(3)
        assert all(uf.find(i) == i for i in range(3))

    def test_union_merges(self):
        uf = UnionFind(4)
        uf.union(0, 1)
        uf.union(1, 2)
        assert uf.same(0, 2)
        assert not uf.same(0, 3)

    def test_union_returns_representative(self):
        uf = UnionFind(2)
        rep = uf.union(0, 1)
        assert uf.find(0) == rep
        assert uf.find(1) == rep

    def test_add_and_ensure(self):
        uf = UnionFind()
        assert uf.add() == 0
        uf.ensure(5)
        assert len(uf) == 6
        assert uf.find(5) == 5

    def test_idempotent_union(self):
        uf = UnionFind(2)
        first = uf.union(0, 1)
        assert uf.union(0, 1) == first


class TestDiGraph:
    def test_add_edge_newness(self):
        g = DiGraph()
        assert g.add_edge(1, 2) is True
        assert g.add_edge(1, 2) is False

    def test_succs_preds(self):
        g = DiGraph()
        g.add_edge("a", "b")
        g.add_edge("a", "c")
        assert g.successors("a") == {"b", "c"}
        assert g.predecessors("b") == {"a"}

    def test_remove_edge(self):
        g = DiGraph()
        g.add_edge(1, 2)
        g.remove_edge(1, 2)
        assert not g.has_edge(1, 2)
        assert g.has_node(2)

    def test_counts(self):
        g = DiGraph()
        g.add_edge(1, 2)
        g.add_edge(2, 3)
        assert g.num_nodes() == 3
        assert g.num_edges() == 2

    def test_reachable_from(self):
        g = DiGraph()
        g.add_edge(1, 2)
        g.add_edge(2, 3)
        g.add_edge(4, 5)
        assert g.reachable_from([1]) == {1, 2, 3}

    def test_edges_iteration(self):
        g = DiGraph()
        g.add_edge(1, 2)
        assert list(g.edges()) == [(1, 2)]


class TestSCC:
    def test_acyclic_singletons(self):
        g = DiGraph()
        g.add_edge(1, 2)
        g.add_edge(2, 3)
        comps = strongly_connected_components(g)
        assert sorted(len(c) for c in comps) == [1, 1, 1]

    def test_cycle_detected(self):
        g = DiGraph()
        g.add_edge(1, 2)
        g.add_edge(2, 3)
        g.add_edge(3, 1)
        comps = strongly_connected_components(g)
        assert sorted(sorted(c) for c in comps) == [[1, 2, 3]]

    def test_reverse_topological_order(self):
        # a -> b -> c : c's component must be emitted before b's before a's
        g = DiGraph()
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        comps = strongly_connected_components(g)
        order = [c[0] for c in comps]
        assert order.index("c") < order.index("b") < order.index("a")

    def test_self_loop_is_own_component(self):
        g = DiGraph()
        g.add_edge(1, 1)
        comps = strongly_connected_components(g)
        assert comps == [[1]]

    def test_two_cycles_bridged(self):
        g = DiGraph()
        for a, b in [(1, 2), (2, 1), (2, 3), (3, 4), (4, 3)]:
            g.add_edge(a, b)
        comps = {frozenset(c) for c in strongly_connected_components(g)}
        assert comps == {frozenset({1, 2}), frozenset({3, 4})}


class TestTarjanOverMapping:
    def test_successor_mapping_of_ints(self):
        succs = {1: [2], 2: [3, 1], 3: [4], 4: [3]}
        comps = tarjan_sccs(succs, succs)
        assert [sorted(c) for c in comps] == [[3, 4], [1, 2]]

    def test_nodes_without_successors_need_no_key(self):
        comps = tarjan_sccs([1], {1: (2, 3), 3: (1,)})
        assert sorted(sorted(c) for c in comps) == [[1, 3], [2]]

    def test_only_the_graph_reached_from_roots(self):
        succs = {1: [2], 5: [6], 6: [5]}
        assert tarjan_sccs([1], succs) == [[2], [1]]


class TestTopologicalOrder:
    def test_linear_chain(self):
        g = DiGraph()
        g.add_edge(1, 2)
        g.add_edge(2, 3)
        order = topological_order(g)
        assert order.index(1) < order.index(2) < order.index(3)

    def test_cycle_raises(self):
        g = DiGraph()
        g.add_edge(1, 2)
        g.add_edge(2, 1)
        with pytest.raises(ValueError):
            topological_order(g)

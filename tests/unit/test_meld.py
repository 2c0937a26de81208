"""Unit tests for generic meld labelling (§IV-B, Figures 3 and 4)."""

from repro.datastructs.graph import DiGraph
from repro.core.meld import MeldLabelling


def _pattern_meld(a: frozenset, b: frozenset) -> frozenset:
    return a | b


class TestMeldLabellingGeneric:
    def build_figure4_graph(self):
        """A graph with the structure the paper's Figure 4 illustrates:
        two prelabelled nodes (patterns ○ at n1, ⊗ at n2); nodes 4 and 7
        end up equal via *different* incoming neighbours, as do 5 and 8."""
        g = DiGraph()
        edges = [
            (1, 3), (1, 4), (1, 6), (6, 7),       # ○ reaches 3, 4, 6, 7
            (1, 5), (2, 5),                        # 5 melds ○ ⊗
            (4, 8), (2, 8),                        # 8 melds ○ (via 4) and ⊗
        ]
        for a, b in edges:
            g.add_edge(a, b)
        g.add_node(9)  # unreachable: stays identity
        ml = MeldLabelling(g, meld=_pattern_meld, identity=frozenset())
        ml.prelabel(1, frozenset({"circle"}))
        ml.prelabel(2, frozenset({"cross"}))
        return ml

    def test_figure4_equal_labels_from_different_neighbours(self):
        ml = self.build_figure4_graph()
        labels = ml.run()
        # Equivalence is by *which prelabels reach a node*, not by shared
        # predecessors (the paper's point about nodes 5/8 and 4/7).
        assert labels[4] == labels[7] == frozenset({"circle"})
        assert labels[5] == labels[8] == frozenset({"circle", "cross"})

    def test_figure4_identity_for_unreachable(self):
        ml = self.build_figure4_graph()
        labels = ml.run()
        assert labels[9] == frozenset()

    def test_figure4_prelabelled_keep_labels(self):
        ml = self.build_figure4_graph()
        labels = ml.run()
        assert labels[1] == frozenset({"circle"})
        assert labels[2] == frozenset({"cross"})

    def test_equivalence_classes(self):
        ml = self.build_figure4_graph()
        labels = ml.run()
        classes = ml.equivalence_classes(labels)
        both = frozenset({"circle", "cross"})
        assert sorted(classes[both]) == [5, 8]
        assert sorted(classes[frozenset()]) == [9]

    def test_prelabel_melds_on_duplicate(self):
        g = DiGraph()
        g.add_node("a")
        ml = MeldLabelling(g, meld=_pattern_meld, identity=frozenset())
        ml.prelabel("a", frozenset({"x"}))
        ml.prelabel("a", frozenset({"y"}))
        assert ml.run()["a"] == frozenset({"x", "y"})

    def test_frozen_nodes_never_change(self):
        g = DiGraph()
        for a, b in [(0, 1), (1, 2)]:
            g.add_edge(a, b)
        ml = MeldLabelling(g, meld=lambda a, b: a | b, identity=0)
        ml.prelabel(0, 0b1)
        ml.prelabel(1, 0b100, frozen=True)
        labels = ml.run()
        assert labels[1] == 0b100        # prelabel kept, 0's label not melded
        assert labels[2] == 0b100        # but the frozen node still yields

"""Unit tests for object versioning (§IV-C): prelabelling, melding,
interning, and the induced propagation constraints."""

import pytest

from repro.core.versioning import ObjectVersioning, version_objects
from repro.errors import AnalysisError
from repro.frontend import compile_c
from repro.ir import CallInst, LoadInst, StoreInst
from repro.pipeline import AnalysisPipeline
from repro.svfg.nodes import InstNode


def build(src):
    module = compile_c(src)
    pipeline = AnalysisPipeline(module)
    return module, pipeline


def node_of(svfg, cls, func=None, index=0):
    found = [
        node
        for node in svfg.nodes
        if isinstance(node, InstNode) and isinstance(node.inst, cls)
        and (func is None or node.function.name == func)
    ]
    return found[index]


class TestPrelabelling:
    def test_store_yields_fresh_version(self):
        module, pipeline = build("""
            int g;
            int main() { g = 1; return g; }
        """)
        svfg = pipeline.svfg()
        versioning = ObjectVersioning(svfg).run()
        store = node_of(svfg, StoreInst, "main")
        g = next(o for o in module.objects if o.name == "g")
        assert versioning.yielded_version(store.id, g.id) != ObjectVersioning.EPSILON

    def test_store_yield_differs_from_consume(self):
        module, pipeline = build("""
            int g;
            int main() { g = 1; g = 2; return g; }
        """)
        svfg = pipeline.svfg()
        versioning = ObjectVersioning(svfg).run()
        g = next(o for o in module.objects if o.name == "g")
        second = node_of(svfg, StoreInst, "main", index=1)
        assert versioning.consumed_version(second.id, g.id) != \
            versioning.yielded_version(second.id, g.id)

    def test_two_stores_get_distinct_versions(self):
        module, pipeline = build("""
            int g;
            int main(int c) { if (c) { g = 1; } else { g = 2; } return g; }
        """)
        svfg = pipeline.svfg()
        versioning = ObjectVersioning(svfg).run()
        g = next(o for o in module.objects if o.name == "g")
        s1 = node_of(svfg, StoreInst, "main", index=0)
        s2 = node_of(svfg, StoreInst, "main", index=1)
        assert versioning.yielded_version(s1.id, g.id) != \
            versioning.yielded_version(s2.id, g.id)

    def test_prelabel_count_recorded(self):
        __, pipeline = build("""
            int g;
            int main() { g = 1; return g; }
        """)
        versioning = ObjectVersioning(pipeline.svfg()).run()
        assert versioning.stats.prelabels >= 1


class TestSharing:
    def test_load_consumes_store_yield_in_straight_line(self):
        module, pipeline = build("""
            int g;
            int main() { g = 1; return g; }
        """)
        svfg = pipeline.svfg()
        versioning = ObjectVersioning(svfg).run()
        g = next(o for o in module.objects if o.name == "g")
        store = node_of(svfg, StoreInst, "main")
        load = node_of(svfg, LoadInst, "main")
        assert versioning.consumed_version(load.id, g.id) == \
            versioning.yielded_version(store.id, g.id)

    def test_two_loads_share_a_version(self):
        """The paper's headline: loads relying on the same modifications of
        o consume the *same* version and therefore share one points-to set."""
        module, pipeline = build("""
            int *g; int x;
            int main() {
                g = &x;
                int *a; a = g;
                int *b; b = g;
                return 0;
            }
        """)
        svfg = pipeline.svfg()
        versioning = ObjectVersioning(svfg).run()
        g = next(o for o in module.objects if o.name == "g")
        load1 = node_of(svfg, LoadInst, "main", index=0)
        load2 = node_of(svfg, LoadInst, "main", index=1)
        v1 = versioning.consumed_version(load1.id, g.id)
        v2 = versioning.consumed_version(load2.id, g.id)
        assert v1 == v2 != ObjectVersioning.EPSILON

    def test_loads_across_store_get_different_versions(self):
        module, pipeline = build("""
            int *g; int x; int y;
            int main() {
                g = &x;
                int *a; a = g;
                g = &y;
                int *b; b = g;
                return 0;
            }
        """)
        svfg = pipeline.svfg()
        versioning = ObjectVersioning(svfg).run()
        g = next(o for o in module.objects if o.name == "g")
        load1 = node_of(svfg, LoadInst, "main", index=0)
        load2 = node_of(svfg, LoadInst, "main", index=1)
        assert versioning.consumed_version(load1.id, g.id) != \
            versioning.consumed_version(load2.id, g.id)

    def test_unreachable_object_is_epsilon(self):
        module, pipeline = build("""
            int g;
            int main() { return g; }
        """)
        svfg = pipeline.svfg()
        versioning = ObjectVersioning(svfg).run()
        g = next(o for o in module.objects if o.name == "g")
        load = node_of(svfg, LoadInst, "main")
        assert versioning.consumed_version(load.id, g.id) == ObjectVersioning.EPSILON


class TestConstraints:
    def test_shared_version_means_no_constraint(self):
        """A def with a single chain of uses collapses to zero A-PROP work."""
        __, pipeline = build("""
            int *g; int x;
            int main() { g = &x; int *a; a = g; int *b; b = g; return 0; }
        """)
        versioning = ObjectVersioning(pipeline.svfg()).run()
        # every edge from the single store shares the same version pair
        assert versioning.num_constraints() == 0

    def test_join_requires_constraints(self):
        __, pipeline = build("""
            int g;
            int main(int c) { if (c) { g = 1; } else { g = 2; } return g; }
        """)
        versioning = ObjectVersioning(pipeline.svfg()).run()
        # two store versions meld into the memphi'd consumed version
        assert versioning.num_constraints() >= 2

    def test_add_constraint_dedups(self):
        __, pipeline = build("int g; int main() { g = 1; return g; }")
        versioning = ObjectVersioning(pipeline.svfg()).run()
        assert versioning.add_constraint(0, 1, 2) is True
        assert versioning.add_constraint(0, 1, 2) is False
        assert versioning.add_constraint(0, 3, 3) is False  # self-loop


class TestStrategies:
    SRC = """
        struct node { int v; struct node *f0; struct node *f1; };
        struct node *g0; struct node *g1;
        fnptr h;
        struct node *work(struct node *a, struct node *b) {
            a->f0 = b;
            g0 = a;
            return a->f1;
        }
        int main(int c) {
            g0 = (struct node*)malloc(sizeof(struct node));
            g1 = (struct node*)malloc(sizeof(struct node));
            h = work;
            struct node *r = h(g0, g1);
            int i;
            for (i = 0; i < 3; i = i + 1) { r = work(g1, g0); }
            return 0;
        }
    """

    def test_scc_equals_fixpoint_labels(self):
        __, pipeline = build(self.SRC)
        scc = ObjectVersioning(pipeline.svfg()).run(
            strategy="scc", release_masks=False)
        fixpoint = ObjectVersioning(pipeline.svfg()).run(
            strategy="fixpoint", release_masks=False)
        assert scc.consumed_masks == fixpoint.consumed_masks
        assert scc.yielded_masks == fixpoint.yielded_masks
        assert scc.num_constraints() == fixpoint.num_constraints()

    def test_unknown_strategy_rejected(self):
        __, pipeline = build("int g; int main() { g = 1; return g; }")
        with pytest.raises(AnalysisError):
            ObjectVersioning(pipeline.svfg()).run(strategy="nope")

    def test_version_objects_helper(self):
        __, pipeline = build("int g; int main() { g = 1; return g; }")
        versioning = version_objects(pipeline.svfg())
        assert versioning.stats.time > 0

    def test_versions_fewer_than_nodes(self):
        """Interning must make versions far sparser than SVFG nodes."""
        __, pipeline = build(self.SRC)
        svfg = pipeline.svfg()
        versioning = ObjectVersioning(svfg).run()
        assert versioning.stats.versions < len(svfg.nodes)

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


class TestCollapse:
    """Phase 4: cycles of the version-constraint graph, which run through
    δ nodes, merge into one version each."""

    # rec is an indirect-call target (δ FormalIN) that calls itself
    # directly, and its indirect call site's ActualOUT is a δ node too.
    SRC = """
        int *g; int x; int y;
        fnptr h;
        fnptr k;
        void leaf(int c) { g = &x; }
        void rec(int c) {
            if (c) { h(c); }
            if (c) { rec(c - 1); }
            g = &y;
        }
        int main(int c) {
            h = leaf;
            k = rec;
            k(c);
            int *r; r = g;
            return 0;
        }
    """

    def versionings(self):
        module, pipeline = build(self.SRC)
        svfg = pipeline.svfg()
        g = next(o for o in module.objects if o.name == "g")
        meld_only = ObjectVersioning(svfg, keep_all_versions=True).run(collapse=False)
        collapsed = ObjectVersioning(svfg, keep_all_versions=True).run()
        return svfg, g, meld_only, collapsed

    def test_cycle_merges_versions_and_constraints(self):
        __, g, meld_only, collapsed = self.versionings()
        assert collapsed.num_versions(g.id) < meld_only.num_versions(g.id)
        assert collapsed.num_constraints() < meld_only.num_constraints()
        assert collapsed.stats.versions < meld_only.stats.versions
        assert collapsed.stats.meld_steps == meld_only.stats.meld_steps

    def test_merge_is_a_monotone_dense_renumbering(self):
        """Each merged version takes its smallest member's id, ids are
        renumbered densely in that order, and ε stays 0."""
        svfg, g, meld_only, collapsed = self.versionings()
        remap = {}
        for node_id in range(len(svfg.nodes)):
            for side in ("consumed_version", "yielded_version"):
                before = getattr(meld_only, side)(node_id, g.id)
                after = getattr(collapsed, side)(node_id, g.id)
                assert remap.setdefault(before, after) == after
                assert (before == ObjectVersioning.EPSILON) == \
                    (after == ObjectVersioning.EPSILON)
        remap.setdefault(ObjectVersioning.EPSILON, ObjectVersioning.EPSILON)
        assert sorted(remap) == list(range(meld_only.num_versions(g.id)))
        merged = {}
        for before, after in remap.items():
            merged.setdefault(after, []).append(before)
        assert sorted(merged) == list(range(collapsed.num_versions(g.id)))
        smallest = [min(merged[after]) for after in sorted(merged)]
        assert smallest == sorted(smallest)
        assert any(len(members) > 1 for members in merged.values())

    def test_collapsed_constraints_are_acyclic(self):
        __, g, __, collapsed = self.versionings()
        succs = {src: dsts for (oid, src), dsts in collapsed.constraints.items()
                 if oid == g.id}
        for start in succs:
            seen, stack = set(), list(succs[start])
            while stack:
                ver = stack.pop()
                assert ver != start, "version reaches itself"
                if ver not in seen:
                    seen.add(ver)
                    stack.extend(succs.get(ver, ()))

    def test_solution_unchanged(self):
        from repro.core.vsfs import VSFSAnalysis

        __, pipeline = build(self.SRC)
        svfg = pipeline.svfg()
        expected = pipeline.sfs().snapshot()
        for collapse in (False, True):
            versioning = version_objects(svfg, collapse=collapse)
            result = VSFSAnalysis(svfg, versioning=versioning).run()
            assert result.snapshot() == expected


class TestSparseState:
    def test_only_nodes_with_versions_hold_tables(self):
        __, pipeline = build(TestStrategies.SRC)
        svfg = pipeline.svfg()
        versioning = ObjectVersioning(svfg).run()
        assert isinstance(versioning._is_store, bytearray)
        assert isinstance(versioning._single, bytearray)
        assert all(versioning.consumed.values())
        assert all(versioning._is_store[node_id] for node_id in versioning.yielded)
        bare = [node_id for node_id in range(len(svfg.nodes))
                if node_id not in versioning.consumed]
        assert bare
        tables = {id(versioning.consumed_table(node_id)) for node_id in bare}
        assert len(tables) == 1  # the one shared empty table
        assert versioning.consumed_table(bare[0]) == {}

    def test_non_store_yield_is_its_consume(self):
        __, pipeline = build(TestStrategies.SRC)
        svfg = pipeline.svfg()
        versioning = ObjectVersioning(svfg).run()
        for node_id in versioning.consumed:
            if not versioning._is_store[node_id]:
                assert versioning.yielded_table(node_id) is \
                    versioning.consumed_table(node_id)

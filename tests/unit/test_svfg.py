"""Unit tests for SVFG construction (direct/indirect edges, δ nodes, OTF)."""

import pytest

from repro.frontend import compile_c
from repro.ir import CallInst, LoadInst, StoreInst
from repro.pipeline import AnalysisPipeline
from repro.svfg.nodes import (
    ActualINNode,
    ActualOUTNode,
    FormalINNode,
    FormalOUTNode,
    InstNode,
    MemPhiNode,
)


def build(src):
    module = compile_c(src)
    pipeline = AnalysisPipeline(module)
    return module, pipeline.svfg()


def inst_node(svfg, cls, func=None):
    for node in svfg.nodes:
        if isinstance(node, InstNode) and isinstance(node.inst, cls):
            if func is None or node.function.name == func:
                return node
    raise AssertionError(f"no {cls.__name__} node")


class TestStructure:
    SRC = """
        int g;
        int main() { g = 1; return g; }
    """

    def test_every_instruction_has_a_node(self):
        module, svfg = build(self.SRC)
        insts = sum(1 for f in module.functions.values() for __ in f.instructions())
        assert len(svfg.inst_node) == insts

    def test_store_to_load_indirect_edge(self):
        module, svfg = build(self.SRC)
        store = inst_node(svfg, StoreInst, "main")
        load = inst_node(svfg, LoadInst, "main")
        g = next(o for o in module.objects if o.name == "g")
        assert load.id in svfg.indirect_succs()[store.id].get(g.id, ())

    def test_direct_edge_def_to_use(self):
        module, svfg = build("""
            int g;
            int main() { int *p; p = &g; *p = 1; return 0; }
        """)
        # def of the global address variable (AllocInst in init) reaches the
        # store node in main.
        store = inst_node(svfg, StoreInst, "main")
        g_var = next(v for v in module.variables if v.name == "g")
        def_node = svfg.var_def_node[g_var.id]
        assert store.id in svfg.direct_succs[def_node]

    def test_stats_columns_present(self):
        __, svfg = build(self.SRC)
        stats = svfg.stats()
        assert stats.num_nodes == len(svfg.nodes)
        assert stats.num_indirect_edges == svfg.num_indirect_edges()
        assert stats.num_direct_edges > 0

    def test_edge_deduplication(self):
        __, svfg = build(self.SRC)
        edges = [(src, dst, oid) for src, row in enumerate(svfg.indirect_succs())
                 for oid, dsts in row.items() for dst in dsts]
        assert len(edges) == len(set(edges)) == svfg.num_indirect_edges()
        direct = [(src, dst) for src, row in enumerate(svfg.direct_succs)
                  for dst in row]
        assert len(direct) == len(set(direct)) == svfg.num_direct_edges()


class TestLayout:
    #: SVFG digests of two suite programs.  The payload is sorted, so a
    #: layout that drops, duplicates or relabels an edge changes them.
    PINNED = {
        "du": "3d7b42abdc8dadfcf7ffcbdebae715dbc174576f1081d5c0c3ca9beb547b0d10",
        "tmux": "c9857fac13b58110bb3c4c0487c5278af041d7eb2237e3da455d560e8793165d",
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_stage_digest_pinned(self, name):
        from repro.bench.workloads import suite_program
        from tests.digests import svfg_digest

        svfg = AnalysisPipeline(suite_program(name)).svfg()
        assert svfg_digest(svfg) == self.PINNED[name]

    def test_rows_are_tuples(self):
        __, svfg = build(TestStructure.SRC)
        rows = svfg.direct_succs + svfg.direct_preds + [
            dsts for table in svfg.ind_edges.values() for dsts in table.values()]
        assert rows and all(type(row) is tuple for row in rows)


class TestInterprocedural:
    SRC = """
        int g;
        void writer() { g = 1; }
        int main() { writer(); return g; }
    """

    def test_actual_formal_nodes_created(self):
        module, svfg = build(self.SRC)
        kinds = {type(n) for n in svfg.nodes}
        assert {ActualINNode, ActualOUTNode, FormalINNode, FormalOUTNode} <= kinds

    def test_direct_call_connected_at_build(self):
        module, svfg = build(self.SRC)
        main = module.functions["main"]
        writer = module.functions["writer"]
        call = next(i for i in main.instructions() if isinstance(i, CallInst)
                    if not i.is_indirect() and i.callee.name == "writer")
        assert svfg.is_connected(call, writer)
        g = next(o for o in module.objects if o.name == "g")
        ain = svfg.actual_in[call][g.id]
        fin = svfg.formal_in[writer][g.id]
        assert fin in svfg.indirect_succs()[ain].get(g.id, ())
        fout = svfg.formal_out[writer][g.id]
        aout = svfg.actual_out[call][g.id]
        assert aout in svfg.indirect_succs()[fout].get(g.id, ())

    def test_bypass_edge_into_actual_out(self):
        """The pre-call version of g must flow into the post-call node."""
        module, svfg = build(self.SRC)
        main = module.functions["main"]
        call = next(i for i in main.instructions() if isinstance(i, CallInst))
        g = next(o for o in module.objects if o.name == "g")
        aout = svfg.actual_out[call][g.id]
        preds = {src for src, oid in svfg.indirect_preds()[aout] if oid == g.id}
        fout = svfg.formal_out[module.functions["writer"]][g.id]
        assert preds - {fout}, "ActualOUT must also have a local bypass pred"

    def test_no_delta_nodes_without_indirect_calls(self):
        __, svfg = build(self.SRC)
        assert svfg.delta_nodes == set()


class TestDeltaNodes:
    SRC = """
        struct node { int v; struct node *f0; };
        struct node *g;
        struct node *target(struct node *a, struct node *b) { g = a; return b; }
        fnptr h;
        int main() {
            h = target;
            struct node *r = h(null, null);
            return 0;
        }
    """

    def test_formal_in_of_indirect_target_is_delta(self):
        module, svfg = build(self.SRC)
        target = module.functions["target"]
        fins = set(svfg.formal_in.get(target, {}).values())
        assert fins and fins <= svfg.delta_nodes

    def test_actual_out_of_indirect_call_is_delta(self):
        module, svfg = build(self.SRC)
        main = module.functions["main"]
        call = next(i for i in main.instructions()
                    if isinstance(i, CallInst) and i.is_indirect())
        aouts = set(svfg.actual_out.get(call, {}).values())
        assert aouts and aouts <= svfg.delta_nodes

    def test_indirect_call_not_connected_at_build(self):
        module, svfg = build(self.SRC)
        main = module.functions["main"]
        call = next(i for i in main.instructions()
                    if isinstance(i, CallInst) and i.is_indirect())
        assert not svfg.is_connected(call, module.functions["target"])

    def test_connect_callsite_returns_touched_sources(self):
        module, svfg = build(self.SRC)
        main = module.functions["main"]
        call = next(i for i in main.instructions()
                    if isinstance(i, CallInst) and i.is_indirect())
        touched = svfg.connect_callsite(call, module.functions["target"])
        assert touched
        assert svfg.is_connected(call, module.functions["target"])
        # idempotent
        assert svfg.connect_callsite(call, module.functions["target"]) == []


class TestMemPhiNodes:
    def test_memphi_node_materialised(self):
        module, svfg = build("""
            int g;
            int main(int c) {
                if (c) { g = 1; } else { g = 2; }
                return g;
            }
        """)
        memphis = [n for n in svfg.nodes if isinstance(n, MemPhiNode)]
        assert any(n.obj.name == "g" for n in memphis)
        # both stores feed the memphi; the memphi feeds the load
        phi = next(n for n in memphis if n.obj.name == "g")
        g = phi.obj
        preds = {src for src, oid in svfg.indirect_preds()[phi.id] if oid == g.id}
        assert len(preds) == 2
        load = inst_node(svfg, LoadInst, "main")
        assert load.id in svfg.indirect_succs()[phi.id].get(g.id, ())

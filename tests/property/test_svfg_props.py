"""Property-based structural invariants of generated SVFGs."""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bench.workloads import WorkloadConfig, generate_program
from repro.ir.instructions import LoadInst, StoreInst
from repro.pipeline import AnalysisPipeline
from repro.svfg.nodes import (
    ActualINNode,
    ActualOUTNode,
    FormalINNode,
    FormalOUTNode,
    InstNode,
    MemPhiNode,
)

configs = st.builds(
    WorkloadConfig,
    name=st.just("svfgprop"),
    seed=st.integers(0, 3000),
    num_functions=st.integers(1, 5),
    stmts_per_function=st.integers(2, 8),
    num_globals=st.integers(1, 4),
    num_handlers=st.integers(0, 2),
    indirect_call_rate=st.floats(0.0, 0.4),
)

RELAXED = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@given(configs)
@RELAXED
def test_indirect_edges_mirror(config):
    """The accessor rows are exactly the projection (successors) and the
    reverse (predecessors) of the object-major ``ind_edges`` layout."""
    svfg = AnalysisPipeline(generate_program(config)).svfg()
    edges = [
        (src, dst, oid)
        for oid, table in svfg.ind_edges.items()
        for src, dsts in table.items()
        for dst in dsts
    ]
    assert len(edges) == len(set(edges)) == svfg.num_indirect_edges()
    for table in svfg.ind_edges.values():
        assert list(table) == sorted(table)  # sources ascending
        assert all(isinstance(dsts, tuple) and dsts for dsts in table.values())
    succs = svfg.indirect_succs()
    preds = svfg.indirect_preds()
    assert len(succs) == len(preds) == len(svfg.nodes)
    projection = [
        {oid: table[src] for oid, table in svfg.ind_edges.items() if src in table}
        for src in range(len(svfg.nodes))
    ]
    assert succs == projection
    reverse = [[] for __ in svfg.nodes]
    for src, dst, oid in edges:
        reverse[dst].append((src, oid))
    assert [sorted(row) for row in preds] == [sorted(row) for row in reverse]


@given(configs)
@RELAXED
def test_indirect_sources_are_definitions(config):
    """Only nodes that can define an object version have outgoing
    o-labelled edges: stores, MEMPHIs, entry-χ (FormalIN), call-χ
    (ActualOUT) — plus ActualIN/FormalOUT relay nodes."""
    svfg = AnalysisPipeline(generate_program(config)).svfg()
    succs = svfg.indirect_succs()
    for node in svfg.nodes:
        if not succs[node.id]:
            continue
        if isinstance(node, InstNode):
            assert isinstance(node.inst, StoreInst), node.describe()
        else:
            assert isinstance(
                node,
                (MemPhiNode, FormalINNode, FormalOUTNode, ActualINNode, ActualOUTNode),
            ), node.describe()


@given(configs)
@RELAXED
def test_loads_never_forward_indirect(config):
    """Loads are pure uses of object versions (the paper's def-use edges go
    definition → use, never through a load)."""
    svfg = AnalysisPipeline(generate_program(config)).svfg()
    succs = svfg.indirect_succs()
    for node in svfg.nodes:
        if isinstance(node, InstNode) and isinstance(node.inst, LoadInst):
            assert not succs[node.id]


@given(configs)
@RELAXED
def test_single_object_nodes_edge_labels_match(config):
    """Actual/Formal IN/OUT and MEMPHI nodes only carry edges labelled with
    their own object."""
    svfg = AnalysisPipeline(generate_program(config)).svfg()
    succs = svfg.indirect_succs()
    preds = svfg.indirect_preds()
    for node in svfg.nodes:
        obj = getattr(node, "obj", None)
        if obj is None:
            continue
        for oid in succs[node.id]:
            assert oid == obj.id, node.describe()
        for __, oid in preds[node.id]:
            assert oid == obj.id, node.describe()


@given(configs)
@RELAXED
def test_delta_nodes_have_no_build_time_otf_edges(config):
    """δ consumes are only fed by build-time *direct-call* wiring or the
    local bypass; indirect call sites start unconnected."""
    module = generate_program(config)
    pipeline = AnalysisPipeline(module)
    svfg = pipeline.svfg()
    from repro.ir.instructions import CallInst

    for inst, node in svfg.inst_node.items():
        if isinstance(inst, CallInst) and inst.is_indirect():
            for function in module.functions.values():
                assert not svfg.is_connected(inst, function)

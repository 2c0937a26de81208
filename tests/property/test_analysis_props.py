"""Property-based tests over randomly generated programs.

The central invariant of the paper (§IV-E): on *any* program, VSFS computes
exactly the same points-to information as SFS, and both stay within the
auxiliary (Andersen) results.  The program generator drives the full
pipeline, so every random example exercises frontend → partial SSA →
Andersen → memory SSA → SVFG → both solvers.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.andersen import run_andersen
from repro.bench.workloads import WorkloadConfig, generate_program, generate_source
from repro.core.versioning import ObjectVersioning
from repro.pipeline import AnalysisPipeline

configs = st.builds(
    WorkloadConfig,
    name=st.just("prop"),
    seed=st.integers(0, 10_000),
    num_fields=st.integers(1, 4),
    num_globals=st.integers(1, 4),
    num_handlers=st.integers(0, 2),
    num_functions=st.integers(1, 5),
    stmts_per_function=st.integers(2, 8),
    indirect_call_rate=st.floats(0.0, 0.5),
    store_rate=st.floats(0.1, 0.5),
    branch_rate=st.floats(0.0, 0.4),
    loop_rate=st.floats(0.0, 0.3),
    malloc_rate=st.floats(0.0, 0.3),
    recursion_rate=st.floats(0.0, 0.1),
)

#: Programs that call through function pointers, so that δ nodes — and
#: with them cycles of the version-constraint graph — exist.
indirect_configs = st.builds(
    WorkloadConfig,
    name=st.just("prop"),
    seed=st.integers(0, 10_000),
    num_fields=st.integers(1, 4),
    num_globals=st.integers(1, 4),
    num_handlers=st.integers(1, 3),
    num_functions=st.integers(2, 5),
    stmts_per_function=st.integers(2, 8),
    indirect_call_rate=st.floats(0.2, 0.5),
    store_rate=st.floats(0.1, 0.5),
    branch_rate=st.floats(0.0, 0.4),
    loop_rate=st.floats(0.0, 0.3),
    malloc_rate=st.floats(0.0, 0.3),
    recursion_rate=st.floats(0.0, 0.1),
)

# Direct calls only: with indirect calls the staged solvers and the dense
# ICFG baseline can resolve *different* on-the-fly call graphs (both sound,
# neither more precise), so pt_SFS ⊆ pt_ICFG only holds once the call graph
# is fixed — the same reason the other tests here assert containment in
# Andersen, not in ICFG-FS, on random programs.
direct_configs = st.builds(
    WorkloadConfig,
    name=st.just("prop-direct"),
    seed=st.integers(0, 10_000),
    num_fields=st.integers(1, 4),
    num_globals=st.integers(1, 4),
    num_handlers=st.just(0),
    num_functions=st.integers(1, 5),
    stmts_per_function=st.integers(2, 8),
    indirect_call_rate=st.just(0.0),
    store_rate=st.floats(0.1, 0.6),
    branch_rate=st.floats(0.0, 0.4),
    loop_rate=st.floats(0.0, 0.3),
    malloc_rate=st.floats(0.0, 0.3),
    recursion_rate=st.floats(0.0, 0.1),
)

RELAXED = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestSolverEquivalence:
    @given(configs)
    @RELAXED
    def test_vsfs_equals_sfs(self, config):
        module = generate_program(config)
        pipeline = AnalysisPipeline(module)
        sfs = pipeline.sfs()
        vsfs = pipeline.vsfs()
        assert [sfs.pts_mask(v) for v in module.variables] == \
            [vsfs.pts_mask(v) for v in module.variables]

    @given(configs)
    @RELAXED
    def test_flow_sensitive_within_andersen(self, config):
        module = generate_program(config)
        pipeline = AnalysisPipeline(module)
        andersen = run_andersen(module)
        vsfs = pipeline.vsfs()
        for var in module.variables:
            fs = vsfs.pts_mask(var)
            fi = andersen.pts_mask(var)
            assert fs | fi == fi, f"VSFS exceeds Andersen at {var!r}"

    @given(configs)
    @RELAXED
    def test_callgraphs_agree(self, config):
        module = generate_program(config)
        pipeline = AnalysisPipeline(module)
        sfs = pipeline.sfs()
        vsfs = pipeline.vsfs()
        assert {(c.id, f.name) for c, f in sfs.callgraph.call_edges()} == \
            {(c.id, f.name) for c, f in vsfs.callgraph.call_edges()}

    @given(direct_configs)
    @RELAXED
    def test_precision_lattice_with_optimisations(self, config):
        """SFS = VSFS ⊆ ICFG-FS ⊆ Andersen (direct-call programs — see
        ``direct_configs``)."""
        module = generate_program(config)
        pipeline = AnalysisPipeline(module)
        sfs = pipeline.sfs()
        vsfs = pipeline.vsfs()
        icfg = pipeline.icfg_fs()
        andersen = run_andersen(module)
        for var in module.variables:
            s, v = sfs.pts_mask(var), vsfs.pts_mask(var)
            i, a = icfg.pts_mask(var), andersen.pts_mask(var)
            assert s == v, f"SFS != VSFS at {var!r}"
            assert v | i == i, f"staged exceeds ICFG-FS at {var!r}"
            assert i | a == a, f"ICFG-FS exceeds Andersen at {var!r}"


class TestVersioningProps:
    @given(configs)
    @RELAXED
    def test_meld_strategies_agree(self, config):
        module = generate_program(config)
        pipeline = AnalysisPipeline(module)
        scc = ObjectVersioning(pipeline.svfg()).run(
            strategy="scc", release_masks=False)
        fixpoint = ObjectVersioning(pipeline.svfg()).run(
            strategy="fixpoint", release_masks=False)
        assert scc.consumed_masks == fixpoint.consumed_masks
        assert scc.yielded_masks == fixpoint.yielded_masks
        assert scc.num_constraints() == fixpoint.num_constraints()

    @given(indirect_configs)
    @RELAXED
    def test_cycle_collapse_is_exact(self, config):
        """The default versioning leaves no version-constraint cycle,
        never adds a constraint, and solves to the meld-only (and SFS)
        answer."""
        from repro.core.vsfs import VSFSAnalysis
        from repro.solvers.sfs import SFSAnalysis

        svfg = AnalysisPipeline(generate_program(config)).svfg()
        # Solve each versioning before building the next: both write the
        # single-object nodes' version slots on the shared SVFG.
        meld_only = ObjectVersioning(svfg).run(collapse=False)
        expected = VSFSAnalysis(svfg, versioning=meld_only).run().snapshot()
        collapsed = ObjectVersioning(svfg).run()
        assert collapsed.num_constraints() <= meld_only.num_constraints()
        succs = collapsed.constraints
        for (oid, start), dsts in succs.items():
            seen, stack = set(), list(dsts)
            while stack:
                ver = stack.pop()
                assert ver != start, f"object {oid}: version {start} on a cycle"
                if ver not in seen:
                    seen.add(ver)
                    stack.extend(succs.get((oid, ver), ()))
        snapshot = VSFSAnalysis(svfg, versioning=collapsed).run().snapshot()
        assert snapshot == expected == SFSAnalysis(svfg).run().snapshot()

    @given(configs)
    @RELAXED
    def test_generator_is_deterministic(self, config):
        assert generate_source(config) == generate_source(config)

    @given(configs)
    @RELAXED
    def test_stores_yield_unique_versions(self, config):
        """[STORE]ᴾ: no two stores may yield the same version of an object."""
        from repro.ir.instructions import StoreInst
        from repro.svfg.nodes import InstNode

        module = generate_program(config)
        pipeline = AnalysisPipeline(module)
        svfg = pipeline.svfg()
        versioning = ObjectVersioning(svfg).run()
        seen = set()
        for node in svfg.nodes:
            if isinstance(node, InstNode) and isinstance(node.inst, StoreInst):
                for chi in svfg.memssa.store_chis.get(node.inst, ()):
                    key = (chi.obj.id, versioning.yielded_version(node.id, chi.obj.id))
                    assert key not in seen, "two stores share a yielded version"
                    seen.add(key)

"""Property tests for the propagation kernel over the points-to repository.

Deduplicated storage must be *invisible*: on any generated program, the
PTRepo configuration of either staged solver yields exactly the snapshot
and the work counters of the raw-mask reference, and the usual precision
lattice SFS = VSFS ⊆ ICFG-FS ⊆ Andersen survives with it on.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.andersen import run_andersen
from repro.bench.workloads import WorkloadConfig, generate_program
from repro.core.vsfs import VSFSAnalysis
from repro.pipeline import AnalysisPipeline
from repro.solvers.sfs import SFSAnalysis

configs = st.builds(
    WorkloadConfig,
    name=st.just("delta-prop"),
    seed=st.integers(0, 10_000),
    num_fields=st.integers(1, 4),
    num_globals=st.integers(1, 4),
    num_handlers=st.integers(0, 2),
    num_functions=st.integers(1, 5),
    stmts_per_function=st.integers(2, 8),
    indirect_call_rate=st.floats(0.0, 0.5),
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

# Direct calls only: with indirect calls the staged solvers and the dense
# ICFG baseline can resolve *different* on-the-fly call graphs (both sound,
# neither more precise), so pt_SFS ⊆ pt_ICFG only holds once the call graph
# is fixed — the same reason test_analysis_props.py asserts containment in
# Andersen, not in ICFG-FS, on random programs.
direct_configs = st.builds(
    WorkloadConfig,
    name=st.just("delta-prop-direct"),
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


class TestDeltaKernelInvisible:
    @given(configs)
    @RELAXED
    def test_all_configs_identical_snapshots(self, config):
        """PTRepo on/off: same snapshot, bit for bit, and equal work
        counters against the raw-mask reference."""
        module = generate_program(config)
        pipeline = AnalysisPipeline(module)
        pipeline.memssa()
        for solver_cls in (SFSAnalysis, VSFSAnalysis):
            raw = solver_cls(pipeline.svfg(), ptrepo=False).run()
            repo = solver_cls(pipeline.svfg(), ptrepo=True).run()
            assert repo.snapshot() == raw.snapshot(), (
                f"{solver_cls.analysis_name} with ptrepo diverged from raw"
            )
            # The repository is pure storage: work counters unchanged.
            for field in ("nodes_processed", "propagations", "unions",
                          "strong_updates", "weak_updates",
                          "stored_ptsets", "unique_ptsets"):
                assert getattr(repo.stats, field) == \
                    getattr(raw.stats, field), field

    @given(configs)
    @RELAXED
    def test_optimised_solvers_within_andersen(self, config):
        """SFS = VSFS ⊆ Andersen with ptrepo on (any program)."""
        module = generate_program(config)
        pipeline = AnalysisPipeline(module)
        sfs = pipeline.sfs(ptrepo=True)
        vsfs = pipeline.vsfs(ptrepo=True)
        andersen = run_andersen(module)
        for var in module.variables:
            s, v, a = sfs.pts_mask(var), vsfs.pts_mask(var), andersen.pts_mask(var)
            assert s == v, f"SFS != VSFS at {var!r}"
            assert v | a == a, f"staged exceeds Andersen at {var!r}"

    @given(direct_configs)
    @RELAXED
    def test_precision_lattice_with_optimisations(self, config):
        """SFS = VSFS ⊆ ICFG-FS ⊆ Andersen, with ptrepo on
        (direct-call programs — see ``direct_configs``)."""
        module = generate_program(config)
        pipeline = AnalysisPipeline(module)
        sfs = pipeline.sfs(ptrepo=True)
        vsfs = pipeline.vsfs(ptrepo=True)
        icfg = pipeline.icfg_fs()
        andersen = run_andersen(module)
        for var in module.variables:
            s, v = sfs.pts_mask(var), vsfs.pts_mask(var)
            i, a = icfg.pts_mask(var), andersen.pts_mask(var)
            assert s == v, f"SFS != VSFS at {var!r}"
            assert v | i == i, f"staged exceeds ICFG-FS at {var!r}"
            assert i | a == a, f"ICFG-FS exceeds Andersen at {var!r}"

"""Unit tests for the shared staged-solver machinery (solvers.base)."""

import pytest

from repro.frontend import compile_c
from repro.ir.values import ObjectKind
from repro.pipeline import AnalysisPipeline
from repro.solvers.base import SolverStats
from repro.solvers.sfs import SFSAnalysis


@pytest.fixture
def solver():
    module = compile_c("""
        int g; int arr[3];
        int main() { g = 1; arr[0] = 2; return g; }
    """)
    pipeline = AnalysisPipeline(module)
    return module, SFSAnalysis(pipeline.svfg())


class TestStrongUpdateTarget:
    def test_single_singleton_is_su(self, solver):
        module, analysis = solver
        g = next(o for o in module.objects if o.name == "g")
        assert g.is_singleton
        assert analysis.strong_update_target(1 << g.id) == g.id

    def test_multiple_targets_never_su(self, solver):
        module, analysis = solver
        g = next(o for o in module.objects if o.name == "g")
        arr = next(o for o in module.objects if o.name == "arr")
        assert analysis.strong_update_target((1 << g.id) | (1 << arr.id)) is None

    def test_non_singleton_never_su(self, solver):
        module, analysis = solver
        arr = next(o for o in module.objects if o.name == "arr")
        assert not arr.is_singleton  # arrays collapse
        assert analysis.strong_update_target(1 << arr.id) is None

    def test_empty_mask_never_su(self, solver):
        __, analysis = solver
        assert analysis.strong_update_target(0) is None


class TestSolverStats:
    def test_total_time_sums_phases(self):
        stats = SolverStats(pre_time=1.5, solve_time=2.5)
        assert stats.total_time() == 4.0

    def test_vsfs_result_carries_both_phases(self):
        module = compile_c("int *g; int x; int main() { g = &x; return 0; }")
        result = AnalysisPipeline(module).vsfs()
        assert result.stats.pre_time > 0
        assert result.stats.solve_time > 0
        assert result.stats.analysis == "vsfs"


class TestResultHelpers:
    def test_snapshot_skips_empty(self):
        module = compile_c("int *g; int x; int main() { g = &x; return 0; }")
        result = AnalysisPipeline(module).vsfs()
        snapshot = result.snapshot()
        assert snapshot and all(mask for mask in snapshot.values())

    def test_points_to_unregistered_variable_empty(self):
        from repro.ir.values import Variable

        module = compile_c("int main() { return 0; }")
        result = AnalysisPipeline(module).vsfs()
        assert result.points_to(Variable("ghost")) == set()

    def test_may_alias_symmetric(self):
        module = compile_c("""
            int x;
            void sink_a(int *p) { }
            void sink_b(int *p) { }
            int main() { sink_a(&x); sink_b(&x); return 0; }
        """)
        result = AnalysisPipeline(module).vsfs()
        a = module.functions["sink_a"].params[0]
        b = module.functions["sink_b"].params[0]
        assert result.may_alias(a, b) and result.may_alias(b, a)

"""Integration tests for the top-level public API (repro.pipeline)."""

import pytest

from repro import AnalysisPipeline, analyze, compile_c, module_from
from repro.analysis.andersen import AndersenResult
from repro.errors import AnalysisError
from repro.solvers.base import FlowSensitiveResult

SRC = "int *g; int x; int main() { g = &x; return 0; }"

IR_SRC = """
func @main() {
entry:
  %p = alloca x
  %q = load %p
  ret
}
"""


class TestAnalyzeEntryPoint:
    def test_vsfs_default(self):
        result = analyze(SRC)
        assert isinstance(result, FlowSensitiveResult)
        assert result.stats.analysis == "vsfs"

    @pytest.mark.parametrize("name,cls", [
        ("ander", AndersenResult),
        ("sfs", FlowSensitiveResult),
        ("vsfs", FlowSensitiveResult),
        ("icfg-fs", FlowSensitiveResult),
    ])
    def test_all_analyses(self, name, cls):
        assert isinstance(analyze(SRC, analysis=name), cls)

    def test_ir_language(self):
        result = analyze(IR_SRC, analysis="vsfs", language="ir")
        module = result.module
        p = next(v for v in module.variables if v.name == "p")
        assert {o.name for o in result.points_to(p)} == {"x"}

    def test_prepared_module_accepted(self):
        module = compile_c(SRC)
        result = analyze(module, analysis="sfs")
        assert result.module is module

    def test_unknown_analysis_rejected(self):
        with pytest.raises(AnalysisError, match="unknown analysis"):
            analyze(SRC, analysis="magic")

    def test_unknown_language_rejected(self):
        with pytest.raises(AnalysisError, match="unknown language"):
            module_from(SRC, language="fortran")


class TestPipelineCaching:
    def test_stages_cached(self):
        pipeline = AnalysisPipeline(compile_c(SRC))
        assert pipeline.andersen() is pipeline.andersen()
        assert pipeline.memssa() is pipeline.memssa()
        assert pipeline.svfg() is pipeline.svfg()
        assert pipeline.versioning() is pipeline.versioning()

    def test_svfg_copy_is_a_fresh_view(self):
        pipeline = AnalysisPipeline(compile_c(SRC))
        shared = pipeline.svfg()
        assert shared.copy() is not shared.copy()
        assert shared.copy().nodes is shared.nodes

    def test_solvers_do_not_mutate_shared_svfg(self):
        pipeline = AnalysisPipeline(compile_c("""
            struct node { int v; };
            struct node *cb(struct node *a, struct node *b) { return a; }
            fnptr h;
            int main() { h = cb; struct node *r = h(null, null); return 0; }
        """))
        shared = pipeline.svfg()
        edges_before = shared.num_indirect_edges()
        pipeline.sfs()  # runs on its own view
        assert shared.num_indirect_edges() == edges_before

    def test_repeated_solves_agree(self):
        pipeline = AnalysisPipeline(compile_c(SRC))
        assert pipeline.vsfs().snapshot() == pipeline.vsfs().snapshot()

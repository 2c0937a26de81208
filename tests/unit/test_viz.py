"""Unit tests for the DOT exporters."""

import pytest

from repro.core.versioning import ObjectVersioning
from repro.frontend import compile_c
from repro.pipeline import AnalysisPipeline
from repro.viz.dot import callgraph_to_dot, cfg_to_dot, svfg_to_dot

SRC = """
int *g; int x;
void helper() { g = &x; }
int main(int c) {
    if (c) { helper(); }
    int *a; a = g;
    return 0;
}
"""


@pytest.fixture(scope="module")
def pipeline():
    return AnalysisPipeline(compile_c(SRC))


class TestCFGDot:
    def test_blocks_and_edges_present(self, pipeline):
        dot = cfg_to_dot(pipeline.module.functions["main"])
        assert dot.startswith('digraph "cfg_main"')
        assert '"entry"' in dot
        assert "->" in dot
        assert dot.rstrip().endswith("}")

    def test_labels_escaped(self):
        # names with quotes must not break the DOT syntax
        module = compile_c('int g; int main() { g = 1; return g; }')
        dot = cfg_to_dot(module.functions["main"])
        assert dot.count('"') % 2 == 0


class TestCallGraphDot:
    def test_edges_rendered(self, pipeline):
        result = pipeline.vsfs()
        dot = callgraph_to_dot(result.callgraph)
        assert '"main" -> "helper"' in dot
        assert '"__module_init__" -> "main"' in dot


class TestSVFGDot:
    def test_nodes_and_indirect_edges(self, pipeline):
        dot = svfg_to_dot(pipeline.svfg())
        assert "color=blue" in dot          # indirect edges
        assert "peripheries=2" in dot       # store nodes double-lined

    def test_version_labels(self, pipeline):
        svfg = pipeline.svfg()
        versioning = ObjectVersioning(svfg, keep_all_versions=True).run()
        dot = svfg_to_dot(svfg, versioning=versioning)
        assert "k" in dot and "->k" in dot  # κ-annotated edge labels

    def test_function_filter(self, pipeline):
        dot = svfg_to_dot(pipeline.svfg(), only_function="helper")
        assert "helper" in dot
        assert "inst l" in dot

    def test_direct_edges_toggle(self, pipeline):
        with_direct = svfg_to_dot(pipeline.svfg(), include_direct=True)
        without = svfg_to_dot(pipeline.svfg(), include_direct=False)
        assert with_direct.count("->") > without.count("->")

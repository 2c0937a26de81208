"""Integration tests: warm re-solve end to end (DESIGN.md §14).

The acceptance bar of the function-granular refactor: after an edit to
one function, a warm run recomputes only the dirty closure and is
**bit-identical** to a cold solve of the edited program — for SFS and
VSFS, in-process and through the CLI store (serial, and SFS ``--jobs 2``,
which collapses onto the serial twin), and through the service's
``update_source`` op.
"""

import json

import pytest

from repro.core.vsfs import VSFSAnalysis
from repro.incremental import build_payload, node_flow_graph, plan_warm
from repro.pipeline import AnalysisPipeline
from repro.solvers.sfs import SFSAnalysis

SOLVERS = {"sfs": SFSAnalysis, "vsfs": VSFSAnalysis}

#: Pointer-rippling edit: set() gains a conditional store of &z, so the
#: edit's effects genuinely propagate into main's load of g.
PTR_BASE = """
int *g; int x; int y; int z;
void set(int *p) { g = p; }
void other(int *q) { *q = 5; }
int f3() { int w; other(&w); return w; }
int main() { set(&x); int *a; a = g; set(&y); f3(); return 0; }
"""
PTR_EDIT = PTR_BASE.replace("void set(int *p) { g = p; }",
                            "void set(int *p) { g = p; if (z) { g = &z; } }")

#: Pure-scalar edit: f2 changes internally, no pointer behaviour moves —
#: the dirty closure must be exactly {f2}.
SCALAR_BASE = """
int *g; int x;
void set(int *p) { g = p; }
int f1() { int a; a = 1; return a; }
int f2() { int b; b = 2; return b; }
int main() { set(&x); f1(); f2(); return 0; }
"""
SCALAR_EDIT = SCALAR_BASE.replace(
    "int f2() { int b; b = 2; return b; }",
    "int f2() { int b; b = 2; b = b + 3; return b; }")


def snapshot(result):
    return {v.name: sorted(o.name for o in result.points_to(v))
            for v in result.module.variables if result.pts_mask(v)}


def solve_and_capture(src, analysis):
    pipeline = AnalysisPipeline.from_source(src)
    svfg = pipeline.svfg()
    solver = SOLVERS[analysis](svfg)
    result = solver.run()
    node_in, node_out = solver.export_node_memory()
    payload = build_payload(svfg, pipeline.modref(), result, node_in,
                            node_out, node_flow_graph(solver.svfg),
                            analysis, pipeline.andersen())
    return result, payload


def warm_solver(payload, src, analysis):
    """A solver of *src* warm-started from *payload* (not yet run), its
    plan, and its pipeline."""
    pipeline = AnalysisPipeline.from_source(src)
    plan = plan_warm(payload, pipeline.svfg(), pipeline.modref(),
                     analysis, pipeline.andersen())
    assert plan.usable, plan.fallback_reason
    solver = SOLVERS[analysis](pipeline.svfg())
    solver.warm_start(plan)
    return solver, plan, pipeline


def warm_vs_cold(payload, src, analysis):
    solver, plan, pipeline = warm_solver(payload, src, analysis)
    cold = SOLVERS[analysis](pipeline.svfg()).run()
    warm = solver.run()
    return plan, cold, warm


class TestWarmMatchesCold:
    @pytest.mark.parametrize("analysis", ["sfs", "vsfs"])
    def test_pointer_edit_bit_identical(self, analysis):
        _, payload = solve_and_capture(PTR_BASE, analysis)
        plan, cold, warm = warm_vs_cold(payload, PTR_EDIT, analysis)
        assert snapshot(cold) == snapshot(warm)
        assert cold.callgraph.num_edges() == warm.callgraph.num_edges()
        assert plan.stats.regions_reused > 0

    @pytest.mark.parametrize("analysis", ["sfs", "vsfs"])
    def test_scalar_edit_dirties_exactly_the_function(self, analysis):
        _, payload = solve_and_capture(SCALAR_BASE, analysis)
        plan, cold, warm = warm_vs_cold(payload, SCALAR_EDIT, analysis)
        assert snapshot(cold) == snapshot(warm)
        assert plan.dirty_functions == {"f2"}
        assert plan.stats.regions_recomputed == 1

    @pytest.mark.parametrize("analysis", ["sfs", "vsfs"])
    def test_identical_source_reuses_everything(self, analysis):
        _, payload = solve_and_capture(PTR_BASE, analysis)
        plan, cold, warm = warm_vs_cold(payload, PTR_BASE, analysis)
        assert snapshot(cold) == snapshot(warm)
        assert plan.dirty_functions == set()
        assert plan.stats.regions_reused == plan.stats.regions_total


class TestCLIWarmPath:
    @pytest.fixture
    def prog(self, tmp_path):
        path = tmp_path / "prog.c"
        path.write_text(SCALAR_BASE)
        return path

    def run_cli(self, argv, capsys):
        from repro.cli import main as cli_main

        assert cli_main(argv) == 0
        return capsys.readouterr()

    def pts_lines(self, out):
        return [line for line in out.splitlines() if line.startswith("pt(")]

    def test_store_edit_rerun_is_warm_and_identical(self, prog, tmp_path,
                                                    capsys):
        store = str(tmp_path / "store")
        fresh = str(tmp_path / "fresh")
        report = str(tmp_path / "warm.json")
        argv = ["-vfspta", str(prog), "--dump-pts"]
        self.run_cli(argv + ["--store", store], capsys)

        prog.write_text(SCALAR_EDIT)
        warm_out = self.run_cli(
            argv + ["--store", store, "--report-json", report], capsys)
        cold_out = self.run_cli(argv + ["--store", fresh], capsys)
        assert self.pts_lines(cold_out.out) == self.pts_lines(warm_out.out)

        with open(report) as handle:
            payload = json.load(handle)
        incr = payload["incremental"]
        assert incr["fallback_reason"] is None
        assert incr["dirty_functions"] == ["f2"]
        assert incr["regions_reused"] > 0
        assert payload["report"]["incremental"] == incr
        assert not payload["store_hit"]

    def test_jobs_2_collapses_to_serial_warm(self, prog, tmp_path, capsys):
        store = str(tmp_path / "store")
        report = str(tmp_path / "warm-par.json")
        argv = ["-fspta", str(prog), "--dump-pts", "--store", store]
        self.run_cli(argv, capsys)

        prog.write_text(SCALAR_EDIT)
        warm_out = self.run_cli(
            argv + ["--jobs", "2", "--report-json", report], capsys)

        fresh = str(tmp_path / "fresh")
        cold_out = self.run_cli(
            ["-fspta", str(prog), "--dump-pts", "--store", fresh], capsys)
        assert self.pts_lines(cold_out.out) == self.pts_lines(warm_out.out)

        with open(report) as handle:
            payload = json.load(handle)
        incr = payload["incremental"]
        assert incr["fallback_reason"] is None
        assert incr["dirty_functions"] == ["f2"]
        # The parallel stage collapsed onto its serial twin: degradation
        # without precision loss, audited on the heal trail.
        assert not payload["report"]["precision_lost"]
        assert any(heal.get("reason") == "warm-start"
                   for heal in payload["self_heal"])


class TestServiceUpdateSource:
    def test_update_source_answers_warm_and_identical(self):
        from repro.service.server import AnalysisService, ServiceConfig

        service = AnalysisService(ServiceConfig(workers=1)).start()
        try:
            first = service.handle_line(
                {"op": "analyze", "id": "1", "analysis": "vsfs",
                 "program": PTR_BASE}).to_dict()
            assert first["ok"], first
            warm = service.handle_line(
                {"op": "update_source", "id": "2", "analysis": "vsfs",
                 "program": PTR_EDIT}).to_dict()
            assert warm["ok"], warm
            incr = warm["result"]["incremental"]
            assert incr["fallback_reason"] is None
            assert incr["regions_reused"] > 0
        finally:
            service.drain(reply_grace_s=2)

        cold_service = AnalysisService(ServiceConfig(workers=1)).start()
        try:
            cold = cold_service.handle_line(
                {"op": "analyze", "id": "3", "analysis": "vsfs",
                 "program": PTR_EDIT}).to_dict()
        finally:
            cold_service.drain(reply_grace_s=2)
        assert cold["result"]["masks"] == warm["result"]["masks"]

    def test_update_source_rejects_andersen(self):
        from repro.service.server import AnalysisService, ServiceConfig

        service = AnalysisService(ServiceConfig(workers=1)).start()
        try:
            bad = service.handle_line(
                {"op": "update_source", "id": "4", "analysis": "ander",
                 "program": PTR_BASE}).to_dict()
        finally:
            service.drain(reply_grace_s=2)
        assert not bad["ok"]
        assert bad["error"]["type"] == "InvalidRequest"

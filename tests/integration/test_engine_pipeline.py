"""Integration tests: stage-graph engine behind the public pipeline API.

Covers the sharing hazard the engine refactor fixed (solvers used to
mutate the pipeline's cached SVFG via on-the-fly call graph resolution),
the trace surfaced through ``analyze``/CLI, and the CLI stage cache.
"""

import json

import pytest

from repro.cli import main as cli_main
from repro.ir.instructions import CallInst
from repro.pipeline import AnalysisPipeline, analyze

SRC = """
int *g; int x; int y;
void set(int *p) { g = p; }
int main() { set(&x); int *a; a = g; set(&y); return 0; }
"""

# Indirect calls: on-the-fly resolution grows every solver's SVFG view.
INDIRECT_SRC = """
struct node { int v; struct node *f0; };
struct node *g;
struct node *cb1(struct node *a, struct node *b) { g = a; return b; }
struct node *cb2(struct node *a, struct node *b) { g = b; return a; }
fnptr h;
int main(int c) {
    struct node *n = (struct node*)malloc(sizeof(struct node));
    if (c) { h = cb1; } else { h = cb2; }
    struct node *r = h(n, g);
    struct node *s = r->f0;
    return 0;
}
"""


class TestSolverIsolation:
    def test_sfs_then_vsfs_on_one_pipeline_matches_fresh(self):
        shared = AnalysisPipeline.from_source(SRC)
        sfs_shared = shared.sfs().snapshot()
        vsfs_shared = shared.vsfs().snapshot()

        sfs_fresh = AnalysisPipeline.from_source(SRC).sfs().snapshot()
        vsfs_fresh = AnalysisPipeline.from_source(SRC).vsfs().snapshot()

        assert sfs_shared == sfs_fresh
        assert vsfs_shared == vsfs_fresh

    def test_order_independence(self):
        forwards = AnalysisPipeline.from_source(SRC)
        backwards = AnalysisPipeline.from_source(SRC)
        vsfs_after_sfs = (forwards.sfs(), forwards.vsfs().snapshot())[1]
        vsfs_first = backwards.vsfs().snapshot()
        assert vsfs_after_sfs == vsfs_first

    def test_shared_svfg_not_mutated_by_solves(self):
        """Every solver reads the shared SVFG and versioning directly —
        serial, warm-started, resumed and parallel SFS — and none of them
        leaves a trace on either (OTF edges and constraints live in each
        solver's own view and overlay)."""
        from repro.core.vsfs import VSFSAnalysis
        from repro.errors import BudgetExceeded
        from repro.incremental.deps import node_flow_graph
        from repro.incremental.solution import build_payload, plan_warm
        from repro.parallel.driver import fork_available, solve_parallel
        from repro.runtime import Budget
        from repro.solvers.sfs import SFSAnalysis
        from tests.digests import svfg_digest, versioning_digest

        pipeline = AnalysisPipeline.from_source(INDIRECT_SRC)
        svfg = pipeline.svfg()
        versioning = pipeline.versioning()

        def digests():
            return svfg_digest(svfg), versioning_digest(versioning)

        before = digests()
        # Views copy an object's table before extending it: the built
        # graph's tables must survive every solve as the same objects.
        tables = dict(svfg.ind_edges)
        contents = {oid: dict(table) for oid, table in tables.items()}
        direct = (list(svfg.direct_succs), list(svfg.direct_preds))
        cold = VSFSAnalysis(svfg, versioning).run()
        assert cold.stats.indirect_calls_resolved > 0
        assert SFSAnalysis(svfg).run().snapshot() == cold.snapshot()

        solver = VSFSAnalysis(svfg, versioning)
        result = solver.run()
        node_in, node_out = solver.export_node_memory()
        payload = build_payload(svfg, pipeline.modref(), result, node_in,
                                node_out, node_flow_graph(solver.svfg),
                                "vsfs", pipeline.andersen())
        plan = plan_warm(payload, svfg, pipeline.modref(), "vsfs",
                         pipeline.andersen())
        assert plan.usable, plan.fallback_reason
        warm = VSFSAnalysis(svfg, versioning)
        warm.warm_start(plan)
        assert warm.run().snapshot() == cold.snapshot()

        interrupted = VSFSAnalysis(svfg, versioning,
                                   meter=Budget(max_steps=5).meter())
        with pytest.raises(BudgetExceeded):
            interrupted.run()
        state = interrupted.snapshot_state()
        resumed = VSFSAnalysis(svfg, versioning)
        resumed.restore_state(state, interrupted.stats.nodes_processed)
        assert resumed.run().snapshot() == cold.snapshot()

        modes = ["inline"] + (["fork"] if fork_available() else [])
        for mode in modes:
            par = solve_parallel(svfg, "sfs", jobs=2, mode=mode)
            assert par.snapshot() == cold.snapshot()
        assert digests() == before
        assert svfg.ind_edges.keys() == tables.keys()
        for oid, table in tables.items():
            assert svfg.ind_edges[oid] is table
            assert table == contents[oid]
        assert (svfg.direct_succs, svfg.direct_preds) == direct

    def test_two_vsfs_solves_count_the_same_work(self):
        pipeline = AnalysisPipeline.from_source(INDIRECT_SRC)
        first = pipeline.vsfs().stats
        second = pipeline.vsfs().stats
        assert first.indirect_calls_resolved > 0
        assert (first.propagations, first.unions) == \
            (second.propagations, second.unions)

    def test_repeated_solves_identical(self):
        pipeline = AnalysisPipeline.from_source(SRC)
        assert pipeline.vsfs().snapshot() == pipeline.vsfs().snapshot()

    def test_svfg_view_shares_every_row(self):
        pipeline = AnalysisPipeline.from_source(INDIRECT_SRC)
        base = pipeline.svfg()
        base_succs = base.indirect_succs()  # cached before the copy
        view = base.copy()
        assert view is not base
        assert view.nodes is base.nodes
        assert view.direct_succs is base.direct_succs
        assert view.direct_preds is base.direct_preds
        assert view.ind_edges is base.ind_edges
        assert view.wired == {} and view.wired is not base.wired
        assert view.wired_srcs is not base.wired_srcs
        call = next(inst for inst in base.inst_node
                    if isinstance(inst, CallInst) and inst.is_indirect())
        target = pipeline.module.functions["cb1"]
        assert not base.is_connected(call, target)
        touched = view.connect_callsite(call, target)
        assert touched and view.is_connected(call, target)
        assert not base.is_connected(call, target)
        # The overlay holds exactly the wired rows: each is the built row
        # plus its new destination, and the build shows none of them.
        edges = list(view.call_edges(call, target))
        assert touched == [src for src, __, __ in edges]
        expected = {}
        for src, dst, oid in edges:
            expected.setdefault(oid, {})[src] = base.row(src, oid) + (dst,)
        assert view.wired == expected
        assert view.wired_srcs == set(touched)
        assert base.wired == {} and base.wired_srcs == set()
        indirect = [(src, dst, oid) for src, dst, oid in edges
                    if oid is not None]
        assert indirect
        assert view.num_indirect_edges() \
            == base.num_indirect_edges() + len(indirect)
        assert view.num_direct_edges() \
            == base.num_direct_edges() + len(edges) - len(indirect)
        for src, dst, oid in indirect:
            assert dst in view.indirect_succs()[src][oid]
            assert (src, oid) in view.indirect_preds()[dst]
            assert dst not in base_succs[src].get(oid, ())
            assert (src, oid) not in base.indirect_preds()[dst]
        for src, dst, oid in edges:
            if oid is None:
                assert dst in view.row(src) and dst not in base.row(src)
        assert base.indirect_succs() is base_succs

    @pytest.mark.parametrize("program", ["indirect", "tmux"])
    def test_solved_view_flow_adds_resolved_call_edges(self, program):
        """A solved view's node flow is the built graph's plus the edges
        of every call the solve resolved (the daemon's warm capture)."""
        from repro.bench.workloads import suite_program
        from repro.core.vsfs import VSFSAnalysis
        from repro.incremental.deps import node_flow_graph
        from repro.solvers.sfs import SFSAnalysis

        pipeline = (AnalysisPipeline.from_source(INDIRECT_SRC)
                    if program == "indirect"
                    else AnalysisPipeline(suite_program(program)))
        svfg = pipeline.svfg()
        built = node_flow_graph(svfg)
        for solver in (SFSAnalysis(svfg),
                       VSFSAnalysis(svfg, pipeline.versioning())):
            assert solver.run().stats.indirect_calls_resolved > 0
            expected = {nid: set(succs) for nid, succs in built.items()}
            for call, callee in solver.callgraph.call_edges():
                for src, dst, __ in svfg.call_edges(call, callee):
                    if src != dst:
                        expected.setdefault(src, set()).add(dst)
            assert node_flow_graph(solver.svfg) == {
                nid: sorted(succs) for nid, succs in expected.items()}
        assert node_flow_graph(svfg) == built


@pytest.fixture
def versioning_calls(monkeypatch):
    """Count ``version_objects`` calls through every repro binding."""
    import sys

    import repro.core.versioning as versioning_module

    original = versioning_module.version_objects
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is not None and (name == "repro"
                                   or name.startswith("repro.")):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    return calls


class TestOneVersioningPerSolve:
    """Serial, ``--jobs`` and daemon VSFS solves all read the one cached
    versioning stage: exactly one ``version_objects`` call per solve."""

    def test_serial_ladder_solve(self, versioning_calls):
        from repro.runtime.degrade import solve_with_ladder

        pipeline = AnalysisPipeline.from_source(INDIRECT_SRC)
        result = solve_with_ladder(pipeline, analysis="vsfs")
        assert result.precision_level == "vsfs"
        assert len(versioning_calls) == 1

    def test_jobs_2(self, versioning_calls, tmp_path, capsys):
        # VSFS is never sharded: --jobs 2 runs the one serial solve.
        path = tmp_path / "prog.c"
        path.write_text(INDIRECT_SRC)
        assert cli_main(["-vfspta", str(path), "--jobs", "2",
                         "--parallel-mode", "inline"]) == 0
        capsys.readouterr()
        assert len(versioning_calls) == 1

    def test_daemon_analyze_and_update_source(self, versioning_calls,
                                              tmp_path):
        from repro.service.server import AnalysisService, ServiceConfig

        edited = INDIRECT_SRC.replace("g = a; return b;",
                                      "g = a; g = b; return b;")
        service = AnalysisService(ServiceConfig(
            workers=1, store_dir=str(tmp_path / "store"))).start()
        try:
            first = service.handle_line(
                {"op": "analyze", "id": "1", "analysis": "vsfs",
                 "program": INDIRECT_SRC}).to_dict()
            assert first["ok"], first
            assert len(versioning_calls) == 1
            warm = service.handle_line(
                {"op": "update_source", "id": "2", "analysis": "vsfs",
                 "program": edited}).to_dict()
            assert warm["ok"], warm
        finally:
            service.drain(reply_grace_s=2)
        assert len(versioning_calls) == 2


class TestTraceSurfaces:
    def test_analyze_report_carries_stage_trace(self):
        result = analyze(SRC, analysis="vsfs")
        trace = result.report.stage_trace
        assert trace is not None
        records = {r.stage: r for r in trace.records}
        assert records["solve:vsfs"].main_phase
        assert not records["svfg"].main_phase
        stages = result.report.to_dict()["stages"]
        assert any(s["stage"] == "solve:vsfs" and s["main_phase"]
                   for s in stages)

    def test_pipeline_trace_property(self):
        pipeline = AnalysisPipeline.from_source(SRC)
        pipeline.sfs()
        assert pipeline.trace.main_phase_wall() > 0.0
        assert pipeline.trace.substrate_wall() > 0.0


class TestCLI:
    @pytest.fixture
    def c_file(self, tmp_path):
        path = tmp_path / "prog.c"
        path.write_text(SRC)
        return str(path)

    def test_trace_flag_prints_breakdown(self, c_file, capsys):
        assert cli_main(["-vfspta", c_file, "--trace"]) == 0
        out = capsys.readouterr().out
        assert "--- stage trace ---" in out
        assert "excluded from main phase" in out
        assert "solve:vsfs" in out

    def test_report_json_embeds_stages(self, c_file, tmp_path, capsys):
        report = str(tmp_path / "report.json")
        assert cli_main(["-vfspta", c_file, "--report-json", report]) == 0
        capsys.readouterr()
        with open(report) as handle:
            payload = json.load(handle)
        stages = payload["stages"]
        assert {s["stage"] for s in stages} >= {"prepare", "andersen",
                                                "svfg", "solve:vsfs"}
        assert all(not s["main_phase"] for s in stages
                   if not s["stage"].startswith("solve:"))

    def test_store_run_twice_hits_stage_cache(self, c_file, tmp_path,
                                              capsys):
        """A second analysis of the program on one store loads Andersen
        from the stage cache and answers like a store-less run."""
        store = str(tmp_path / "store")
        report = str(tmp_path / "second.json")

        def pts(argv):
            assert cli_main(argv) == 0
            out = capsys.readouterr().out
            return [l for l in out.splitlines() if l.startswith("pt(")]

        pts(["-vfspta", c_file, "--store", store])
        warm = pts(["-fspta", c_file, "--store", store, "--dump-pts",
                    "--report-json", report])
        fresh = pts(["-fspta", c_file, "--dump-pts"])
        assert warm and warm == fresh

        with open(report) as handle:
            payload = json.load(handle)
        assert not payload["store_hit"]
        stages = {s["stage"]: s for s in payload["stages"]}
        assert stages["andersen"]["cache"] == "codec"
        for name in ("modref", "memssa", "svfg"):
            assert stages[name]["cache"] is None, name


class TestRemovedPassesModule:
    def test_deprecated_alias_is_gone(self):
        """The repro.passes.pipeline shim finished its deprecation cycle;
        the import must now fail so stragglers migrate to
        repro.passes.prepare."""
        import importlib
        import sys

        sys.modules.pop("repro.passes.pipeline", None)
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.passes.pipeline")

    def test_prepare_module_home(self):
        from repro.passes import prepare_module as from_package
        from repro.passes.prepare import prepare_module

        assert from_package is prepare_module

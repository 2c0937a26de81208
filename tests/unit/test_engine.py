"""Unit tests for the stage-graph engine (repro.engine)."""

import pytest

from repro.engine import Engine, SOLVE_LEVELS, StageContext, default_stages
from repro.errors import AnalysisError, BudgetExceeded
from repro.frontend import compile_c
from repro.runtime.budget import Budget

SRC = """
int *g; int x; int y;
int main() { g = &x; int *a; a = g; g = &y; return 0; }
"""


def make_engine(source=SRC):
    ctx = StageContext(module=None, source=source, language="c")
    return Engine(ctx)


class TestEnsure:
    def test_topological_order(self):
        engine = make_engine()
        engine.ensure("svfg")
        # Every upstream stage materialised exactly once, in the memo.
        for name in ("parse", "prepare", "andersen", "modref", "memssa",
                     "svfg"):
            assert name in engine.ctx.artifacts

    def test_memoised(self):
        engine = make_engine()
        first = engine.ensure("svfg")
        assert engine.ensure("svfg") is first
        assert engine.ensure("andersen") is engine.ensure("andersen")

    def test_unknown_stage_rejected(self):
        with pytest.raises(AnalysisError, match="unknown stage"):
            make_engine().ensure("magic")

    def test_prepared_module_short_circuits_parse(self):
        module = compile_c(SRC)
        ctx = StageContext(module=module, source=None)
        engine = Engine(ctx)
        assert engine.ensure("prepare") is module

    def test_versioning_built_on_shared_svfg(self):
        engine = make_engine()
        versioning = engine.ensure("versioning")
        assert versioning.svfg is engine.ctx.artifacts["svfg"]


class TestSolve:
    def test_all_levels_produce_results(self):
        engine = make_engine()
        for level in SOLVE_LEVELS:
            assert engine.solve(level) is not None

    def test_andersen_plain_call_memoises(self):
        engine = make_engine()
        assert engine.solve("andersen") is engine.ensure("andersen")

    def test_andersen_meter_reuses_memo(self):
        engine = make_engine()
        memo = engine.ensure("andersen")
        meter = Budget(wall_seconds=60.0).meter()
        meter.start()
        try:
            assert engine.solve("andersen", meter=meter) is memo
        finally:
            meter.stop()

    def test_unknown_level_rejected(self):
        with pytest.raises(AnalysisError, match="unknown solve level"):
            make_engine().solve("magic")

    def test_meter_threads_through_to_solver(self):
        engine = make_engine()
        engine.ensure("svfg")  # substrate outside the governed window
        meter = Budget(max_steps=1).meter()
        meter.start()
        try:
            with pytest.raises(BudgetExceeded):
                engine.solve("vsfs", meter=meter)
        finally:
            meter.stop()

    def test_governed_solve_matches_ungoverned(self):
        governed_engine = make_engine()
        meter = Budget(wall_seconds=300.0).meter()
        meter.start()
        try:
            governed = governed_engine.solve("vsfs", meter=meter)
        finally:
            meter.stop()
        assert governed.snapshot() == make_engine().solve("vsfs").snapshot()


class TestTrace:
    def test_main_phase_split(self):
        engine = make_engine()
        engine.solve("vsfs")
        records = {rec.stage: rec for rec in engine.trace.records}
        assert records["solve:vsfs"].main_phase
        for name in ("parse", "prepare", "andersen", "modref", "memssa",
                     "svfg"):
            assert not records[name].main_phase

    def test_substrate_excluded_from_main_phase_wall(self):
        engine = make_engine()
        engine.solve("sfs")
        trace = engine.trace
        total = sum(rec.wall_s for rec in trace.records)
        assert trace.substrate_wall() + trace.main_phase_wall() == \
            pytest.approx(total)

    def test_render_mentions_exclusion(self):
        engine = make_engine()
        engine.solve("sfs")
        assert "excluded from main phase" in engine.trace.render()

    def test_to_dict_schema(self):
        engine = make_engine()
        engine.solve("sfs")
        for record in engine.trace.to_dict():
            assert set(record) >= {"stage", "main_phase", "wall_s", "steps",
                                   "cache", "cache_hit"}

    def test_stage_end_reports_collector_work(self, monkeypatch):
        import gc

        from repro.engine.stages import SVFGStage

        build = SVFGStage.run

        def collecting_build(self, ctx):
            gc.collect()
            return build(self, ctx)

        monkeypatch.setattr(SVFGStage, "run", collecting_build)
        engine = make_engine()
        engine.solve("sfs")
        records = {rec.stage: rec for rec in engine.trace.records}
        assert records["svfg"].detail["gc_collections"][2] >= 1
        for record in engine.trace.to_dict():
            counts = record["detail"]["gc_collections"]
            assert len(counts) == 3 and min(counts) >= 0
        assert " gc2 " in engine.trace.render()

    def test_external_hit_recorded(self):
        engine = make_engine()
        engine.record_external_hit("solve:vsfs", "result-store", nbytes=7)
        record = engine.trace.record_for("solve:vsfs")
        assert record.cache == "result-store"
        assert record.cache_hit
        assert record.main_phase

    def test_failed_stage_records_outcome(self):
        engine = make_engine()
        engine.ensure("svfg")
        meter = Budget(max_steps=1).meter()
        meter.start()
        try:
            with pytest.raises(BudgetExceeded):
                engine.solve("sfs", meter=meter)
        finally:
            meter.stop()
        record = engine.trace.record_for("solve:sfs")
        assert record.outcome == "BudgetExceeded"


class TestCollectorPause:
    """Substrate stages build with the cyclic collector paused."""

    def test_unforced_substrate_stage_collects_nothing(self, monkeypatch):
        import gc

        from repro.engine.stages import SVFGStage

        build = SVFGStage.run

        def allocating_build(self, ctx):
            # Enough container allocations to trip generation 0 often.
            garbage = [[index] for index in range(50_000)]
            del garbage
            return build(self, ctx)

        monkeypatch.setattr(SVFGStage, "run", allocating_build)
        assert gc.isenabled()
        engine = make_engine()
        engine.ensure("svfg")
        assert gc.isenabled()
        for record in engine.trace.records:
            assert record.detail["gc_collections"] == [0, 0, 0], record.stage

    def test_collector_enabled_after_stage_raises(self, monkeypatch):
        import gc

        from repro.engine.stages import SVFGStage

        def failing_build(self, ctx):
            assert not gc.isenabled()
            raise AnalysisError("build failed")

        monkeypatch.setattr(SVFGStage, "run", failing_build)
        engine = make_engine()
        with pytest.raises(AnalysisError, match="build failed"):
            engine.ensure("svfg")
        assert gc.isenabled()
        assert engine.trace.record_for("svfg").outcome == "AnalysisError"

    def test_callers_disabled_collector_stays_disabled(self):
        import gc

        gc.disable()
        try:
            make_engine().ensure("svfg")
            assert not gc.isenabled()
        finally:
            gc.enable()


class TestRegistry:
    def test_registry_is_the_substrate(self):
        """Solves are not stages: nothing caches or ensures them."""
        assert list(default_stages()) == [
            "parse", "prepare", "andersen", "modref", "memssa", "svfg",
            "versioning"]
        engine = make_engine()
        for level in SOLVE_LEVELS:
            with pytest.raises(AnalysisError, match="unknown stage"):
                engine.ensure(f"solve:{level}")


class TestIRHash:
    """The IR hash is one value per pipeline, computed only to persist."""

    @staticmethod
    def _count_hashes(monkeypatch):
        import sys

        from repro.ir import fingerprint

        original = fingerprint.module_fingerprint
        calls = []

        def counted(module):
            calls.append(module)
            return original(module)

        for name, module in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and \
                    getattr(module, "module_fingerprint", None) is original:
                monkeypatch.setattr(module, "module_fingerprint", counted)
        return calls

    def test_storeless_solve_hashes_nothing(self, monkeypatch):
        from repro.pipeline import AnalysisPipeline
        from repro.runtime.degrade import solve_with_ladder

        calls = self._count_hashes(monkeypatch)
        pipeline = AnalysisPipeline.from_source(SRC)
        result = solve_with_ladder(pipeline, "vsfs")
        assert result.precision_level == "vsfs"
        assert calls == []

    def test_storeless_warm_capture_hashes_nothing(self, monkeypatch):
        from repro.incremental import IncrementalStore
        from repro.pipeline import AnalysisPipeline, solve_stored

        calls = self._count_hashes(monkeypatch)
        incremental = IncrementalStore()
        for __ in range(2):  # a cold capture, then a warm start from it
            pipeline = AnalysisPipeline.from_source(SRC)
            result, hit = solve_stored(pipeline, "vsfs",
                                       incremental=incremental)
            assert not hit and result.precision_level == "vsfs"
        assert incremental.load("vsfs") is not None
        assert calls == []

    def test_store_run_hashes_once_per_pipeline(self, monkeypatch, tmp_path,
                                                capsys):
        from repro.cli import main

        program = tmp_path / "prog.c"
        program.write_text(SRC)
        store = str(tmp_path / "store")
        calls = self._count_hashes(monkeypatch)
        # A cold run (stage-cache miss and write, result-store miss and
        # put, warm-slot capture), then a second analysis that hits the
        # Andersen entry: one hash per run.
        assert main(["-vfspta", "--store", store, str(program)]) == 0
        assert len(calls) == 1
        assert main(["-fspta", "--store", store, str(program)]) == 0
        assert len(calls) == 2
        capsys.readouterr()

    def test_engine_memoises_the_hash(self):
        from repro.store import ir_fingerprint

        engine = make_engine()
        assert engine.ir_hash() is engine.ir_hash()
        assert engine.ir_hash() == ir_fingerprint(engine.ensure("prepare"))

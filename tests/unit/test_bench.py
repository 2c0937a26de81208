"""Unit tests for the benchmark harness modules."""

import math

import pytest

from repro.bench.metrics import measure_analysis
from repro.bench.tables import format_table2, format_table3, geometric_mean
from repro.bench.runner import run_suite_program, write_results_json
from repro.bench.workloads import (
    SUITE,
    WorkloadConfig,
    generate_program,
    generate_source,
    suite_program,
    suite_source_loc,
)
from repro.frontend import compile_c
from repro.ir.verifier import verify_module


class TestWorkloadGenerator:
    def test_deterministic(self):
        config = WorkloadConfig(seed=5)
        assert generate_source(config) == generate_source(config)

    def test_different_seeds_differ(self):
        a = generate_source(WorkloadConfig(seed=1))
        b = generate_source(WorkloadConfig(seed=2))
        assert a != b

    def test_generated_source_compiles_and_verifies(self):
        module = generate_program(WorkloadConfig(seed=11, num_functions=6))
        verify_module(module, ssa=True)

    @pytest.mark.parametrize("seed", range(20, 30))
    def test_many_seeds_compile(self, seed):
        config = WorkloadConfig(seed=seed, num_functions=4, stmts_per_function=6)
        module = generate_program(config)
        assert "main" in module.functions

    def test_indirect_rate_zero_means_no_fnptr_calls(self):
        from repro.ir.instructions import CallInst

        config = WorkloadConfig(seed=3, indirect_call_rate=0.0, num_handlers=0)
        module = generate_program(config)
        indirect = [i for f in module.functions.values() for i in f.instructions()
                    if isinstance(i, CallInst) and i.is_indirect()]
        assert indirect == []

    def test_size_knobs_scale_output(self):
        small = generate_source(WorkloadConfig(seed=1, num_functions=3,
                                               stmts_per_function=4))
        large = generate_source(WorkloadConfig(seed=1, num_functions=12,
                                               stmts_per_function=16))
        assert large.count("\n") > 2 * small.count("\n")

    def test_suite_has_fifteen_programs(self):
        assert len(SUITE) == 15
        assert list(SUITE)[0] == "du" and list(SUITE)[-1] == "hyriseConsole"

    def test_suite_sizes_grow(self):
        locs = [suite_source_loc(name) for name in SUITE]
        assert locs[-1] > 3 * locs[0]

    def test_suite_program_cached(self):
        assert suite_program("du") is suite_program("du")
        assert suite_program("du", cached=False) is not suite_program("du")


class TestMetrics:
    def test_measure_returns_stats(self):
        from repro.pipeline import AnalysisPipeline

        module = compile_c("int g; int main() { g = 1; return g; }")
        pipeline = AnalysisPipeline(module)
        pipeline.memssa()
        measurement = measure_analysis("vsfs", lambda: pipeline.vsfs())
        assert measurement.analysis == "vsfs"
        assert measurement.wall_time > 0
        assert measurement.peak_bytes > 0
        assert measurement.stats is not None
        assert measurement.stored_ptsets == measurement.stats.stored_ptsets

    def test_measure_without_stats(self):
        measurement = measure_analysis("misc", lambda: 42)
        assert measurement.stats is None
        assert measurement.propagations == 0


class TestTables:
    def test_geometric_mean(self):
        assert math.isclose(geometric_mean([2, 8]), 4.0)
        assert geometric_mean([]) == 0.0
        assert geometric_mean([0.0, -1.0]) == 0.0  # non-positive ignored

    def test_tables_render(self):
        result = run_suite_program("du")
        table2 = format_table2([result])
        table3 = format_table3([result])
        assert "du" in table2 and "LOC" in table2
        assert "Time diff." in table3 and "Average" in table3

    def test_runner_checks_equivalence(self):
        result = run_suite_program("du")
        assert result.precision_identical()
        assert result.svfg_stats.num_nodes > 0
        assert result.sfs.wall_time > 0
        assert result.time_speedup() > 0
        assert result.propagation_ratio() > 1.0

    def test_table3_shows_dedup_stats(self):
        result = run_suite_program("du")
        table3 = format_table3([result])
        assert "SFS uniq/ref" in table3 and "VSFS uniq/ref" in table3
        assert "U-cache hit" not in table3
        stats = result.sfs.stats
        assert f"{stats.unique_ptsets}/{stats.stored_ptsets}" in table3


class TestJSONExport:
    def test_write_results_json(self, tmp_path):
        import json

        result = run_suite_program("du")
        path = tmp_path / "BENCH_table3.json"
        write_results_json([result], str(path))
        payload = json.loads(path.read_text())
        assert payload["programs"] == ["du"]
        (record,) = payload["suite"]
        assert record["name"] == "du"
        assert record["precision_identical"] is True
        for solver in ("sfs", "vsfs"):
            stats = record[solver]
            assert stats["wall_time_s"] > 0
            assert stats["propagations"] > 0
            assert stats["unions"] > 0
            # Hash-consing's whole point: far fewer unique sets than
            # references to them.
            assert 0 < stats["unique_ptsets"] < stats["stored_ptsets"]
            assert stats["dedup_ratio"] > 1.0
            for gone in ("delta_kernel", "mde_batch", "batch_memo_hits",
                         "batch_cache_entries", "arena_masks",
                         "ptrepo_enabled", "union_cache_hits",
                         "union_cache_hit_rate", "interner_entries",
                         "dedup_resident_bytes"):
                assert gone not in stats
        assert record["ratios"]["propagation_ratio"] > 1.0

    def test_runner_main_writes_json(self, tmp_path, capsys):
        import json

        from repro.bench.runner import main

        path = tmp_path / "out.json"
        assert main(["--json", str(path), "du"]) == 0
        out = capsys.readouterr().out
        assert "Time diff." in out and str(path) in out
        assert json.loads(path.read_text())["programs"] == ["du"]

    def test_runner_main_rejects_unknown_program(self, capsys):
        from repro.bench.runner import main

        with pytest.raises(SystemExit):
            main(["not-a-program"])

    def test_runner_main_catches_json_eating_program_name(self, capsys):
        """``--json du`` binds "du" as the output PATH (argparse nargs='?');
        the runner must reject it instead of silently running all 15."""
        from repro.bench.runner import main

        with pytest.raises(SystemExit):
            main(["--json", "du"])
        assert "--json=PATH" in capsys.readouterr().err


class TestGovernedBenchRuns:
    def test_measurements_carry_run_reports(self):
        result = run_suite_program("du")
        for meas in (result.sfs, result.vsfs):
            assert meas.report is not None
            assert not meas.report.degraded
            assert meas.report.precision_level == meas.analysis
        assert result.precision_identical()

    def test_step_budget_degrades_to_floor(self):
        from repro.runtime import Budget

        result = run_suite_program("du", budget=Budget(max_steps=1),
                                   check_equivalence=False)
        for meas in (result.sfs, result.vsfs):
            assert meas.report.degraded
            assert meas.report.precision_level == "andersen"

    def test_json_embeds_run_reports(self, tmp_path):
        import json

        result = run_suite_program("du")
        path = tmp_path / "bench.json"
        write_results_json([result], str(path))
        payload = json.loads(path.read_text())
        for label in ("sfs", "vsfs"):
            report = payload["suite"][0][label]["run_report"]
            assert report["requested"] == label
            assert report["degraded"] is False
            assert report["attempts"][0]["outcome"] == "completed"

    def test_stage_records_say_which_run_made_them(self):
        result = run_suite_program("du", jobs=(2,))
        runs = {}
        for record in result.stages:
            runs.setdefault(record["stage"], []).append(record["run"])
        for name in ("solve:sfs", "solve:vsfs"):
            assert sorted(runs[name]) == ["memory", "time"], (name, runs)
        assert runs["solve:sfs-par"] == ["parallel"]
        assert "solve:vsfs-par" not in runs  # VSFS is never sharded
        assert list(result.parallel_runs) == ["sfs"]
        assert runs["svfg"] == ["setup"]
        assert runs["versioning"] == ["time"]  # built by the first VSFS solve
        for meas in (result.sfs, result.vsfs):
            report = meas.report.to_dict()
            assert report["wall_seconds_used"] > 0
            assert report["steps_used"] == meas.stats.nodes_processed > 0

    def test_runner_main_budget_flag_notes_degradation(self, capsys):
        from repro.bench.runner import main

        assert main(["du", "--max-steps", "1"]) == 0
        out = capsys.readouterr().out
        assert "NOTE: du: sfs degraded to andersen" in out
        assert "NOTE: du: vsfs degraded to andersen" in out

"""Tests of the end-to-end benchmark itself (run explicitly)::

    PYTHONPATH=src python3 -m pytest -q benchmarks/e2e/test_e2e_bench.py

They check that inputs follow from the seed alone, that the edit-mix
units cannot exchange values, that the edit script is what the README
says, the percentile sample-count rule, and that ``--smoke`` prints the
result line ``BENCHMARK.json`` promises.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import programs  # noqa: E402
import run  # noqa: E402

C_WORDS = {"struct", "int", "fnptr", "if", "else", "for", "do", "while",
           "return", "break", "continue", "null", "malloc", "sizeof", "val",
           "main"}


def test_seed_zero_is_the_suite_and_seeds_only_rename():
    workloads = pytest.importorskip("repro.bench.workloads")
    for name in programs.SUITE:
        assert programs.batch_source(name, 0) == \
            workloads.generate_source(workloads.SUITE[name])
        renamed = programs.batch_source(name, 7)
        assert renamed == programs.batch_source(name, 7)
        assert renamed != programs.batch_source(name, 8)
        assert renamed.replace("s7_", "") == programs.batch_source(name, 0)


def _unit_of(obj, prefixes):
    root = obj.base_object()
    if root.is_function():
        name = root.function.name
    elif getattr(root.alloc_site, "block", None) is not None:
        name = root.alloc_site.function.name
    else:
        name = root.name
    matches = [k for k, prefix in enumerate(prefixes)
               if name.startswith(prefix)]
    return matches[0] if matches else None


def test_composed_units_are_isolated():
    pipeline = pytest.importorskip("repro.pipeline")
    program = programs.ComposedProgram(list(programs.EDIT_UNITS), seed=3)
    prefixes = [unit.prefix for unit in program.units]
    for unit in program.units:
        words = set(re.findall(r"[A-Za-z_]\w*", "\n".join(unit.lines())))
        assert all(word.startswith(unit.prefix) for word in words - C_WORDS)
    result = pipeline.analyze(program.source(), "vsfs")
    pointing = 0
    for var in result.module.variables:
        units = {_unit_of(obj, prefixes) for obj in result.points_to(var)}
        units.discard(None)
        assert len(units) <= 1, (var.name, units)
        pointing += bool(units)
    assert pointing > 100


def test_edit_script_is_deterministic_and_stratified():
    base, script = programs.edit_script(5, run.EDITS)
    assert (base, script) == programs.edit_script(5, run.EDITS)
    other = programs.edit_script(6, run.EDITS)[1]
    assert [e.source for e in other] != [e.source for e in script]
    # Seeds share the positions: only names and constants differ.
    assert [(e.unit, e.function.replace("s6_", "")) for e in other] == \
        [(e.unit, e.function.replace("s5_", "")) for e in script]
    functions = sum(cfg.functions for cfg in programs.EDIT_UNITS)
    counts = Counter((edit.unit, edit.function) for edit in script)
    assert len(counts) == functions
    assert set(counts.values()) == {run.EDITS // functions}
    assert [edit.kind for edit in script[:4]] == \
        ["scalar", "pointer", "scalar", "pointer"]
    previous = base.splitlines()
    for edit in script:
        lines = edit.source.splitlines()
        inserted = ["    " + line for line in edit.statement]
        assert Counter(lines) - Counter(previous) == Counter(inserted)
        assert len(lines) == len(previous) + len(inserted)
        # The statement sits just before the edited function's return.
        start = next(i for i, line in enumerate(lines)
                     if line.startswith("struct")
                     and f"*{edit.function}(" in line)
        end = lines.index("}", start)
        assert lines[end - 1].startswith("    return ")
        assert lines[end - 1 - len(inserted):end - 1] == inserted
        previous = lines


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(48) == 75
    assert run.tail_percentile(144) == 90
    assert run.tail_percentile(1000) == 99
    assert run.tail_percentile(39) is None
    summary = run.latency_summary("update_s", [float(i) for i in range(48)])
    assert sorted(summary) == ["update_s_p50", "update_s_p75"]
    assert summary["update_s_p50"] == 23.5


def _declared(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def test_benchmark_json_matches_the_metrics_run_prints():
    assert _declared("end_to_end") == run.END_TO_END
    assert _declared("per_layer") == run.per_layer_units()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for __, workloads in run.SPANS.values():
        assert set(workloads) <= set(run.WORKLOADS)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_smoke_prints_the_promised_result_line(trace, section):
    if not (ROOT / "src" / "repro").is_dir():
        pytest.skip("program sources not present")
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "2",
         "--workload", "edit-mix" if trace else "vsfs-cold",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert {k: m["unit"] for k, m in line["metrics"].items()} == \
        _declared(section)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "sfs-cold",
         "--seed", "1", "--seconds", "25", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "{" not in done.stdout

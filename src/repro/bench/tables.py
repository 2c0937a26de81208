"""Text rendering of the paper's tables (II and III)."""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence

from repro.bench.runner import SuiteResult


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean, ignoring non-positive entries (paper's averaging)."""
    logs = [math.log(value) for value in values if value > 0]
    if not logs:
        return 0.0
    return math.exp(sum(logs) / len(logs))


def _render(headers: Sequence[str], rows: List[Sequence[object]]) -> str:
    table = [list(map(str, headers))] + [[str(cell) for cell in row] for row in rows]
    widths = [max(len(row[col]) for row in table) for col in range(len(headers))]
    lines = []
    for index, row in enumerate(table):
        lines.append("  ".join(cell.rjust(width) for cell, width in zip(row, widths)))
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def format_table2(results: List[SuiteResult]) -> str:
    """Benchmark characteristics (the paper's Table II columns)."""
    headers = ["Bench.", "LOC", "#Nodes", "#D.Edges", "#I.Edges",
               "Top-Level", "Addr-Taken", "Description"]
    rows = []
    for res in results:
        stats = res.svfg_stats
        rows.append([
            res.name, res.loc, stats.num_nodes, stats.num_direct_edges,
            stats.num_indirect_edges, stats.num_top_level_vars,
            stats.num_address_taken_vars, res.description,
        ])
    return _render(headers, rows)


def _dedup_cell(meas) -> str:
    """``unique/referenced`` stored sets, '-' without solver stats."""
    stats = meas.stats
    if stats is None:
        return "-"
    return f"{stats.unique_ptsets}/{stats.stored_ptsets}"


def format_table3(results: List[SuiteResult]) -> str:
    """Main results (the paper's Table III): time and memory, SFS vs VSFS,
    plus the dedup evidence (unique vs referenced stored sets)."""
    headers = [
        "Bench.",
        "Ander(s)", "SFS(s)", "VSFS ver.(s)", "VSFS main(s)",
        "SFS mem(KiB)", "VSFS mem(KiB)",
        "Time diff.", "Mem diff.", "Prop diff.", "Sets diff.",
        "SFS uniq/ref", "VSFS uniq/ref",
    ]
    rows = []
    time_diffs: List[float] = []
    mem_diffs: List[float] = []
    prop_diffs: List[float] = []
    set_diffs: List[float] = []
    for res in results:
        time_diff = res.time_speedup()
        mem_diff = res.memory_ratio()
        prop_diff = res.propagation_ratio()
        sets_diff = res.stored_sets_ratio()
        time_diffs.append(time_diff)
        mem_diffs.append(mem_diff)
        prop_diffs.append(prop_diff)
        set_diffs.append(sets_diff)
        rows.append([
            res.name,
            f"{res.andersen_time:.3f}",
            f"{res.sfs.wall_time:.3f}",
            f"{res.vsfs.stats.pre_time:.3f}" if res.vsfs.stats else "-",
            f"{res.vsfs_main_time():.3f}",
            f"{res.sfs.peak_bytes / 1024:.0f}",
            f"{res.vsfs.peak_bytes / 1024:.0f}",
            f"{time_diff:.2f}x",
            f"{mem_diff:.2f}x",
            f"{prop_diff:.2f}x",
            f"{sets_diff:.2f}x",
            _dedup_cell(res.sfs),
            _dedup_cell(res.vsfs),
        ])
    rows.append([
        "Average", "", "", "", "", "", "",
        f"{geometric_mean(time_diffs):.2f}x",
        f"{geometric_mean(mem_diffs):.2f}x",
        f"{geometric_mean(prop_diffs):.2f}x",
        f"{geometric_mean(set_diffs):.2f}x",
        "", "",
    ])
    return _render(headers, rows)

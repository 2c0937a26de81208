"""E5 — Table III: the paper's headline comparison, SFS vs VSFS.

One benchmark per (program, solver): the measured phase is the solver's
``run()`` on a pre-built SVFG, exactly the paper's "main phase" (plus, for
VSFS, the versioning pre-analysis — reported separately in ``extra_info``
like Table III's "ver." column).

Shape reproduced from the paper: VSFS total time beats SFS and the gap
widens with program size; VSFS performs several-fold fewer indirect
propagations and stores several-fold fewer points-to sets; precision is
identical (asserted).
"""

from conftest import suite_pipeline

from repro.core.vsfs import VSFSAnalysis
from repro.solvers.sfs import SFSAnalysis

_snapshots = {}


def bench_sfs_main_phase(benchmark, bench_name):
    pipeline = suite_pipeline(bench_name)

    def run():
        return SFSAnalysis(pipeline.svfg()).run()

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    stats = result.stats
    _snapshots[(bench_name, "sfs")] = result.snapshot()
    benchmark.extra_info.update(
        bench=bench_name,
        analysis="sfs",
        propagations=stats.propagations,
        stored_ptsets=stats.stored_ptsets,
        stored_ptset_bits=stats.stored_ptset_bits,
        strong_updates=stats.strong_updates,
        callgraph_edges=stats.callgraph_edges,
    )


def bench_vsfs_total(benchmark, bench_name):
    """Versioning + main phase (what Table III's 'Time diff.' divides by)."""
    pipeline = suite_pipeline(bench_name)

    def run():
        return VSFSAnalysis(pipeline.svfg()).run()

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    stats = result.stats
    benchmark.extra_info.update(
        bench=bench_name,
        analysis="vsfs",
        versioning_time=stats.pre_time,
        main_phase_time=stats.solve_time,
        propagations=stats.propagations,
        stored_ptsets=stats.stored_ptsets,
        stored_ptset_bits=stats.stored_ptset_bits,
        strong_updates=stats.strong_updates,
        callgraph_edges=stats.callgraph_edges,
    )
    sfs_snapshot = _snapshots.get((bench_name, "sfs"))
    if sfs_snapshot is not None:
        assert result.snapshot() == sfs_snapshot, "VSFS diverged from SFS"


def bench_vsfs_main_phase_only(benchmark, bench_name):
    """The solver alone, versioning precomputed (paper's 'VSFS main' column)."""
    pipeline = suite_pipeline(bench_name)
    from repro.core.versioning import version_objects

    svfg = pipeline.svfg()
    versioning = version_objects(svfg)

    result = benchmark.pedantic(
        lambda: VSFSAnalysis(svfg, versioning=versioning).run(),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info.update(
        bench=bench_name,
        analysis="vsfs-main",
        propagations=result.stats.propagations,
    )


def bench_andersen_auxiliary(benchmark, bench_name):
    """The stage-1 auxiliary analysis (Table III's 'Andersen' column)."""
    from repro.analysis.andersen import AndersenAnalysis
    from repro.bench.workloads import suite_program

    module = suite_program(bench_name)

    result = benchmark.pedantic(
        lambda: AndersenAnalysis(module).run(), rounds=1, iterations=1
    )
    benchmark.extra_info.update(
        bench=bench_name,
        analysis="ander",
        processed_nodes=result.stats.processed_nodes,
        copy_edges=result.stats.copy_edges,
    )

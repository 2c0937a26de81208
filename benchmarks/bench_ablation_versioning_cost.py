"""E6 — §V-A claim: versioning is cheap and grows slower than solving.

Sweeps one workload family across sizes and records versioning time next
to the SFS main phase it is traded against.  The paper's observation: the
versioning share of total time shrinks as programs grow (lynx: 3.5h main
phase vs <1min versioning).  Also ablates the two meld strategies.
"""

import pytest

from conftest import suite_pipeline

from repro.core.versioning import ObjectVersioning
from repro.solvers.sfs import SFSAnalysis

SIZES = ["du", "nano", "mruby"]


@pytest.mark.parametrize("name", SIZES)
def bench_versioning_scc(benchmark, name):
    pipeline = suite_pipeline(name)
    svfg = pipeline.svfg()

    versioning = benchmark.pedantic(
        lambda: ObjectVersioning(svfg).run(strategy="scc"), rounds=1, iterations=1
    )
    benchmark.extra_info.update(
        bench=name,
        strategy="scc",
        prelabels=versioning.stats.prelabels,
        versions=versioning.stats.versions,
        constraints=versioning.num_constraints(),
    )


@pytest.mark.parametrize("name", SIZES)
def bench_versioning_fixpoint(benchmark, name):
    """Ablation: the naive Figure-8 worklist instead of SCC condensation."""
    pipeline = suite_pipeline(name)
    svfg = pipeline.svfg()

    versioning = benchmark.pedantic(
        lambda: ObjectVersioning(svfg).run(strategy="fixpoint"), rounds=1, iterations=1
    )
    benchmark.extra_info.update(
        bench=name,
        strategy="fixpoint",
        meld_steps=versioning.stats.meld_steps,
    )


@pytest.mark.parametrize("name", SIZES)
def bench_versioning_share_of_total(benchmark, name):
    """Versioning time relative to the SFS main phase it replaces."""
    pipeline = suite_pipeline(name)

    def measure():
        import time

        svfg = pipeline.svfg()
        start = time.perf_counter()
        ObjectVersioning(svfg).run()
        versioning_time = time.perf_counter() - start
        sfs_stats = SFSAnalysis(pipeline.svfg()).run().stats
        return versioning_time, sfs_stats.solve_time

    versioning_time, sfs_time = benchmark.pedantic(measure, rounds=1, iterations=1)
    benchmark.extra_info.update(
        bench=name,
        versioning_time=versioning_time,
        sfs_main_time=sfs_time,
        versioning_share=versioning_time / (versioning_time + sfs_time),
    )
    # §V-A shape: versioning never exceeds the SFS main phase on
    # non-trivial programs.
    if name != "du":
        assert versioning_time < sfs_time

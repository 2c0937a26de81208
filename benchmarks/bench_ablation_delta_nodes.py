"""E8 — δ nodes and on-the-fly call graph resolution (§IV-C, Definition 3).

Sweeps the workload generator's indirect-call rate and records how many δ
nodes the SVFG gets, how many call edges the flow-sensitive analysis
resolves on the fly, and how the two solvers compare under heavy dynamic
dispatch.  Shape: δ count and OTF-resolved edges grow with the indirect
rate while SFS ≡ VSFS precision is preserved throughout (asserted).
"""

import pytest

from repro.bench.workloads import WorkloadConfig, generate_program
from repro.core.vsfs import VSFSAnalysis
from repro.pipeline import AnalysisPipeline
from repro.solvers.sfs import SFSAnalysis

RATES = [0.0, 0.15, 0.35, 0.6]


def _config(rate: float) -> WorkloadConfig:
    return WorkloadConfig(
        name=f"delta-{rate}",
        seed=2024,
        num_functions=10,
        stmts_per_function=10,
        num_globals=5,
        num_handlers=3,
        indirect_call_rate=rate,
    )


@pytest.mark.parametrize("rate", RATES)
def bench_otf_resolution(benchmark, rate):
    module = generate_program(_config(rate))
    pipeline = AnalysisPipeline(module)
    pipeline.memssa()

    def run():
        sfs = SFSAnalysis(pipeline.svfg()).run()
        vsfs = VSFSAnalysis(pipeline.svfg()).run()
        return sfs, vsfs

    sfs, vsfs = benchmark.pedantic(run, rounds=1, iterations=1)
    svfg = pipeline.svfg()
    benchmark.extra_info.update(
        indirect_rate=rate,
        delta_nodes=len(svfg.delta_nodes),
        otf_resolved=vsfs.stats.indirect_calls_resolved,
        callgraph_edges=vsfs.stats.callgraph_edges,
        vsfs_constraints_after_otf=None,
    )
    assert sfs.snapshot() == vsfs.snapshot(), f"divergence at rate {rate}"
    if rate == 0.0:
        assert len(svfg.delta_nodes) == 0
    else:
        assert len(svfg.delta_nodes) > 0
        assert vsfs.stats.indirect_calls_resolved > 0

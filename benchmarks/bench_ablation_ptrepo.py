"""E10 — ablation of the points-to repository (PTRepo on/off).

Runs SFS and VSFS with deduplicated storage on and off on each default
suite program and checks the repository's contract:

- **precision**: both configurations produce a bit-for-bit identical
  top-level snapshot (the repository is a pure storage change);
- **work**: every solver work counter (pops, propagations, unions,
  strong/weak updates, stored sets) matches the raw-mask reference,
  because storage never changes the schedule;
- **dedup**: distinct stored sets collapse (``unique_ptsets`` ≪
  ``stored_ptsets``) and the memoised pairwise-union cache absorbs most
  union work.

Wall-clock per configuration lands in ``extra_info`` — the counters are
the machine-independent claim; times are reported, not asserted.  The
end-to-end effect (peak RSS on ``sfs-cold``) is measured by
``benchmarks/e2e``, not here.
"""

import time

from conftest import suite_pipeline

from repro.core.vsfs import VSFSAnalysis
from repro.solvers.sfs import SFSAnalysis

CONFIGS = (("raw", False), ("ptrepo", True))  # (label, ptrepo)

WORK_COUNTERS = ("nodes_processed", "propagations", "unions",
                 "strong_updates", "weak_updates", "stored_ptsets",
                 "unique_ptsets")


def _run_pair(pipeline, solver_cls):
    """Both configurations: {label: (stats, snapshot, seconds)}."""
    out = {}
    for label, ptrepo in CONFIGS:
        svfg = pipeline.svfg()
        start = time.perf_counter()
        result = solver_cls(svfg, ptrepo=ptrepo).run()
        elapsed = time.perf_counter() - start
        out[label] = (result.stats, result.snapshot(), elapsed)
    return out


def _check_pair(pair):
    """The ablation contract (see module docstring)."""
    raw, repo = pair["raw"][0], pair["ptrepo"][0]
    assert pair["ptrepo"][1] == pair["raw"][1], "ptrepo changed precision"
    for counter in WORK_COUNTERS:
        assert getattr(repo, counter) == getattr(raw, counter), counter
    assert repo.unique_ptsets < repo.stored_ptsets
    assert repo.union_cache_hit_rate() > 0.5


def _extra_info(benchmark, tag, pair):
    stats = pair["ptrepo"][0]
    benchmark.extra_info.update({
        f"{tag}_propagations": stats.propagations,
        f"{tag}_unions": stats.unions,
        f"{tag}_unique_ptsets": stats.unique_ptsets,
        f"{tag}_stored_ptsets": stats.stored_ptsets,
        f"{tag}_interner_entries": stats.interner_entries,
        f"{tag}_dedup_resident_bytes": stats.dedup_resident_bytes,
        f"{tag}_union_cache_hit_rate": round(stats.union_cache_hit_rate(), 4),
        **{f"{tag}_{label}_s": round(t, 4) for label, (__, __s, t) in pair.items()},
    })


def bench_ptrepo_sfs(benchmark, bench_name):
    """SFS: the repository dedups IN/OUT storage without changing work."""
    pipeline = suite_pipeline(bench_name)
    pair = benchmark.pedantic(
        _run_pair, args=(pipeline, SFSAnalysis), rounds=1, iterations=1
    )
    _check_pair(pair)
    _extra_info(benchmark, "sfs", pair)


def bench_ptrepo_vsfs(benchmark, bench_name):
    """VSFS: the repository dedups the version table without changing work."""
    pipeline = suite_pipeline(bench_name)
    pair = benchmark.pedantic(
        _run_pair, args=(pipeline, VSFSAnalysis), rounds=1, iterations=1
    )
    _check_pair(pair)
    _extra_info(benchmark, "vsfs", pair)

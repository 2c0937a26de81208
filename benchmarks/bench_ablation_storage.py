"""E7 — §V-B claim: memory ∝ stored points-to sets; VSFS stores fewer.

Counts the exact storage quantities behind Table III's memory column:
IN/OUT entries (SFS) versus global ``(object, version)`` entries (VSFS),
plus total set bits, on every default suite program.  Also ablates the
points-to set representation (int bit masks vs Python frozensets) to back
the DESIGN.md representation choice.
"""

import random

from conftest import suite_pipeline

from repro.core.vsfs import VSFSAnalysis
from repro.solvers.sfs import SFSAnalysis


def bench_storage_counts(benchmark, bench_name):
    pipeline = suite_pipeline(bench_name)

    def run_both():
        sfs = SFSAnalysis(pipeline.svfg()).run()
        vsfs = VSFSAnalysis(pipeline.svfg()).run()
        return sfs.stats, vsfs.stats

    sfs_stats, vsfs_stats = benchmark.pedantic(run_both, rounds=1, iterations=1)
    benchmark.extra_info.update(
        bench=bench_name,
        sfs_ptsets=sfs_stats.stored_ptsets,
        vsfs_ptsets=vsfs_stats.stored_ptsets,
        sfs_bits=sfs_stats.stored_ptset_bits,
        vsfs_bits=vsfs_stats.stored_ptset_bits,
        ptset_ratio=sfs_stats.stored_ptsets / max(vsfs_stats.stored_ptsets, 1),
        bits_ratio=sfs_stats.stored_ptset_bits / max(vsfs_stats.stored_ptset_bits, 1),
    )
    # §V-B shape: single-object sparsity stores strictly fewer sets.
    assert vsfs_stats.stored_ptsets < sfs_stats.stored_ptsets
    assert vsfs_stats.stored_ptset_bits <= sfs_stats.stored_ptset_bits


def _random_masks(count, universe, density, seed):
    rng = random.Random(seed)
    masks = []
    for __ in range(count):
        mask = 0
        for __bit in range(int(universe * density)):
            mask |= 1 << rng.randrange(universe)
        masks.append(mask)
    return masks


def bench_representation_int_masks(benchmark):
    """Union-heavy workload on int masks (the chosen representation)."""
    masks = _random_masks(2000, universe=512, density=0.05, seed=1)

    def unions():
        acc = 0
        for mask in masks:
            acc |= mask
        total = 0
        for mask in masks:
            total += 1 if (mask | acc) == acc else 0
        return total

    assert benchmark(unions) == len(masks)


def bench_representation_frozensets(benchmark):
    """The same workload on frozensets — the rejected alternative."""
    masks = _random_masks(2000, universe=512, density=0.05, seed=1)
    sets = [frozenset(i for i in range(512) if mask >> i & 1) for mask in masks]

    def unions():
        acc = frozenset()
        for s in sets:
            acc |= s
        total = 0
        for s in sets:
            total += 1 if s <= acc else 0
        return total

    assert benchmark(unions) == len(sets)

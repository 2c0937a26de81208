"""E10 — ablation of the delta propagation kernel and points-to repository.

Runs SFS and VSFS in all four (delta × ptrepo) configurations on each
default suite program and checks the optimisations' contract:

- **precision**: every configuration produces a bit-for-bit identical
  top-level snapshot (the kernel and the repository are pure storage /
  scheduling changes);
- **delta kernel**: strictly fewer set unions are applied (both solvers —
  the eager path re-merges a whole mask per propagation target, the kernel
  only touches sets that actually grow), and SFS also performs strictly
  fewer per-(edge, object) propagation visits.  VSFS propagations are
  unchanged by design: its version constraints already fire only on source
  growth;
- **points-to repository**: the counters it cannot change stay identical,
  while distinct stored sets collapse (``unique_ptsets`` ≪
  ``stored_ptsets``) and the memoised pairwise-union cache absorbs most
  union work.

Wall-clock per configuration lands in ``extra_info`` — the counters are
the machine-independent claim; times are reported, not asserted.
"""

import time

from conftest import suite_pipeline

from repro.core.vsfs import VSFSAnalysis
from repro.solvers.sfs import SFSAnalysis

CONFIGS = (  # (label, delta, ptrepo)
    ("eager", False, False),
    ("eager+repo", False, True),
    ("delta", True, False),
    ("delta+repo", True, True),
)


def _run_matrix(pipeline, solver_cls):
    """All four configurations: {label: (stats, snapshot, seconds)}."""
    out = {}
    for label, delta, ptrepo in CONFIGS:
        svfg = pipeline.svfg()
        start = time.perf_counter()
        result = solver_cls(svfg, delta=delta, ptrepo=ptrepo).run()
        elapsed = time.perf_counter() - start
        out[label] = (result.stats, result.snapshot(), elapsed)
    return out


def _check_matrix(matrix, propagations_strict):
    """The ablation contract (see module docstring)."""
    baseline_snapshot = matrix["eager"][1]
    for label, (__, snapshot, __t) in matrix.items():
        assert snapshot == baseline_snapshot, f"{label} changed precision"

    eager, delta = matrix["eager"][0], matrix["delta"][0]
    # The kernel only removes redundant work — never adds any.
    assert delta.unions < eager.unions
    if propagations_strict:
        assert delta.propagations < eager.propagations
    else:
        assert delta.propagations <= eager.propagations

    # The repository changes storage, not scheduling: work counters match
    # the repo-less run bit for bit.
    for base_label, repo_label in (("eager", "eager+repo"), ("delta", "delta+repo")):
        base, repo = matrix[base_label][0], matrix[repo_label][0]
        assert repo.propagations == base.propagations
        assert repo.unions == base.unions
        assert repo.stored_ptsets == base.stored_ptsets
        assert repo.unique_ptsets <= repo.stored_ptsets


def _extra_info(benchmark, tag, matrix):
    stats = matrix["delta+repo"][0]
    benchmark.extra_info.update({
        f"{tag}_eager_propagations": matrix["eager"][0].propagations,
        f"{tag}_delta_propagations": matrix["delta"][0].propagations,
        f"{tag}_eager_unions": matrix["eager"][0].unions,
        f"{tag}_delta_unions": matrix["delta"][0].unions,
        f"{tag}_unique_ptsets": stats.unique_ptsets,
        f"{tag}_stored_ptsets": stats.stored_ptsets,
        f"{tag}_union_cache_hit_rate": round(stats.union_cache_hit_rate(), 4),
        **{f"{tag}_{label}_s": round(t, 4) for label, (__, __s, t) in matrix.items()},
    })


def bench_delta_prop_sfs(benchmark, bench_name):
    """SFS: delta kernel strictly cuts propagations and unions."""
    pipeline = suite_pipeline(bench_name)
    matrix = benchmark.pedantic(
        _run_matrix, args=(pipeline, SFSAnalysis), rounds=1, iterations=1
    )
    _check_matrix(matrix, propagations_strict=True)
    _extra_info(benchmark, "sfs", matrix)


def bench_delta_prop_vsfs(benchmark, bench_name):
    """VSFS: delta kernel strictly cuts unions (propagations already
    fire only on growth, so they stay put)."""
    pipeline = suite_pipeline(bench_name)
    matrix = benchmark.pedantic(
        _run_matrix, args=(pipeline, VSFSAnalysis), rounds=1, iterations=1
    )
    _check_matrix(matrix, propagations_strict=False)
    _extra_info(benchmark, "vsfs", matrix)

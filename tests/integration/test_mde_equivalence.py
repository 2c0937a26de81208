"""The deduplication engine must be result-invisible (DESIGN.md §11).

Every MDE layer — the propagation-batch memo, the cross-rung shared
interner, the memory-mapped arena — only changes *how much work* a solve
repeats, never what it computes.  These tests pin that down bit-for-bit:
MDE-on against MDE-off serially, across the degradation ladder's shared
engine, on sharded workers attached to an arena, and on a warm run
reattaching a previous run's arena.
"""

import pytest

from repro.bench.workloads import suite_program
from repro.datastructs.mde import MdeEngine
from repro.parallel.driver import solve_parallel
from repro.pipeline import AnalysisPipeline

SOURCE_NAME = "du"


@pytest.fixture(scope="module")
def module():
    return suite_program(SOURCE_NAME)


@pytest.fixture(scope="module")
def baseline(module):
    """MDE-off serial results: the ground truth everything must match."""
    pipeline = AnalysisPipeline(module, mde_batch=False)
    return {"sfs": pipeline.sfs(), "vsfs": pipeline.vsfs()}


def assert_identical(result, reference):
    assert result._pt == reference._pt
    assert ({(call.id, callee.name)
             for call, callee in result.callgraph.call_edges()}
            == {(call.id, callee.name)
                for call, callee in reference.callgraph.call_edges()})


class TestSerialEquivalence:
    @pytest.mark.parametrize("analysis", ["sfs", "vsfs"])
    @pytest.mark.parametrize("delta", [True, False])
    def test_batch_memo_is_result_invisible(self, module, baseline,
                                            analysis, delta):
        off = AnalysisPipeline(module, mde_batch=False)
        on = AnalysisPipeline(module, mde_batch=True)
        solve_off = off.sfs if analysis == "sfs" else off.vsfs
        solve_on = on.sfs if analysis == "sfs" else on.vsfs
        want = solve_off(delta=delta)
        got = solve_on(delta=delta)
        assert_identical(got, want)
        assert got.stats.mde_batch and not want.stats.mde_batch
        assert got.stats.batch_memo_hits + got.stats.batch_memo_misses > 0
        # The exact union/propagation counters are part of the paper's
        # tables; the memo must not change what the kernel *counts*.
        assert got.stats.unions == want.stats.unions
        assert got.stats.propagations == want.stats.propagations
        assert got.stats.stored_ptsets == want.stats.stored_ptsets

    def test_memory_surface_is_populated(self, module):
        result = AnalysisPipeline(module).vsfs()
        stats = result.stats
        assert stats.interner_entries > 0
        assert stats.dedup_resident_bytes > 0
        assert stats.batch_cache_entries > 0
        assert stats.batch_memo_hit_rate() >= 0.0


class TestLadderSharing:
    def test_rungs_share_one_engine(self, module, baseline):
        """A vsfs solve then an sfs solve on the same pipeline (the
        ladder's fallback shape) reuse one interner — and still match
        the cold MDE-off baselines exactly."""
        pipeline = AnalysisPipeline(module)
        vsfs = pipeline.vsfs()
        engine = pipeline.engine.ctx.mde
        assert isinstance(engine, MdeEngine)
        interned_after_vsfs = engine.repo.size
        sfs = pipeline.sfs()
        assert pipeline.engine.ctx.mde is engine  # same engine, not a new one
        assert_identical(vsfs, baseline["vsfs"])
        assert_identical(sfs, baseline["sfs"])
        # The sfs rung started from the vsfs rung's interner, not empty.
        assert engine.repo.size >= interned_after_vsfs
        assert sfs.stats.interner_entries == engine.repo.size

    def test_ladder_fallback_matches_plain_sfs(self, module, baseline):
        """Force vsfs to degrade to sfs under a step budget: the fallback
        rung rides the shared engine and must equal a plain sfs solve."""
        from repro.pipeline import analyze
        from repro.runtime.budget import Budget

        result = analyze(module, analysis="vsfs",
                         budget=Budget(max_steps=3), fallback=True)
        if result.precision_level == "sfs":
            assert_identical(result, baseline["sfs"])
        elif result.precision_level == "vsfs":  # pragma: no cover - tiny input
            assert_identical(result, baseline["vsfs"])


class TestArenaEquivalence:
    @pytest.mark.parametrize("level", ["sfs", "vsfs"])
    def test_parallel_with_arena_matches_serial_off(self, tmp_path, module,
                                                    baseline, level):
        pipeline = AnalysisPipeline(module)
        svfg = pipeline.svfg()
        versioning = (pipeline.versioning() if level == "vsfs" else None)
        mde = MdeEngine.open(str(tmp_path / "arena.bin"))
        try:
            result = solve_parallel(svfg, level, jobs=2,
                                    versioning=versioning, mde=mde)
        finally:
            if mde.arena is not None:
                mde.arena.close()
        assert_identical(result, baseline[level])
        arena_info = result.parallel.arena
        assert arena_info is not None
        assert arena_info["masks"] > 1
        assert arena_info["appended"] > 0

    def test_warm_arena_reattach_is_identical(self, tmp_path, module,
                                              baseline):
        path = str(tmp_path / "arena.bin")
        cold = AnalysisPipeline(module, arena_path=path)
        cold_result = cold.vsfs()
        cold.engine.ctx.mde.arena.close()

        warm = AnalysisPipeline(module, arena_path=path)
        warm_result = warm.vsfs()
        engine = warm.engine.ctx.mde
        assert engine.arena_preloaded > 1  # previous run's masks came back
        engine.arena.close()
        assert_identical(warm_result, cold_result)
        assert_identical(warm_result, baseline["vsfs"])
        # Warm interning shows up as arena gauges on the stats surface.
        assert warm_result.stats.arena_masks > 1
        assert warm_result.stats.arena_resident_bytes > 0

"""The multi-level deduplication engine: batch memo, sharing, rebind."""

from repro.datastructs.arena import PTArena
from repro.datastructs.mde import BatchMemo, MdeEngine
from repro.datastructs.ptrepo import PTRepo


class TestBatchMemo:
    def test_apply_matches_direct_computation(self):
        repo = PTRepo()
        memo = BatchMemo(repo)
        entry = repo.intern(0b0011)
        delta = repo.intern(0b0110)
        new, added = memo.apply(entry, delta)
        assert repo.mask(new) == 0b0111
        assert repo.mask(added) == 0b0100

    def test_no_growth_returns_entry_and_empty(self):
        repo = PTRepo()
        memo = BatchMemo(repo)
        entry = repo.intern(0b111)
        delta = repo.intern(0b010)  # subset: nothing to add
        new, added = memo.apply(entry, delta)
        assert new == entry and added == 0
        assert not added  # kernels branch on truthiness, like raw ``added``

    def test_repeat_batches_hit(self):
        repo = PTRepo()
        memo = BatchMemo(repo)
        entry, delta = repo.intern(0b01), repo.intern(0b10)
        first = memo.apply(entry, delta)
        assert (memo.hits, memo.misses) == (0, 1)
        assert memo.apply(entry, delta) == first
        assert (memo.hits, memo.misses) == (1, 1)
        assert memo.entries == 1

    def test_gather_mask_key_normalisation(self):
        repo = PTRepo()
        memo = BatchMemo(repo)
        a, b = repo.intern(0b001), repo.intern(0b110)
        expect = 0b111
        assert memo.gather_mask([a, b]) == expect
        # Permutation, duplicates and empties collapse to the same key.
        assert memo.gather_mask([b, 0, a, a]) == expect
        assert memo.hits == 1 and memo.misses == 1

    def test_gather_trivial_cases_skip_the_memo(self):
        repo = PTRepo()
        memo = BatchMemo(repo)
        only = repo.intern(0b1010)
        assert memo.gather_mask([]) == 0
        assert memo.gather_mask([0, 0]) == 0
        assert memo.gather_mask([only, 0]) == 0b1010
        assert memo.hits == 0 and memo.misses == 0 and memo.entries == 0


class TestMdeEngine:
    def test_shared_engine_across_solvers(self):
        """Two solvers over one engine share interner and batch memo —
        the cross-rung hash-consing carrier."""
        from repro.bench.workloads import suite_program
        from repro.pipeline import AnalysisPipeline
        from repro.solvers.sfs import SFSAnalysis

        pipeline = AnalysisPipeline(suite_program("du"))
        engine = MdeEngine()
        first = SFSAnalysis(pipeline.svfg(), mde=engine)
        second = SFSAnalysis(pipeline.svfg(), mde=engine)
        assert first.ptrepo is engine.repo
        assert second.ptrepo is engine.repo
        assert first.batch is engine.batch and second.batch is engine.batch

    def test_mde_batch_flag_disables_the_memo_only(self):
        from repro.bench.workloads import suite_program
        from repro.pipeline import AnalysisPipeline
        from repro.solvers.sfs import SFSAnalysis

        pipeline = AnalysisPipeline(suite_program("du"))
        solver = SFSAnalysis(pipeline.svfg(), mde=MdeEngine(),
                             mde_batch=False)
        assert solver.batch is None and solver.ptrepo is not None
        assert solver.stats.mde_batch is False

    def test_open_without_path_is_arena_less(self):
        engine = MdeEngine.open(None)
        assert engine.arena is None and engine.arena_preloaded == 0

    def test_open_binds_and_flush_appends(self, tmp_path):
        path = str(tmp_path / "arena.bin")
        engine = MdeEngine.open(path)
        assert engine.arena is not None
        engine.repo.intern(0b101)
        engine.repo.intern(0b11)
        assert engine.flush() == 2
        engine.arena.close()
        warm = MdeEngine.open(path)
        try:
            assert warm.arena_preloaded == 2  # empty set is pre-interned
            assert warm.repo.get(0b101) is not None
            assert warm.repo.get(0b11) is not None
            assert warm.flush() == 0  # nothing new since the watermark
        finally:
            warm.arena.close()

    def test_attach_only_missing_file_never_creates(self, tmp_path):
        path = str(tmp_path / "absent.bin")
        engine = MdeEngine.open(path, attach_only=True)
        assert engine.arena is None
        assert not (tmp_path / "absent.bin").exists()

    def test_corrupt_arena_quarantined_for_writers(self, tmp_path):
        path = tmp_path / "arena.bin"
        path.write_bytes(b"garbage-not-an-arena-header!")
        engine = MdeEngine.open(str(path))
        assert engine.arena_quarantined is not None
        assert engine.arena is not None  # recreated fresh after quarantine
        assert len(engine.arena) == 1
        engine.arena.close()

    def test_corrupt_arena_skipped_for_attach_only(self, tmp_path):
        path = tmp_path / "arena.bin"
        path.write_bytes(b"garbage-not-an-arena-header!")
        engine = MdeEngine.open(str(path), attach_only=True)
        assert engine.arena is None
        assert engine.arena_quarantined is None
        assert path.read_bytes().startswith(b"garbage")  # untouched

    def test_misaligned_bind_warms_but_never_flushes(self, tmp_path):
        path = str(tmp_path / "arena.bin")
        writer = PTArena.open(path)
        writer.append_masks([0b1])
        writer.close()
        repo = PTRepo()
        repo.intern(0b1000)  # repo id 1 != arena record 1
        engine = MdeEngine(repo=repo)
        arena = PTArena.open(path)
        try:
            engine.bind_arena(arena)
            assert engine.repo.get(0b1) is not None  # warmed
            repo.intern(0b1100)
            assert engine.flush() == 0  # alignment lost, append refused
            assert len(arena) == 2
        finally:
            arena.close()


class TestRebindOnRestore:
    def test_checkpoint_restore_drops_stale_ids(self):
        """Restoring swaps in a fresh repository; keeping the old batch
        memo would resolve new ids against old masks.  ``_rebind_mde``
        gives the solver a private engine over the restored repo."""
        from repro.bench.workloads import SUITE, suite_program
        from repro.pipeline import AnalysisPipeline

        pipeline = AnalysisPipeline(suite_program("du"))
        solver_svfg = pipeline.svfg()
        from repro.solvers.sfs import SFSAnalysis

        solver = SFSAnalysis(solver_svfg)
        solver.run()
        snapshot = solver.snapshot_state()
        old_engine = solver.mde

        restored = SFSAnalysis(pipeline.svfg())
        restored.restore_state(snapshot, solver.stats.nodes_processed)
        assert restored.mde is not old_engine
        assert restored.mde.repo is restored.ptrepo
        assert restored.batch is restored.mde.batch
        assert restored.batch.repo is restored.ptrepo
        assert restored.mde.arena is None  # arena binding never survives

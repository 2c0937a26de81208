"""Unit tests for the points-to repository."""

import pytest

from repro.datastructs.ptrepo import EMPTY_ID, PTRepo


class TestPTRepo:
    def test_empty_mask_is_id_zero(self):
        repo = PTRepo()
        assert repo.intern(0) == EMPTY_ID == 0
        assert repo.mask(EMPTY_ID) == 0
        # Entry truthiness must match mask truthiness (solvers rely on it).
        assert not repo.intern(0) and repo.intern(0b1)

    def test_intern_dedups(self):
        repo = PTRepo()
        a = repo.intern(0b1010)
        b = repo.intern(0b1010)
        c = repo.intern(0b0101)
        assert a == b != c
        assert repo.mask(a) == 0b1010 and repo.mask(c) == 0b0101
        assert len(repo) == 2  # distinct non-empty sets

    def test_get_does_not_allocate(self):
        repo = PTRepo()
        assert repo.get(0b11) is None
        ident = repo.intern(0b11)
        assert repo.get(0b11) == ident
        assert len(repo) == 1

    def test_union_is_memoised(self):
        repo = PTRepo()
        a = repo.intern(0b0011)
        b = repo.intern(0b0110)
        u1 = repo.union(a, b)
        u2 = repo.union(b, a)  # order-normalised key: same cache entry
        assert u1 == u2
        assert repo.mask(u1) == 0b0111
        assert repo.union_calls == 2
        assert repo.union_hits == 1 and repo.union_misses == 1

    def test_union_short_circuits(self):
        repo = PTRepo()
        a = repo.intern(0b1)
        assert repo.union(a, a) == a
        assert repo.union(a, EMPTY_ID) == a
        assert repo.union(EMPTY_ID, a) == a
        assert repo.union_calls == 0  # trivial unions are not counted

    def test_union_mask_merges_raw_bits(self):
        repo = PTRepo()
        a = repo.intern(0b001)
        merged = repo.union_mask(a, 0b110)
        assert repo.mask(merged) == 0b111
        assert repo.union_mask(merged, 0) == merged

    def test_hit_rate_and_total_bits(self):
        repo = PTRepo()
        a = repo.intern(0b0011)
        b = repo.intern(0b1100)
        repo.union(a, b)
        repo.union(a, b)
        assert repo.hit_rate() == pytest.approx(0.5)
        assert repo.total_bits() == 2 + 2 + 4
        assert repo.total_bits([a, a, b]) == 2 + 2 + 2

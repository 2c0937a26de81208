"""Unit tests for the parallel frontier's wire interner."""

from repro.datastructs.ptrepo import EMPTY_ID, PTRepo


class TestPTRepo:
    def test_empty_mask_is_id_zero(self):
        repo = PTRepo()
        assert repo.intern(0) == EMPTY_ID == 0
        assert repo.mask(EMPTY_ID) == 0
        # Id truthiness must match mask truthiness (frontier deltas rely on it).
        assert not repo.intern(0) and repo.intern(0b1)

    def test_intern_dedups(self):
        repo = PTRepo()
        a = repo.intern(0b1010)
        b = repo.intern(0b1010)
        c = repo.intern(0b0101)
        assert a == b != c
        assert repo.mask(a) == 0b1010 and repo.mask(c) == 0b0101
        assert repo.size == 3  # two distinct non-empty sets plus the empty set

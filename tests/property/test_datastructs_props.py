"""Property-based tests: data structures against reference models."""

from hypothesis import given, strategies as st

from repro.datastructs.bitset import count_bits, iter_bits
from repro.datastructs.interning import Interner
from repro.datastructs.unionfind import UnionFind

small_ints = st.integers(min_value=0, max_value=200)
int_sets = st.sets(small_ints, max_size=40)


def mask_of(items):
    mask = 0
    for item in items:
        mask |= 1 << item
    return mask


class TestBitSetModel:
    @given(int_sets)
    def test_count_matches_len(self, items):
        assert count_bits(mask_of(items)) == len(items)

    @given(int_sets)
    def test_iter_bits_sorted(self, items):
        assert list(iter_bits(mask_of(items))) == sorted(items)


class TestInternerProps:
    @given(st.lists(st.text(max_size=5)))
    def test_ids_dense_and_stable(self, values):
        interner = Interner()
        ids = [interner.intern(v) for v in values]
        # stable: re-interning returns the same id
        assert [interner.intern(v) for v in values] == ids
        # dense: ids cover 0..len(distinct)-1
        assert sorted(set(ids)) == list(range(len(set(values))))

    @given(st.lists(st.integers(), max_size=30))
    def test_value_of_inverts_intern(self, values):
        interner = Interner()
        for v in values:
            assert interner.value_of(interner.intern(v)) == v


class TestUnionFindModel:
    @given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)), max_size=40))
    def test_matches_naive_partition(self, unions):
        uf = UnionFind(21)
        partition = {i: {i} for i in range(21)}
        for a, b in unions:
            uf.union(a, b)
            merged = partition[a] | partition[b]
            for member in merged:
                partition[member] = merged
        for i in range(21):
            for j in range(21):
                assert uf.same(i, j) == (j in partition[i])

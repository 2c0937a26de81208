"""Bit-vector sets over small non-negative integers.

Points-to sets and meld labels are plain Python ints used as bit masks
(the counterpart of LLVM's ``SparseBitVector`` that SVF uses for both):
union is one ``|``, and the solvers' inner loops use the raw ints
directly because attribute lookups dominate the cost of a wrapper under
CPython.  :func:`iter_bits` and :func:`count_bits` read such masks.
"""

from __future__ import annotations

from typing import Iterator


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the indices of set bits in *mask* in ascending order.

    Uses ``(mask & -mask).bit_length()`` to strip the lowest set bit, which is
    O(set bits) rather than O(universe size).
    """
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


if hasattr(int, "bit_count"):  # Python >= 3.10: native popcount
    def count_bits(mask: int) -> int:
        """Population count of *mask*."""
        return mask.bit_count()
else:  # pragma: no cover — exercised on Python 3.9 in CI
    def count_bits(mask: int) -> int:
        """Population count of *mask*."""
        return bin(mask).count("1") if mask else 0

"""Deduplicated points-to set repository (interner + memoised unions).

Flow-sensitive analyses store the *same* points-to set many times: every
SVFG node holding ``{a, b}`` for object ``o`` keeps its own copy, and the
solver recomputes ``{a} ∪ {b}`` at each of them.  :class:`PTRepo` removes
both redundancies, following the dedup idea of *Points-to Analysis Using
MDE* (see PAPERS.md):

- every distinct mask is **interned** to a dense id, so byte-identical sets
  are stored once and solver tables hold small ids that all reference the
  single shared big-int;
- pairwise unions are **memoised**: ``union(a, b)`` consults an
  ``(a, b) -> result`` cache before touching the masks, so a union the
  solver already performed anywhere in the program costs one dict lookup.

Id ``0`` is always the empty set, which keeps the truthiness of a stored
entry identical to the truthiness of the mask it names.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.datastructs.bitset import count_bits

#: Id of the empty points-to set in every repository.
EMPTY_ID = 0


class PTRepo:
    """Intern points-to masks to dense ids and memoise their unions.

    >>> repo = PTRepo()
    >>> a, b = repo.intern(0b011), repo.intern(0b110)
    >>> repo.mask(repo.union(a, b))
    7
    >>> repo.union(a, b) == repo.union(b, a)  # cache is order-normalised
    True
    """

    __slots__ = ("_ids", "_masks", "_union_cache", "union_calls", "union_hits")

    def __init__(self) -> None:
        self._ids: Dict[int, int] = {0: EMPTY_ID}
        self._masks: List[int] = [0]
        self._union_cache: Dict[Tuple[int, int], int] = {}
        self.union_calls = 0
        self.union_hits = 0

    # ------------------------------------------------------------- interning

    def intern(self, mask: int) -> int:
        """Return the id naming *mask*, allocating one if unseen."""
        ident = self._ids.get(mask)
        if ident is None:
            ident = len(self._masks)
            self._ids[mask] = ident
            self._masks.append(mask)
        return ident

    def mask(self, ident: int) -> int:
        """The mask an id names (the single shared copy)."""
        return self._masks[ident]

    def get(self, mask: int) -> Optional[int]:
        """The id of *mask* if already interned, else None."""
        return self._ids.get(mask)

    # ---------------------------------------------------------------- unions

    def union(self, a: int, b: int) -> int:
        """Id of ``mask(a) | mask(b)``, memoised per unordered pair."""
        if a == b or b == EMPTY_ID:
            return a
        if a == EMPTY_ID:
            return b
        key = (a, b) if a < b else (b, a)
        self.union_calls += 1
        cached = self._union_cache.get(key)
        if cached is not None:
            self.union_hits += 1
            return cached
        result = self.intern(self._masks[a] | self._masks[b])
        self._union_cache[key] = result
        return result

    def union_mask(self, ident: int, mask: int) -> int:
        """Id of ``mask(ident) | mask`` (interns *mask* first)."""
        if not mask:
            return ident
        return self.union(ident, self.intern(mask))

    # ----------------------------------------------------------- persistence

    def snapshot(self) -> List[str]:
        """The interning table as hex masks, index = id (checkpointable).

        The union cache and its hit counters are deliberately *not* part of
        the snapshot: they are a performance memo, rebuilt for free as the
        resumed solve re-requests unions, and omitting them keeps the
        serialised form exactly the deduplicated content — one line per
        distinct set, the MDE-style storage story.
        """
        return [format(mask, "x") for mask in self._masks]

    @classmethod
    def from_snapshot(cls, masks: List[str]) -> "PTRepo":
        """Rebuild a repository from :meth:`snapshot` output.

        Validates the two structural invariants every live repo holds —
        id 0 names the empty set, and no mask appears twice — so a damaged
        snapshot cannot silently produce a repo whose ids alias each other.
        """
        repo = cls()
        if not masks or masks[0] != "0":
            raise ValueError("ptrepo snapshot must start with the empty set")
        for text in masks[1:]:
            mask = int(text, 16)
            if mask in repo._ids:
                raise ValueError(f"duplicate mask {text!r} in ptrepo snapshot")
            repo._ids[mask] = len(repo._masks)
            repo._masks.append(mask)
        return repo

    # ----------------------------------------------------- id-delta wire codec

    def export_ids(self, watermark: int) -> Tuple[List[str], int]:
        """The interning-table rows appended since *watermark*, plus the new
        watermark.

        This is the parallel frontier's **delta table**: because ids are
        dense and append-only, a sender that remembers how far it has
        already shipped its table needs to transmit only the suffix — each
        distinct points-to set crosses the wire exactly once, ever, no
        matter how many frontier entries reference it (they carry bare
        integer ids).
        """
        rows = [format(mask, "x") for mask in self._masks[watermark:]]
        return rows, len(self._masks)

    def import_ids(self, rows: List[str], watermark: int) -> int:
        """Append a peer's :meth:`export_ids` *rows* to a mirror table.

        The mirror is *positional*: row ``i`` of the peer's table denotes
        the same set as local index ``i`` — callers keep one importer repo
        per peer and resolve the peer's wire ids through :meth:`mask`.
        Raises ``ValueError`` on a gap or overlap, which would silently
        misalign every subsequent id.
        """
        if watermark != len(self._masks):
            raise ValueError(
                f"id-delta stream out of sync: expected watermark "
                f"{len(self._masks)}, got {watermark}")
        for text in rows:
            mask = int(text, 16)
            # Mirror tables replicate the peer's table positionally; the
            # peer never interns a duplicate, so neither do we — but a
            # corrupted stream could, and must not silently alias ids.
            if mask in self._ids and self._ids[mask] != len(self._masks):
                raise ValueError(f"duplicate mask {text!r} in id-delta stream")
            self._ids[mask] = len(self._masks)
            self._masks.append(mask)
        return len(self._masks)

    @property
    def size(self) -> int:
        """Number of table rows including the empty set (the watermark
        domain of :meth:`export_ids`/:meth:`import_ids`)."""
        return len(self._masks)

    # ----------------------------------------------------------------- stats

    @property
    def union_misses(self) -> int:
        return self.union_calls - self.union_hits

    def hit_rate(self) -> float:
        """Fraction of union requests answered from the cache."""
        return self.union_hits / self.union_calls if self.union_calls else 0.0

    def __len__(self) -> int:
        """Number of distinct non-empty sets interned."""
        return len(self._masks) - 1

    def total_bits(self, idents: "Iterable[int] | None" = None) -> int:
        """Total set bits over *idents* (or every interned mask)."""
        if idents is not None:
            return sum(count_bits(self._masks[i]) for i in idents)
        return sum(count_bits(mask) for mask in self._masks)

    @property
    def union_cache_size(self) -> int:
        """Entries in the pairwise-union memo (it grows without bound)."""
        return len(self._union_cache)

    def content_bytes(self) -> int:
        """Estimated resident bytes of the deduplicated mask content.

        Counts each distinct mask's payload once — the denominator the
        dedup-memory story is told against; dict/list overhead and the
        union cache are reported separately by the solver stats.
        """
        return sum((mask.bit_length() + 7) // 8 for mask in self._masks)

"""Dense-id interner for points-to masks: the parallel frontier's wire table.

The staged solvers store points-to sets as hash-consed masks (see
:class:`~repro.solvers.base.StagedSolverBase`), so they need no ids.  A
sharded solve does: each worker ships the sets that cross its boundary
as dense ids plus the suffix of its interning table
(:mod:`repro.parallel.frontier`), so each distinct set crosses the wire
once however many frontier entries name it.

Id ``0`` is always the empty set, which keeps the truthiness of an id
identical to the truthiness of the mask it names.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: Id of the empty points-to set in every repository.
EMPTY_ID = 0


class PTRepo:
    """Intern points-to masks to dense, append-only ids.

    >>> repo = PTRepo()
    >>> a = repo.intern(0b011)
    >>> repo.intern(0b011) == a, repo.mask(a)
    (True, 3)
    """

    __slots__ = ("_ids", "_masks")

    def __init__(self) -> None:
        self._ids: Dict[int, int] = {0: EMPTY_ID}
        self._masks: List[int] = [0]

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

    # ----------------------------------------------------------- persistence

    def snapshot(self) -> List[str]:
        """The interning table as hex masks, index = id (a worker seal
        stores its peer mirrors this way)."""
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
            raise ValueError("PTRepo snapshot must start with the empty set")
        for text in masks[1:]:
            mask = int(text, 16)
            if mask in repo._ids:
                raise ValueError(f"duplicate mask {text!r} in PTRepo snapshot")
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

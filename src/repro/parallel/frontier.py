"""Frontier batches: what crosses a worker boundary, and how it is encoded.

A worker's round output is one :class:`FrontierBatch` holding

- ``table``/``watermark``: the suffix of the sender's **wire repo**
  appended since its last batch (:meth:`PTRepo.export_ids`) — the
  interner delta-table.  The wire repo interns exactly the masks that
  cross worker boundaries (not the solver's whole table), and every
  points-to set referenced below is a dense id into it, so each distinct
  cross-boundary set is transmitted exactly once, ever — no matter how
  many frontier entries or rounds reference it;
- ``vars``: top-level deltas, ``var id → set id`` (broadcast);
- ``mem``: address-taken deltas — ``(node id, object id) → set id``,
  applied by the node's owner;
- ``calls``: on-the-fly call edges as replayable ``(inst id, callee
  name)`` references (broadcast; every worker re-wires its own SVFG copy).

Receivers keep one positional mirror repo per peer
(:class:`PeerMirrors`) and resolve wire ids through it.  The wire repo
is the one use of :class:`~repro.datastructs.ptrepo.PTRepo`: the solvers
store hash-consed masks, and raw sets never travel between workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.datastructs.ptrepo import PTRepo


@dataclass
class FrontierBatch:
    """One worker-round's cross-boundary output (see module docstring)."""

    sender: int
    round_no: int
    #: Bumped when the sender is revived after a kill: a revived worker
    #: starts a fresh wire repo (its dead predecessor's post-seal interning
    #: order is unknowable), and the bump tells receivers to reset their
    #: mirror instead of appending to the dead incarnation's table.
    incarnation: int = 0
    #: Wire-repo delta-table rows (hex masks) since the sender's previous
    #: batch, plus the table bounds they extend.
    table: List[str] = field(default_factory=list)
    base_watermark: int = 1  # a fresh repo holds only the empty set
    watermark: int = 1
    #: var id -> wire set id.
    vars: Dict[int, int] = field(default_factory=dict)
    #: (node id, object id) -> wire set id.
    mem: Dict[Tuple[int, int], int] = field(default_factory=dict)
    #: Replayable call-edge references: (call inst id, callee name).
    calls: List[Tuple[int, str]] = field(default_factory=list)

    def is_empty(self) -> bool:
        return not (self.vars or self.mem or self.calls)

    def payload_entries(self) -> int:
        return len(self.vars) + len(self.mem) + len(self.calls)


class PeerMirrors:
    """Per-peer positional mirrors of the other workers' wire repos.

    ``import_batch`` must see every batch a peer emits, in order — the
    driver broadcasts batches to all other workers precisely so each
    mirror advances in lockstep with its peer's table (re-deliveries
    after a worker revival are recognised by their stale watermark and
    skipped).
    """

    def __init__(self) -> None:
        self._mirrors: Dict[int, PTRepo] = {}
        self._incarnations: Dict[int, int] = {}

    def mirror(self, peer: int) -> PTRepo:
        repo = self._mirrors.get(peer)
        if repo is None:
            repo = self._mirrors[peer] = PTRepo()
        return repo

    def import_batch(self, batch: FrontierBatch) -> None:
        """Advance the sender's mirror by the batch's delta table."""
        mirror = self.mirror(batch.sender)
        if batch.incarnation > self._incarnations.get(batch.sender, 0):
            # The sender was revived with a fresh wire repo; drop the dead
            # incarnation's mirror (everything already applied from it
            # stays applied — joins are monotone).
            self._incarnations[batch.sender] = batch.incarnation
            mirror = self._mirrors[batch.sender] = PTRepo()
        elif batch.base_watermark < mirror.size:
            return  # re-delivered batch: its rows are already imported
        mirror.import_ids(batch.table, batch.base_watermark)

    def resolve(self, batch: FrontierBatch, entry: int) -> int:
        """The mask a batch entry denotes, via the sender's mirror."""
        return self._mirrors[batch.sender].mask(entry)

    # ------------------------------------------------- kill-and-resume seals

    def seal(self) -> Dict[str, object]:
        return {
            "mirrors": {str(peer): repo.snapshot()
                        for peer, repo in self._mirrors.items()},
            "incarnations": {str(peer): inc
                             for peer, inc in self._incarnations.items()},
        }

    def restore(self, payload: Dict[str, object]) -> None:
        self._mirrors = {int(peer): PTRepo.from_snapshot(snap)
                         for peer, snap in payload["mirrors"].items()}
        self._incarnations = {int(peer): int(inc)
                              for peer, inc in payload["incarnations"].items()}


class FrontierEncoder:
    """Builds a worker's outgoing batches against its private wire repo."""

    def __init__(self, sender: int, incarnation: int = 0) -> None:
        self.sender = sender
        self.incarnation = incarnation
        self.repo = PTRepo()
        self.watermark = self.repo.size

    def encode(self, round_no: int, var_deltas: Dict[int, int],
               mem_deltas: Dict[Tuple[int, int], int],
               calls: List[Tuple[int, str]]) -> FrontierBatch:
        repo = self.repo
        batch = FrontierBatch(sender=self.sender, round_no=round_no,
                              incarnation=self.incarnation)
        batch.vars = {vid: repo.intern(mask)
                      for vid, mask in var_deltas.items()}
        batch.mem = {key: repo.intern(mask)
                     for key, mask in mem_deltas.items()}
        batch.calls = list(calls)
        batch.base_watermark = self.watermark
        batch.table, self.watermark = repo.export_ids(self.watermark)
        batch.watermark = self.watermark
        return batch

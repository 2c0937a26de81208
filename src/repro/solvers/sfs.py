"""Staged flow-sensitive analysis (SFS) — the paper's baseline.

Every SVFG node that touches address-taken memory keeps an ``IN`` map
(object id → points-to set); ``STORE`` nodes additionally keep an ``OUT``
map.  Points-to sets propagate along indirect edges from the OUT (or IN,
for non-store nodes) of the source into the IN of the destination —
Equations (6)/(7) of the paper.  This is *multiple-object* sparsity only:
two nodes using identical points-to sets of the same object each store and
receive their own copy, which is exactly the redundancy VSFS removes.

Two layered optimisations (see :class:`StagedSolverBase`) attack that
redundancy *within* SFS without changing its results:

- the **delta kernel** forwards only the new bits (``new & ~old``) along
  indirect edges and revisits a popped memory node only for the objects
  whose sets actually grew (the worklist carries the dirty map);
- the **points-to repository** stores every distinct set once — IN/OUT
  entries are dense ids into a shared :class:`PTRepo` with memoised
  pairwise unions.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.datastructs.bitset import iter_bits
from repro.ir.instructions import LoadInst, StoreInst
from repro.solvers.base import StagedSolverBase
from repro.svfg.builder import SVFG
from repro.svfg.nodes import InstNode, SVFGNode


class SFSAnalysis(StagedSolverBase):
    """Staged flow-sensitive points-to analysis on the SVFG."""

    analysis_name = "sfs"

    def __init__(self, svfg: SVFG, delta: bool = True, ptrepo: bool = True,
                 meter=None, faults=None, checkpointer=None, ctx=None,
                 mde=None, mde_batch=None):
        super().__init__(svfg, delta=delta, ptrepo=ptrepo, meter=meter,
                         faults=faults, checkpointer=checkpointer, ctx=ctx,
                         mde=mde, mde_batch=mde_batch)
        # IN/OUT maps, lazily created per node id: {obj id -> entry}, where
        # an entry is a PTRepo id (ptrepo on) or a raw mask (ptrepo off).
        self.in_sets: Dict[int, Dict[int, int]] = {}
        self.out_sets: Dict[int, Dict[int, int]] = {}

    # ------------------------------------------------------------ propagation

    def _in(self, node_id: int) -> Dict[int, int]:
        in_set = self.in_sets.get(node_id)
        if in_set is None:
            in_set = {}
            self.in_sets[node_id] = in_set
        return in_set

    def _propagate(self, node_id: int, oid: int, mask: int) -> None:
        """A-PROP: push *mask* of object *oid* into successors' IN sets.

        Under the delta kernel *mask* is just the newly grown bits; only
        the part a successor has not seen is merged and forwarded, so no
        union is applied (or counted) for already-known information.

        With the batch memo on, the whole per-successor step — "what does
        this entry become under this delta, and what grew?" — is one
        ``BatchMemo.apply`` lookup keyed by (entry id, delta id).  The
        mask is interned once per call, so the k successors sharing an
        entry id cost one recomputation at most, and a batch any node
        anywhere already executed costs none.
        """
        if not mask:
            return
        table = self.svfg.ind_edges.get(oid)
        succs = table.get(node_id) if table is not None else None
        if not succs:
            return
        faults = self.faults
        if faults is not None:
            faults.fire("propagate", self.analysis_name)
        repo = self.ptrepo
        batch = self.batch
        stats = self.stats
        in_sets = self.in_sets
        unions = 0
        if self.delta:
            push_delta = self.worklist.push_delta
            if batch is not None:
                mask_id = repo.intern(mask)
                for succ in succs:
                    in_set = in_sets.get(succ)
                    if in_set is None:
                        in_set = in_sets[succ] = {}
                    new, added_id = batch.apply(in_set.get(oid, 0), mask_id)
                    if added_id:
                        unions += 1
                        if faults is not None:
                            faults.fire("ptrepo_union", self.analysis_name)
                        in_set[oid] = new
                        push_delta(succ, oid, repo.mask(added_id))
            else:
                for succ in succs:
                    in_set = in_sets.get(succ)
                    if in_set is None:
                        in_set = in_sets[succ] = {}
                    entry = in_set.get(oid, 0)
                    old = repo.mask(entry) if repo is not None else entry
                    added = mask & ~old
                    if added:
                        unions += 1
                        if repo is not None:
                            if faults is not None:
                                faults.fire("ptrepo_union", self.analysis_name)
                            in_set[oid] = repo.union_mask(entry, added)
                        else:
                            in_set[oid] = old | added
                        push_delta(succ, oid, added)
        else:
            push = self.worklist.push
            if batch is not None:
                mask_id = repo.intern(mask)
                for succ in succs:
                    in_set = in_sets.get(succ)
                    if in_set is None:
                        in_set = in_sets[succ] = {}
                    unions += 1  # eager: a union is applied per target
                    if faults is not None:
                        faults.fire("ptrepo_union", self.analysis_name)
                    new, added_id = batch.apply(in_set.get(oid, 0), mask_id)
                    if added_id:
                        in_set[oid] = new
                        push(succ)
            else:
                for succ in succs:
                    in_set = in_sets.get(succ)
                    if in_set is None:
                        in_set = in_sets[succ] = {}
                    unions += 1  # eager: a union is applied per target
                    entry = in_set.get(oid, 0)
                    if repo is not None:
                        if faults is not None:
                            faults.fire("ptrepo_union", self.analysis_name)
                        new = repo.union_mask(entry, mask)
                    else:
                        new = entry | mask
                    if new != entry:
                        in_set[oid] = new
                        push(succ)
        stats.propagations += len(succs)
        stats.unions += unions

    # -------------------------------------------------------------- mem rules

    def _process_load(self, node: InstNode, inst: LoadInst,
                      dirty: Optional[Dict[int, int]] = None) -> None:
        """[LOAD]: pt(p) ⊇ IN(o) for each o the pointer may target."""
        ptr_mask = self.value_mask(inst.ptr)
        if dirty is not None:
            # Only IN grew (by the recorded deltas); the pointer operand is
            # unchanged, so the new bits are all that can reach pt(dst).
            mask = 0
            for oid, delta in dirty.items():
                if ptr_mask >> oid & 1:
                    mask |= delta
            if mask:
                self.set_pt(inst.dst, mask)
            return
        in_set = self.in_sets.get(node.id)
        if in_set is None:
            return
        batch = self.batch
        if batch is not None:
            # The n-way gather over the pointees' entry ids is itself a
            # recurring batch (every load over the same IN entries).
            mask = batch.gather_mask(
                in_set.get(oid, 0) for oid in iter_bits(ptr_mask))
        else:
            entry_mask = self._entry_mask
            mask = 0
            for oid in iter_bits(ptr_mask):
                entry = in_set.get(oid)
                if entry:
                    mask |= entry_mask(entry)
        if mask:
            self.set_pt(inst.dst, mask)

    def _process_store(self, node: InstNode, inst: StoreInst,
                       dirty: Optional[Dict[int, int]] = None) -> None:
        """[STORE] + [SU/WU]: OUT(o) = Gen ∪ (IN(o) − Kill), then A-PROP."""
        ptr_mask = self.value_mask(inst.ptr)
        su_oid = self.strong_update_target(ptr_mask)
        out_set = self.out_sets.setdefault(node.id, {})
        repo = self.ptrepo
        batch = self.batch
        if dirty is not None:
            # Only IN grew: the gen set and pointer are unchanged, so each
            # dirty object's delta flows straight through OUT (unless this
            # store strong-updates that object, which kills it).
            for oid, delta in dirty.items():
                if oid == su_oid:
                    continue  # killed: the incoming set does not survive
                if self.defers_passthrough(ptr_mask, oid):
                    continue  # deferred until pt(ptr) resolves (full revisit)
                entry = out_set.get(oid, 0)
                if batch is not None:
                    new, added_id = batch.apply(entry, repo.intern(delta))
                    if not added_id:
                        continue
                    self.stats.unions += 1
                    if ptr_mask >> oid & 1:
                        self.stats.weak_updates += 1
                    out_set[oid] = new
                    self._propagate(node.id, oid, repo.mask(added_id))
                    continue
                old = repo.mask(entry) if repo is not None else entry
                added = delta & ~old
                if not added:
                    continue
                self.stats.unions += 1
                if ptr_mask >> oid & 1:
                    self.stats.weak_updates += 1
                if repo is not None:
                    out_set[oid] = repo.union_mask(entry, added)
                else:
                    out_set[oid] = old | added
                self._propagate(node.id, oid, added)
            return
        gen = self.value_mask(inst.value)
        in_set = self.in_sets.get(node.id, {})
        entry_mask = self._entry_mask
        # The objects this store is responsible for are its χ annotations
        # (over-approximated by the auxiliary analysis) — they must flow
        # through even when the store does not (yet) write them.
        for chi in self.memssa.store_chis.get(inst, ()):
            oid = chi.obj.id
            incoming = entry_mask(in_set.get(oid, 0))
            if oid == su_oid:
                out = gen  # strong update: kill the incoming set
                self.stats.strong_updates += 1
            elif ptr_mask >> oid & 1:
                out = incoming | gen  # weak update
                self.stats.weak_updates += 1
            elif self.defers_passthrough(ptr_mask, oid):
                continue  # deferred until pt(ptr) resolves (full revisit)
            else:
                out = incoming  # pass-through
            entry = out_set.get(oid, 0)
            if batch is not None:
                new, added_id = batch.apply(entry, repo.intern(out))
                if self.delta:
                    if not added_id:
                        continue
                    self.stats.unions += 1
                    out_set[oid] = new
                    self._propagate(node.id, oid, repo.mask(added_id))
                else:
                    self.stats.unions += 1  # eager: union applied every visit
                    out_set[oid] = new
                    self._propagate(node.id, oid, repo.mask(new))
                continue
            old = entry_mask(entry)
            added = out & ~old  # monotone: already-propagated stays
            if self.delta:
                if not added:
                    continue
                self.stats.unions += 1
                if repo is not None:
                    out_set[oid] = repo.union_mask(entry, added)
                else:
                    out_set[oid] = old | added
                self._propagate(node.id, oid, added)
            else:
                self.stats.unions += 1  # eager: union applied every visit
                if repo is not None:
                    out_set[oid] = repo.union_mask(entry, out)
                else:
                    out_set[oid] = old | out
                self._propagate(node.id, oid, old | added)

    def _process_mem_node(self, node: SVFGNode,
                          dirty: Optional[Dict[int, int]] = None) -> None:
        """MEMPHI / ActualIN / ActualOUT / FormalIN / FormalOUT: OUT = IN.

        With the delta kernel a pop caused by set growth re-propagates
        only the dirty objects' new bits; a full revisit (new edges wired
        in by on-the-fly call graph resolution) pushes the whole IN map.
        """
        if dirty is not None:
            for oid, delta in dirty.items():
                self._propagate(node.id, oid, delta)
            return
        in_set = self.in_sets.get(node.id)
        if not in_set:
            return
        entry_mask = self._entry_mask
        for oid, entry in in_set.items():
            self._propagate(node.id, oid, entry_mask(entry))

    # ------------------------------------------------------- warm re-solve

    def _preload_memory(self, plan) -> None:
        """Install clean-region IN/OUT maps and clean→dirty boundaries.

        Plan values are raw masks; they are interned here when the repo
        is on.  Boundary values land in the *dirty* receiver's IN map —
        exactly what propagation over the clean→dirty indirect edge
        would have delivered — and the planner queued those receivers,
        so their transfer rules run over the joined view.
        """
        repo = self.ptrepo
        for sets, preload in ((self.in_sets, plan.node_in),
                              (self.out_sets, plan.node_out)):
            for nid, table in preload.items():
                sets[nid] = {
                    oid: repo.intern(mask) if repo is not None else mask
                    for oid, mask in table.items()
                }
        for nid, table in plan.boundary.items():
            in_set = self._in(nid)
            for oid, mask in table.items():
                entry = in_set.get(oid)
                merged = mask | (self._entry_mask(entry)
                                 if entry is not None else 0)
                in_set[oid] = (repo.intern(merged) if repo is not None
                               else merged)

    def export_node_memory(self):
        entry_mask = self._entry_mask
        return tuple(
            {
                nid: {oid: entry_mask(entry) for oid, entry in table.items()}
                for nid, table in sets.items()
            }
            for sets in (self.in_sets, self.out_sets)
        )

    # ----------------------------------------------------------- persistence

    def _snapshot_memory(self) -> Dict[str, object]:
        """IN/OUT maps plus the PTRepo interning table.

        With the repo on, entries are small dense ids and the repo's mask
        list carries each distinct set exactly once — the deduplicated
        representation is also the compact wire format (the MDE storage
        story).  Entries are hex-encoded either way; repo ids just make
        for very short strings.
        """
        def encode(sets: Dict[int, Dict[int, int]]) -> Dict[str, Dict[str, str]]:
            return {
                str(node_id): {str(oid): format(entry, "x")
                               for oid, entry in table.items()}
                for node_id, table in sets.items()
            }

        return {
            "repo": self.ptrepo.snapshot() if self.ptrepo is not None else None,
            "in": encode(self.in_sets),
            "out": encode(self.out_sets),
        }

    def _restore_memory(self, mem: Dict[str, object]) -> None:
        from repro.datastructs.ptrepo import PTRepo
        from repro.errors import CheckpointError

        if self.ptrepo is not None:
            if mem["repo"] is None:
                raise CheckpointError(
                    "checkpoint lacks the ptrepo interning table")
            self.ptrepo = PTRepo.from_snapshot(mem["repo"])
            self._rebind_mde()  # memo keys/arena positions are per-repo

        def decode(sets: Dict[str, Dict[str, str]]) -> Dict[int, Dict[int, int]]:
            return {
                int(node_id): {int(oid): int(entry, 16)
                               for oid, entry in table.items()}
                for node_id, table in sets.items()
            }

        self.in_sets = decode(mem["in"])
        self.out_sets = decode(mem["out"])

    # --------------------------------------------------------------- summary

    def _memory_footprint(self) -> None:
        self._finish_footprint(
            entry
            for sets in (self.in_sets, self.out_sets)
            for table in sets.values()
            for entry in table.values()
        )

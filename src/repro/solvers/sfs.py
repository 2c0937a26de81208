"""Staged flow-sensitive analysis (SFS) — the paper's baseline.

Every SVFG node that touches address-taken memory keeps an ``IN`` map
(object id → points-to set); ``STORE`` nodes additionally keep an ``OUT``
map.  Points-to sets propagate along indirect edges from the OUT (or IN,
for non-store nodes) of the source into the IN of the destination —
Equations (6)/(7) of the paper.  This is *multiple-object* sparsity only:
two nodes using identical points-to sets of the same object each store and
receive their own copy, which is exactly the redundancy VSFS removes.

One storage optimisation (see :class:`StagedSolverBase`) attacks that
redundancy *within* SFS without changing its results: the **points-to
repository** stores every distinct set once — IN/OUT entries are dense
ids into the solve's :class:`PTRepo` with memoised pairwise unions.
"""

from __future__ import annotations

from typing import Dict

from repro.datastructs.bitset import iter_bits
from repro.ir.instructions import LoadInst, StoreInst
from repro.solvers.base import StagedSolverBase
from repro.svfg.builder import SVFG
from repro.svfg.nodes import InstNode, SVFGNode


class SFSAnalysis(StagedSolverBase):
    """Staged flow-sensitive points-to analysis on the SVFG."""

    analysis_name = "sfs"

    def __init__(self, svfg: SVFG, ptrepo: bool = True,
                 meter=None, faults=None, checkpointer=None, ctx=None):
        super().__init__(svfg, ptrepo=ptrepo, meter=meter,
                         faults=faults, checkpointer=checkpointer, ctx=ctx)
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

        Eager: one union is applied (and counted) per successor, and a
        successor is queued when its set grew.  *mask* is interned once,
        not once per successor.
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
        mask_id = repo.intern(mask) if repo is not None else 0
        in_sets = self.in_sets
        push = self.worklist.push
        for succ in succs:
            in_set = in_sets.get(succ)
            if in_set is None:
                in_set = in_sets[succ] = {}
            entry = in_set.get(oid, 0)
            if repo is not None:
                if faults is not None:
                    faults.fire("ptrepo_union", self.analysis_name)
                new = repo.union(entry, mask_id)
            else:
                new = entry | mask
            if new != entry:
                in_set[oid] = new
                push(succ)
        stats = self.stats
        stats.propagations += len(succs)
        stats.unions += len(succs)

    # -------------------------------------------------------------- mem rules

    def _process_load(self, node: InstNode, inst: LoadInst) -> None:
        """[LOAD]: pt(p) ⊇ IN(o) for each o the pointer may target."""
        in_set = self.in_sets.get(node.id)
        if in_set is None:
            return
        entry_mask = self._entry_mask
        mask = 0
        for oid in iter_bits(self.value_mask(inst.ptr)):
            entry = in_set.get(oid)
            if entry:
                mask |= entry_mask(entry)
        if mask:
            self.set_pt(inst.dst, mask)

    def _process_store(self, node: InstNode, inst: StoreInst) -> None:
        """[STORE] + [SU/WU]: OUT(o) = Gen ∪ (IN(o) − Kill), then A-PROP."""
        ptr_mask = self.value_mask(inst.ptr)
        su_oid = self.strong_update_target(ptr_mask)
        out_set = self.out_sets.setdefault(node.id, {})
        repo = self.ptrepo
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
            old = entry_mask(entry)
            self.stats.unions += 1  # eager: union applied every visit
            if repo is not None:
                out_set[oid] = repo.union_mask(entry, out)
            else:
                out_set[oid] = old | out
            self._propagate(node.id, oid, old | out)  # monotone OUT

    def _process_mem_node(self, node: SVFGNode) -> None:
        """MEMPHI / ActualIN / ActualOUT / FormalIN / FormalOUT: OUT = IN."""
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

"""Staged flow-sensitive analysis (SFS) — the paper's baseline.

Every SVFG node that touches address-taken memory keeps an ``IN`` map
(object id → points-to set); ``STORE`` nodes additionally keep an ``OUT``
map.  Points-to sets propagate along indirect edges from the OUT (or IN,
for non-store nodes) of the source into the IN of the destination —
Equations (6)/(7) of the paper.  This is *multiple-object* sparsity only:
two nodes using identical points-to sets of the same object each store and
receive their own copy, which is exactly the redundancy VSFS removes.

Storage (see :class:`StagedSolverBase`) attacks that redundancy *within*
SFS without changing its results: entries are hash-consed masks, so the
nodes holding equal sets share one int object.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.datastructs.bitset import iter_bits
from repro.ir.instructions import LoadInst, StoreInst
from repro.solvers.base import StagedSolverBase
from repro.svfg.builder import SVFG
from repro.svfg.nodes import InstNode, SVFGNode


class SFSAnalysis(StagedSolverBase):
    """Staged flow-sensitive points-to analysis on the SVFG."""

    analysis_name = "sfs"

    def __init__(self, svfg: SVFG,
                 meter=None, faults=None, checkpointer=None):
        super().__init__(svfg, meter=meter,
                         faults=faults, checkpointer=checkpointer)
        # IN/OUT maps, lazily created per node id: {obj id -> stored mask}.
        self.in_sets: Dict[int, Dict[int, int]] = {}
        self.out_sets: Dict[int, Dict[int, int]] = {}
        # The view's sources with wired rows (one set for the view's life),
        # checked once per visited node.
        self._wired_srcs = self.svfg.wired_srcs

    # ------------------------------------------------------------ propagation

    def _in(self, node_id: int) -> Dict[int, int]:
        in_set = self.in_sets.get(node_id)
        if in_set is None:
            in_set = {}
            self.in_sets[node_id] = in_set
        return in_set

    def _propagate(self, node_id: int, oid: int, mask: int,
                   succs: Optional[Tuple[int, ...]] = None) -> None:
        """A-PROP: push *mask* of object *oid* into successors' IN sets.

        *succs* is *node_id*'s row for *oid* when the caller read it
        through the view's overlay (its node has wired rows, checked once
        per visit); otherwise the built row is read here.  Eager: one
        union is applied (and counted) per successor, and a successor is
        queued when its set grew.  *mask* is a stored entry, so a
        successor whose set becomes equal to it shares the object.
        """
        if not mask:
            return
        if succs is None:
            table = self.svfg.ind_edges.get(oid)
            succs = table.get(node_id) if table is not None else None
        if not succs:
            return
        faults = self.faults
        if faults is not None:
            faults.fire("propagate", self.analysis_name)
        canon = self.canon
        in_sets = self.in_sets
        push = self.worklist.push
        for succ in succs:
            in_set = in_sets.get(succ)
            if in_set is None:
                in_set = in_sets[succ] = {}
            entry = in_set.get(oid, 0)
            new = entry | mask
            if new != entry:
                in_set[oid] = canon.setdefault(new, new)
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
        mask = 0
        for oid in iter_bits(self.value_mask(inst.ptr)):
            mask |= in_set.get(oid, 0)
        if mask:
            self.set_pt(inst.dst, mask)

    def _process_store(self, node: InstNode, inst: StoreInst) -> None:
        """[STORE] + [SU/WU]: OUT(o) = Gen ∪ (IN(o) − Kill), then A-PROP."""
        ptr_mask = self.value_mask(inst.ptr)
        su_oid = self.strong_update_target(ptr_mask)
        out_set = self.out_sets.setdefault(node.id, {})
        canon = self.canon
        gen = self.value_mask(inst.value)
        in_set = self.in_sets.get(node.id, {})
        row = self.svfg.row if node.id in self._wired_srcs else None
        # The objects this store is responsible for are its χ annotations
        # (over-approximated by the auxiliary analysis) — they must flow
        # through even when the store does not (yet) write them.
        for chi in self.memssa.store_chis.get(inst, ()):
            oid = chi.obj.id
            incoming = in_set.get(oid, 0)
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
            new = entry | out
            if new != entry:
                entry = canon.setdefault(new, new)
            out_set[oid] = entry
            self.stats.unions += 1  # eager: union applied every visit
            self._propagate(node.id, oid, entry,  # monotone OUT
                            row(node.id, oid) if row else None)

    def _process_mem_node(self, node: SVFGNode) -> None:
        """MEMPHI / ActualIN / ActualOUT / FormalIN / FormalOUT: OUT = IN."""
        node_id = node.id
        in_set = self.in_sets.get(node_id)
        if not in_set:
            return
        if node_id in self._wired_srcs:
            row = self.svfg.row
            for oid, entry in in_set.items():
                self._propagate(node_id, oid, entry, row(node_id, oid))
            return
        for oid, entry in in_set.items():
            self._propagate(node_id, oid, entry)

    # ------------------------------------------------------- warm re-solve

    def _preload_memory(self, plan) -> None:
        """Install clean-region IN/OUT maps and clean→dirty boundaries.

        Plan values are hash-consed as they are stored.  Boundary values
        land in the *dirty* receiver's IN map —
        exactly what propagation over the clean→dirty indirect edge
        would have delivered — and the planner queued those receivers,
        so their transfer rules run over the joined view.
        """
        canon = self.canon
        for sets, preload in ((self.in_sets, plan.node_in),
                              (self.out_sets, plan.node_out)):
            for nid, table in preload.items():
                sets[nid] = {oid: canon.setdefault(mask, mask)
                             for oid, mask in table.items()}
        for nid, table in plan.boundary.items():
            in_set = self._in(nid)
            for oid, mask in table.items():
                merged = in_set.get(oid, 0) | mask
                in_set[oid] = canon.setdefault(merged, merged)

    def export_node_memory(self):
        return tuple(
            {nid: dict(table) for nid, table in sets.items()}
            for sets in (self.in_sets, self.out_sets)
        )

    # ----------------------------------------------------------- persistence

    def _snapshot_memory(self) -> Dict[str, object]:
        """IN/OUT maps over one list of their distinct masks.

        Each distinct set is written once (``masks``, hex) and entries
        are indices into that list, so the hash-consed tables are also
        the compact wire format.
        """
        index: Dict[int, int] = {0: 0}

        def encode(sets: Dict[int, Dict[int, int]]) -> Dict[str, Dict[str, int]]:
            return {
                str(node_id): {str(oid): index.setdefault(entry, len(index))
                               for oid, entry in table.items()}
                for node_id, table in sets.items()
            }

        in_sets = encode(self.in_sets)
        out_sets = encode(self.out_sets)
        return {"masks": self._encode_masks(index),
                "in": in_sets, "out": out_sets}

    def _restore_memory(self, mem: Dict[str, object]) -> None:
        masks = self._decode_masks(mem["masks"])

        def decode(sets: Dict[str, Dict[str, int]]) -> Dict[int, Dict[int, int]]:
            return {
                int(node_id): {int(oid): masks[entry]
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

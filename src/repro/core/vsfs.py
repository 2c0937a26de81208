"""Versioned staged flow-sensitive points-to analysis (VSFS, §IV-D).

The solver of Figure 10.  Relative to SFS, the IN/OUT maps are gone:
address-taken points-to sets live in one global table keyed by
``(object, version)``, where versions come from the meld-labelling
pre-analysis (:mod:`repro.core.versioning`).

- ``[LOAD]ⱽ`` reads ``pt_{C_ℓ(o)}(o)`` for each object the pointer targets;
- ``[STORE]ⱽ`` + ``[SU/WU]ⱽ`` write ``pt_{Y_ℓ(o)}(o)``, observing
  ``pt_{C_ℓ(o)}(o)`` unless a strong update kills it;
- ``[A-PROP]ⱽ`` propagates along the *deduplicated version constraints*:
  an SVFG edge whose endpoints share a version needs no propagation at all
  — this is where the time saving comes from — and nodes sharing a version
  share storage — the memory saving.

MEMPHI/ActualIN/ActualOUT/FormalIN/FormalOUT nodes need no processing at
solve time: their behaviour is entirely compiled into version constraints.

Version sets are stored like SFS's (:class:`StagedSolverBase`): as
hash-consed masks, so equal sets of different versions share one object.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from repro.core.versioning import ObjectVersioning, version_objects
from repro.datastructs.bitset import iter_bits
from repro.ir.function import Function
from repro.ir.instructions import CallInst, LoadInst, StoreInst
from repro.solvers.base import StagedSolverBase
from repro.svfg.builder import SVFG
from repro.svfg.nodes import InstNode, SVFGNode


class VSFSAnalysis(StagedSolverBase):
    """Versioned staged flow-sensitive points-to analysis."""

    analysis_name = "vsfs"

    def __init__(self, svfg: SVFG, versioning: Optional[ObjectVersioning] = None,
                 meter=None, faults=None, checkpointer=None):
        super().__init__(svfg, meter=meter,
                         faults=faults, checkpointer=checkpointer)
        #: Read-only (often the engine's shared artifact); OTF constraints
        #: go to this solve's :attr:`constraints` overlay.
        self.versioning: Optional[ObjectVersioning] = versioning
        # Global points-to table: oid -> version id -> stored mask.
        self.ptv: Dict[int, List[int]] = {}
        # (oid, version) -> nodes that must re-run when the set grows.
        self.readers: Dict[Tuple[int, int], List[int]] = {}
        #: (oid, src version) -> [dst versions], OTF ones included: a
        #: shallow copy of the versioning's, lists replaced on write.
        self.constraints: Dict[Tuple[int, int], List[int]] = {}

    # ----------------------------------------------------------------- setup

    def _prepare(self) -> None:
        """pre_time = the versioning's own time plus this solve's index."""
        if self.versioning is None:
            self.versioning = version_objects(self.svfg)
        self.stats.pre_time = self.versioning.stats.time + self._index_versioning()

    def _index_versioning(self) -> float:
        """Build this solve's readers index and constraint overlay over
        ``self.versioning``; returns the seconds it took."""
        start = time.perf_counter()
        self.constraints = dict(self.versioning.constraints)
        self._build_readers()
        return time.perf_counter() - start

    def _add_constraint(self, oid: int, src_ver: int, dst_ver: int) -> bool:
        """Register an OTF-discovered constraint; True if it is new."""
        dsts = self.constraints.get((oid, src_ver), [])
        if src_ver == dst_ver or dst_ver in dsts:
            return False
        self.constraints[(oid, src_ver)] = dsts + [dst_ver]
        return True

    def _build_readers(self) -> None:
        """Index which load/store nodes consume each ``(object, version)``.

        Deterministic given the versioning tables (it walks nodes in id
        order and sorts each bucket), so a resumed run rebuilds the exact
        same index from the restored versioning state.
        """
        versioning = self.versioning
        assert versioning is not None
        memssa = self.memssa
        # Built as sets: a load/store touching the same (oid, ver) through
        # two μ/χ annotations must not be pushed twice per growth.
        readers: Dict[Tuple[int, int], set] = {}
        for node in self.svfg.nodes:
            if not isinstance(node, InstNode):
                continue
            inst = node.inst
            if isinstance(inst, LoadInst):
                for mu in memssa.load_mus.get(inst, ()):
                    ver = versioning.consumed_version(node.id, mu.obj.id)
                    readers.setdefault((mu.obj.id, ver), set()).add(node.id)
            elif isinstance(inst, StoreInst):
                for chi in memssa.store_chis.get(inst, ()):
                    ver = versioning.consumed_version(node.id, chi.obj.id)
                    readers.setdefault((chi.obj.id, ver), set()).add(node.id)
        self.readers = {key: sorted(nodes) for key, nodes in readers.items()}

    # ------------------------------------------------------- version tables

    def _table(self, oid: int) -> List[int]:
        table = self.ptv.get(oid)
        if table is None:
            assert self.versioning is not None
            table = [0] * max(self.versioning.num_versions(oid), 1)
            self.ptv[oid] = table
        return table

    def ptv_mask(self, oid: int, ver: int) -> int:
        table = self.ptv.get(oid)
        if table is None or ver >= len(table):
            return 0
        return table[ver]

    def _ptv_join(self, oid: int, ver: int, mask: int) -> None:
        """Grow pt_κ(o) and run [A-PROP]ⱽ transitively.

        Eager: every visited version counts one union, and a version
        that grew wakes its readers and re-forwards its whole stored mask.
        """
        if not mask:
            return
        faults = self.faults
        if faults is not None:
            faults.fire("propagate", self.analysis_name)
        constraints = self.constraints
        readers = self.readers
        canon = self.canon
        push = self.worklist.push
        stats = self.stats
        stack = [(oid, ver, mask)]
        while stack:
            oid, ver, mask = stack.pop()
            table = self._table(oid)
            while ver >= len(table):  # defensive: OTF-interned versions
                table.append(0)
            old = table[ver]
            stats.unions += 1  # eager: union applied on every visit
            new = old | mask
            if new == old:
                continue
            table[ver] = new = canon.setdefault(new, new)
            for reader in readers.get((oid, ver), ()):
                push(reader)
            for dst_ver in constraints.get((oid, ver), ()):
                stats.propagations += 1
                stack.append((oid, dst_ver, new))

    # -------------------------------------------------------------- mem rules

    def _process_load(self, node: InstNode, inst: LoadInst) -> None:
        """[LOAD]ⱽ: pt(p) ⊇ pt_{C_ℓ(o)}(o) for each o ∈ pt(q)."""
        assert self.versioning is not None
        consumed = self.versioning.consumed_table(node.id)
        mask = 0
        for oid in iter_bits(self.value_mask(inst.ptr)):
            ver = consumed.get(oid)
            if ver is not None:
                mask |= self.ptv_mask(oid, ver)
        if mask:
            self.set_pt(inst.dst, mask)

    def _process_store(self, node: InstNode, inst: StoreInst) -> None:
        """[STORE]ⱽ + [SU/WU]ⱽ: write the yielded versions."""
        assert self.versioning is not None
        versioning = self.versioning
        ptr_mask = self.value_mask(inst.ptr)
        su_oid = self.strong_update_target(ptr_mask)
        yielded = versioning.yielded_table(node.id)
        gen = self.value_mask(inst.value)
        consumed = versioning.consumed_table(node.id)
        for chi in self.memssa.store_chis.get(inst, ()):
            oid = chi.obj.id
            y_ver = yielded.get(oid)
            if y_ver is None:
                continue
            c_ver = consumed.get(oid, ObjectVersioning.EPSILON)
            incoming = self.ptv_mask(oid, c_ver)
            if oid == su_oid:
                out = gen  # strong update kills the consumed set
                self.stats.strong_updates += 1
            elif ptr_mask >> oid & 1:
                out = incoming | gen
                self.stats.weak_updates += 1
            elif self.defers_passthrough(ptr_mask, oid):
                continue  # deferred until pt(ptr) resolves (full revisit)
            else:
                out = incoming  # pass-through (χ over-approximation)
            self._ptv_join(oid, y_ver, out)

    def _process_mem_node(self, node: SVFGNode) -> None:
        """MEMPHI and actual/formal IN/OUT nodes are fully compiled into
        version constraints — nothing to do at solve time."""

    # -------------------------------------------------- on-the-fly call graph

    def _on_new_call_edge(self, call: CallInst, callee: Function, touched: List[int]) -> None:
        """Register version constraints for OTF-discovered μ/χ edges and
        replay already-computed points-to sets across them."""
        assert self.versioning is not None
        versioning = self.versioning
        for src_node, dst_node, oid in self.svfg.call_edges(call, callee):
            if oid is None:
                continue  # top-level binding: no versions involved
            src = versioning.yielded_version(src_node, oid)
            dst = versioning.consumed_version(dst_node, oid)
            if self._add_constraint(oid, src, dst):
                self.stats.propagations += 1
                self._ptv_join(oid, dst, self.ptv_mask(oid, src))

    # ------------------------------------------------------- warm re-solve

    def _version_of(self, nid: int, oid: int,
                    want_yield: bool) -> Optional[int]:
        """The version node *nid* genuinely consumes/yields for *oid*.

        ``None`` when the node carries no version for the object — the
        warm preloader must not mistake the ε default for a real
        version, or it would pollute the shared ε slot.
        """
        versioning = self.versioning
        if versioning._single[nid]:
            node = self.svfg.nodes[nid]
            obj = getattr(node, "obj", None)
            if obj is None or obj.id != oid:
                return None
            return node.yielded_ver if want_yield else node.consumed_ver
        if want_yield:
            if not versioning._is_store[nid]:
                return None  # yields what it consumes — node_in covers it
            return versioning.yielded_table(nid).get(oid)
        return versioning.consumed_table(nid).get(oid)

    def _preload_memory(self, plan) -> None:
        """Write clean-region values straight into the version table.

        Node-centric preload: the plan speaks in ``(node, object)``
        pairs, and the *new* versioning maps them to version indices —
        version numbering is global per object, so the numbers may have
        shifted even for untouched functions.  Direct joins, no
        propagation: constraints *among* preloaded versions were already
        satisfied at the captured fixpoint.  Constraints *leaving* the
        preloaded set carry clean values into dirty regions via
        :meth:`_ptv_join`, whose reader pushes and transitive walk do
        the delivery.
        """
        canon = self.canon
        preloaded: "set[Tuple[int, int]]" = set()

        def write(oid: int, ver: int, mask: int) -> None:
            table = self._table(oid)
            while ver >= len(table):
                table.append(0)
            merged = table[ver] | mask
            table[ver] = canon.setdefault(merged, merged)
            preloaded.add((oid, ver))

        for preload, want_yield in ((plan.node_in, False),
                                    (plan.node_out, True)):
            for nid, table in preload.items():
                for oid, mask in table.items():
                    if not mask:
                        continue
                    ver = self._version_of(nid, oid, want_yield)
                    if ver is not None:
                        write(oid, ver, mask)
        constraints = self.constraints
        for oid, ver in sorted(preloaded):
            for dst in constraints.get((oid, ver), ()):
                if (oid, dst) not in preloaded:
                    self._ptv_join(oid, dst, self.ptv_mask(oid, ver))

    def export_node_memory(self):
        versioning = self.versioning
        node_in: Dict[int, Dict[int, int]] = {}
        node_out: Dict[int, Dict[int, int]] = {}
        if versioning is None:
            return node_in, node_out
        for nid in range(len(self.svfg.nodes)):
            if versioning._single[nid]:
                node = self.svfg.nodes[nid]
                obj = getattr(node, "obj", None)
                if obj is None:
                    continue
                mask = self.ptv_mask(obj.id, node.consumed_ver)
                if mask:
                    node_in[nid] = {obj.id: mask}
                if node.yielded_ver != node.consumed_ver:
                    mask = self.ptv_mask(obj.id, node.yielded_ver)
                    if mask:
                        node_out[nid] = {obj.id: mask}
                continue
            consumed = versioning.consumed_table(nid)
            if consumed:
                table = {
                    oid: mask for oid, mask in
                    ((oid, self.ptv_mask(oid, ver))
                     for oid, ver in consumed.items())
                    if mask
                }
                if table:
                    node_in[nid] = table
            if versioning._is_store[nid]:
                yielded = versioning.yielded_table(nid)
                table = {
                    oid: mask for oid, mask in
                    ((oid, self.ptv_mask(oid, ver))
                     for oid, ver in yielded.items())
                    if mask
                }
                if table:
                    node_out[nid] = table
        return node_in, node_out

    # ----------------------------------------------------------- persistence

    def _snapshot_memory(self) -> Dict[str, object]:
        """The global ``(object, version)`` table over one list of its
        distinct masks (see :meth:`SFSAnalysis._snapshot_memory`), and the
        full versioning state (C/Y tables + constraints —
        including this solve's OTF overlay, which a re-run of the
        pre-analysis could not reproduce without re-discovering the call
        graph first).

        This is where the paper's global keying pays off at the
        persistence layer too: the address-taken state is one table with
        one entry per *live* ``(object, version)`` pair, not one map per
        SVFG node.
        """
        assert self.versioning is not None
        index: Dict[int, int] = {0: 0}
        ptv = {str(oid): [index.setdefault(entry, len(index))
                          for entry in table]
               for oid, table in self.ptv.items()}
        return {
            "masks": self._encode_masks(index),
            "ptv": ptv,
            "versioning": self.versioning.snapshot(self.constraints),
        }

    def _restore_pre(self, payload: Dict[str, object]) -> None:
        """Restore versioning before memory: the version tables define the
        shape of the global table and of the readers index."""
        self.versioning = ObjectVersioning(self.svfg).restore(
            payload["mem"]["versioning"])
        self._index_versioning()

    def _restore_memory(self, mem: Dict[str, object]) -> None:
        masks = self._decode_masks(mem["masks"])
        self.ptv = {int(oid): [masks[entry] for entry in table]
                    for oid, table in mem["ptv"].items()}

    # --------------------------------------------------------------- summary

    def _memory_footprint(self) -> None:
        self._finish_footprint(
            entry for table in self.ptv.values() for entry in table
        )

"""Object versioning of an SVFG via meld labelling (§IV-C).

Phase 1 — *prelabelling* (Figure 6):

- ``[STORE]ᴾ``: every STORE node yields a **fresh** version of each object
  it may define (its χ set), because a store may change that object's
  points-to set;
- ``[OTF-CG]ᴾ``: every *δ node* (FormalIN of a potential indirect-call
  target, ActualOUT of an indirect call site) consumes a fresh version of
  its object, because its incoming edges are only discovered during
  on-the-fly call graph resolution.

Phase 2 — *meld labelling* (Figure 8): versions propagate along
``o``-labelled indirect edges; ``[EXTERNAL]ⱽ`` melds the yielded version of
the source into the consumed version of the target (except into δ nodes,
whose prelabels are frozen), and ``[INTERNAL]ⱽ`` makes every non-STORE node
yield what it consumes.  Labels are bit masks over per-object prelabel
indices and the meld operator is bitwise-or, exactly the representation the
paper suggests (LLVM ``SparseBitVector``).

Phase 3 — *interning*: each distinct final mask of an object becomes a
dense version id, so "same version" is an int comparison and the global
``(object, version) → points-to set`` table is compact.  The identity ε
(mask 0) is version 0 of every object: it marks nodes unreachable from any
store, whose points-to set for that object is permanently empty.

Phase 4 — *collapse* (beyond the paper): the frozen δ prelabels split
classes that then sit on cycles of the object's version-constraint graph.
Version constraints are unconditional inclusions — strong updates act at
STORE nodes, which are never constraint edges — so at the fixpoint every
version on a cycle holds the same set, and an on-the-fly constraint into
one member reaches the others through the cycle anyway.  Each SCC is
therefore merged into one version, exactly: it takes its smallest
member's id, ids are renumbered densely in that order (ε stays 0), and
the constraints are derived again without self-loops.
``run(collapse=False)`` keeps the paper's meld-only form.

Two propagation strategies are provided (cross-checked in the tests):

- ``"scc"`` (default): per object, read that object's edge table
  (``SVFG.ind_edges[oid]``), collapse the cycles of the *relay* subgraph
  (nodes that forward what they consume — non-STORE, non-δ), then
  propagate prelabels in one topological pass; each object's label masks
  are interned and **released** before the next object is processed, so
  peak memory is bounded by the largest single object, mirroring SVF's
  conversion of SparseBitVector melds to plain version numbers.
- ``"fixpoint"``: the literal worklist reading of Figure 8, kept as the
  oracle the tests check ``"scc"`` against.

Both strategies hand each object's masks to the same interning and
collapse step, so they induce the same versions and constraints.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.datastructs.graph import tarjan_sccs
from repro.datastructs.interning import Interner
from repro.errors import AnalysisError
from repro.ir.instructions import LoadInst, StoreInst
from repro.svfg.builder import SVFG
from repro.svfg.nodes import (
    ActualINNode,
    ActualOUTNode,
    FormalINNode,
    FormalOUTNode,
    InstNode,
    SVFGNode,
)


#: SVFG nodes of a single object; versioning keeps their pair on the node.
_SINGLE_KINDS = (ActualINNode, ActualOUTNode, FormalINNode, FormalOUTNode)

#: The table every node without versions reads (never written).
_NO_VERSIONS: Dict[int, int] = {}

#: One object's edge table, ``{src: (dst, ...)}``.
EdgeTable = Dict[int, Tuple[int, ...]]


def _node_needs_versions(node: SVFGNode) -> bool:
    """Nodes whose C/Y entries the solver consults after constraint
    collection: loads and stores (the rules of Figure 10) and the
    actual/formal IN/OUT nodes (on-the-fly call graph resolution)."""
    if isinstance(node, InstNode):
        return isinstance(node.inst, (LoadInst, StoreInst))
    return isinstance(node, _SINGLE_KINDS)


@dataclass
class VersioningStats:
    """Cost and effect of the versioning pre-analysis."""

    time: float = 0.0
    prelabels: int = 0
    meld_steps: int = 0
    versions: int = 0          # distinct (object, version) pairs (incl. ε)
    consume_entries: int = 0   # C(o) entries across nodes
    yield_entries: int = 0     # Y(o) entries across nodes


class ObjectVersioning:
    """The versioning result: C/Y functions plus version-level constraints.

    - :meth:`consumed_version` / :meth:`yielded_version` are the paper's
      ``C_ℓ(o)`` and ``Y_ℓ(o)``;
    - :attr:`constraints` are the deduplicated propagation constraints
      ``pt_κ(o) ⊆ pt_κ'(o)`` induced by SVFG edges whose endpoint versions
      differ (the set whose size Figure 2b compares against SFS).
    """

    #: Version id of the identity label ε (always interned first).
    EPSILON = 0

    def __init__(self, svfg: SVFG, keep_all_versions: bool = False):
        self.svfg = svfg
        self.stats = VersioningStats()
        self.keep_all_versions = keep_all_versions
        # Per-node flags, one byte each.
        self._is_store = bytearray([
            isinstance(node, InstNode) and isinstance(node.inst, StoreInst)
            for node in svfg.nodes])
        # Single-object nodes keep their versions on the node (int slots).
        self._single = bytearray([
            not keep_all_versions and isinstance(node, _SINGLE_KINDS)
            for node in svfg.nodes])
        # Sparse version tables, node id -> {obj id: version id}, holding
        # only nodes that have one.  After constraint collection, versions
        # are only consulted at LOAD/STORE nodes ([LOAD]ⱽ/[STORE]ⱽ) and at
        # actual/formal IN/OUT nodes (OTF call graph resolution); entries
        # elsewhere (MEMPHIs, mostly) are dropped unless
        # *keep_all_versions* — set it when introspecting versions
        # node-by-node (examples, tests).  Only STORE nodes have a yield
        # table: every other node yields what it consumes ([INTERNAL]ⱽ).
        self.consumed: Dict[int, Dict[int, int]] = {}
        self.yielded: Dict[int, Dict[int, int]] = {}
        #: (oid, src version) -> [dst versions]: deduplicated A-PROP work.
        self.constraints: Dict[Tuple[int, int], List[int]] = {}
        self._version_counts: Dict[int, int] = {}
        # Raw label masks, kept only when run(release_masks=False).
        self.consumed_masks: Optional[List[Dict[int, int]]] = None
        self.yielded_masks: Optional[List[Dict[int, int]]] = None

    # ------------------------------------------------------------ public API

    def consumed_version(self, node_id: int, oid: int) -> int:
        """``C_ℓ(o)`` — the version node ℓ consumes for object *oid*."""
        if self._single[node_id]:
            return self.svfg.nodes[node_id].consumed_ver
        return self.consumed.get(node_id, _NO_VERSIONS).get(oid, self.EPSILON)

    def yielded_version(self, node_id: int, oid: int) -> int:
        """``Y_ℓ(o)`` — the version node ℓ yields for object *oid*."""
        if self._single[node_id]:
            return self.svfg.nodes[node_id].yielded_ver
        return self.yielded_table(node_id).get(oid, self.EPSILON)

    def consumed_table(self, node_id: int) -> Dict[int, int]:
        """``C_ℓ`` of a multi-object node as ``{oid: version}`` (read-only;
        objects it lacks consume ε)."""
        return self.consumed.get(node_id, _NO_VERSIONS)

    def yielded_table(self, node_id: int) -> Dict[int, int]:
        """``Y_ℓ`` of a multi-object node as ``{oid: version}`` (read-only;
        a non-STORE node's is its consumed table)."""
        tables = self.yielded if self._is_store[node_id] else self.consumed
        return tables.get(node_id, _NO_VERSIONS)

    def _set_consumed(self, node_id: int, oid: int, ver: int) -> None:
        if self._single[node_id]:
            node = self.svfg.nodes[node_id]
            # Non-store single-object nodes yield what they consume.
            node.consumed_ver = node.yielded_ver = ver
            return
        table = self.consumed.get(node_id)
        if table is None:
            table = self.consumed[node_id] = {}
        table[oid] = ver

    def _set_yielded(self, node_id: int, oid: int, ver: int) -> None:
        """Record the version STORE node *node_id* yields for *oid*."""
        table = self.yielded.get(node_id)
        if table is None:
            table = self.yielded[node_id] = {}
        table[oid] = ver

    def num_versions(self, oid: int) -> int:
        return self._version_counts.get(oid, 0)

    def add_constraint(self, oid: int, src_ver: int, dst_ver: int) -> bool:
        """Register a constraint; return True if new.  Deduplicated
        against its source's list, which stays in first-seen order (the
        lists are short: at most 9 on the suite)."""
        if src_ver == dst_ver:
            return False
        dsts = self.constraints.get((oid, src_ver))
        if dsts is None:
            self.constraints[(oid, src_ver)] = [dst_ver]
        elif dst_ver in dsts:
            return False
        else:
            dsts.append(dst_ver)
        return True

    def num_constraints(self) -> int:
        return sum(len(dsts) for dsts in self.constraints.values())

    # ----------------------------------------------------------- persistence

    def snapshot(self, constraints=None) -> dict:
        """Checkpointable versioning state (C/Y tables + constraints).

        *constraints* replaces :attr:`constraints`: a solve passes its
        overlay, which adds the ones it discovered *on the fly*.

        Snapshotting — rather than re-running the meld pre-analysis on
        resume — matters for two reasons: the snapshot carries those
        on-the-fly constraints (which a fresh pre-analysis over the
        restored call graph would have to re-derive), and restoring is
        O(entries) where melding is the dominant pre-analysis cost.
        Tables are written in node order, constraints in first-seen order
        (the overlay's dict and list order): :meth:`restore` re-adds them
        in that order, so a solve over the restored versioning walks each
        object's constraints as the uninterrupted solve does and counts
        the same work.
        """
        nodes = self.svfg.nodes
        single = []
        for node_id, is_single in enumerate(self._single):
            if not is_single:
                continue
            node = nodes[node_id]
            if node.consumed_ver or node.yielded_ver:
                single.append([node_id, node.consumed_ver, node.yielded_ver])

        def tables(by_node: Dict[int, Dict[int, int]]) -> dict:
            return {str(node_id): {str(oid): ver
                                   for oid, ver in by_node[node_id].items()}
                    for node_id in sorted(by_node)}

        return {
            "single": single,
            "consumed": tables(self.consumed),
            "yielded_store": tables(self.yielded),
            "constraints": [
                (oid, src, dst)
                for (oid, src), dsts in (constraints or self.constraints).items()
                for dst in dsts],
            "version_counts": {str(oid): count
                               for oid, count in self._version_counts.items()},
            "time": self.stats.time,
            "prelabels": self.stats.prelabels,
            "meld_steps": self.stats.meld_steps,
            "versions": self.stats.versions,
        }

    def restore(self, state: dict) -> "ObjectVersioning":
        """Reload :meth:`snapshot` output into this (freshly built) instance.

        The receiving object must wrap the same SVFG shape (same node count
        and δ set) as the snapshotting one — checkpoint metadata guarantees
        that by matching the IR hash and configuration before we get here.
        """
        for node_id, consumed_ver, yielded_ver in state["single"]:
            node = self.svfg.nodes[node_id]
            node.consumed_ver = consumed_ver
            node.yielded_ver = yielded_ver
        for name, by_node in (("consumed", self.consumed),
                              ("yielded_store", self.yielded)):
            for node_key, table in state[name].items():
                by_node[int(node_key)] = {int(oid): ver
                                          for oid, ver in table.items()}
        for oid, src_ver, dst_ver in state["constraints"]:
            self.add_constraint(oid, src_ver, dst_ver)
        self._version_counts = {int(oid): count
                                for oid, count in state["version_counts"].items()}
        self.stats.time = state["time"]
        self.stats.prelabels = state["prelabels"]
        self.stats.meld_steps = state["meld_steps"]
        self.stats.versions = state["versions"]
        self.stats.consume_entries = sum(
            len(table) for table in self.consumed.values())
        self.stats.yield_entries = sum(
            len(table) for table in self.yielded.values())
        return self

    # ------------------------------------------------------------------- run

    def run(self, strategy: str = "scc", release_masks: bool = True,
            collapse: bool = True) -> "ObjectVersioning":
        """Prelabel, meld (by *strategy*), intern and — unless *collapse*
        is False — merge version cycles.  The per-run node flags are
        released when it returns."""
        if strategy not in ("scc", "fixpoint"):
            raise AnalysisError(f"unknown meld strategy {strategy!r}")
        start = time.perf_counter()
        svfg = self.svfg
        keep = bytearray([self.keep_all_versions or _node_needs_versions(node)
                          for node in svfg.nodes])
        store_prelabels, delta_prelabels = self._prelabel()
        meld = self._meld_per_object if strategy == "scc" else self._meld_fixpoint
        if not release_masks:
            self.consumed_masks = [{} for __ in svfg.nodes]
            self.yielded_masks = [{} for __ in svfg.nodes]
        for oid, consumed, yielded in meld(store_prelabels, delta_prelabels):
            # Every version cycle runs through a δ node's version.
            self._intern_object(oid, consumed, yielded,
                                svfg.ind_edges.get(oid, {}), keep,
                                collapse and oid in delta_prelabels)
            if self.consumed_masks is not None and self.yielded_masks is not None:
                for node_id, mask in consumed.items():
                    self.consumed_masks[node_id][oid] = mask
                for node_id, mask in yielded.items():
                    self.yielded_masks[node_id][oid] = mask
        self.stats.versions = sum(self._version_counts.values())
        self.stats.time = time.perf_counter() - start
        return self

    def _prelabel(self) -> Tuple[Dict[int, Dict[int, int]], Dict[int, Dict[int, int]]]:
        """Figure 6: fresh yield labels at stores, fresh consume labels at
        δ nodes.  Returns per-object ``{node: mask}`` maps."""
        svfg = self.svfg
        store_prelabels: Dict[int, Dict[int, int]] = {}
        delta_prelabels: Dict[int, Dict[int, int]] = {}
        counters: Dict[int, int] = {}

        def fresh(oid: int) -> int:
            index = counters.get(oid, 0)
            counters[oid] = index + 1
            self.stats.prelabels += 1
            return 1 << index

        for node in svfg.nodes:
            if self._is_store[node.id]:
                for chi in svfg.memssa.store_chis.get(node.inst, ()):  # type: ignore[attr-defined]
                    oid = chi.obj.id
                    store_prelabels.setdefault(oid, {})[node.id] = fresh(oid)
        for node_id in svfg.delta_nodes:
            oid = svfg.nodes[node_id].obj.id  # type: ignore[attr-defined]
            delta_prelabels.setdefault(oid, {})[node_id] = fresh(oid)
        return store_prelabels, delta_prelabels

    # ----------------------------------------------------- strategy: per-obj

    def _meld_per_object(
        self,
        store_prelabels: Dict[int, Dict[int, int]],
        delta_prelabels: Dict[int, Dict[int, int]],
    ) -> Iterator[Tuple[int, Dict[int, int], Dict[int, int]]]:
        """Yield ``(oid, consumed, yielded)`` masks one object at a time,
        so each object's masks are released before the next is melded."""
        svfg = self.svfg
        # Relay nodes forward what they consume: non-STORE, non-δ.
        delta = svfg.delta_nodes
        relay = bytearray([not store and node_id not in delta
                           for node_id, store in enumerate(self._is_store)])
        ind_edges = svfg.ind_edges
        no_edges: EdgeTable = {}
        oids = set(ind_edges) | set(store_prelabels) | set(delta_prelabels)
        for oid in oids:
            consumed, yielded = self._meld_one_object(
                ind_edges.get(oid, no_edges),
                relay,
                store_prelabels.get(oid, {}),
                delta_prelabels.get(oid, {}),
            )
            yield oid, consumed, yielded

    def _meld_one_object(
        self,
        edges: EdgeTable,
        relay: bytearray,
        store_labels: Dict[int, int],
        delta_labels: Dict[int, int],
    ) -> Tuple[Dict[int, int], Dict[int, int]]:
        """Meld labels for one object's edge table (``{src: dsts}``);
        returns (consumed, yielded) masks."""
        delta = self.svfg.delta_nodes

        # The relay-to-relay subgraph and its SCCs, reverse topological
        # (successors first).
        relay_succs: Dict[int, List[int]] = {}
        relay_nodes: Set[int] = set()
        for src, dsts in edges.items():
            if relay[src]:
                relay_succs[src] = [dst for dst in dsts if relay[dst]]
                relay_nodes.add(src)
            for dst in dsts:
                if relay[dst]:
                    relay_nodes.add(dst)
        comps = tarjan_sccs(relay_nodes, relay_succs)
        comp_of: Dict[int, int] = {}
        for comp_id, members in enumerate(comps):
            for member in members:
                comp_of[member] = comp_id

        # Condensation DAG: fixed sources contribute prelabels; store
        # consumers are sinks (encoded as negative ids); δ targets are
        # frozen and receive nothing (their constraints come later).
        comp_label = [0] * len(comps)
        comp_succs: List[Set[int]] = [set() for __ in comps]
        store_in: Dict[int, int] = {}
        for src, dsts in edges.items():
            if relay[src]:
                src_comp = comp_of[src]
                succ_comps = comp_succs[src_comp]
                for dst in dsts:
                    if relay[dst]:
                        dst_comp = comp_of[dst]
                        if dst_comp != src_comp:
                            succ_comps.add(dst_comp)
                    elif dst not in delta:
                        succ_comps.add(-dst - 1)
            else:
                label = store_labels.get(src) or delta_labels.get(src)
                if not label:
                    continue
                for dst in dsts:
                    if relay[dst]:
                        comp_label[comp_of[dst]] |= label
                    elif dst not in delta:
                        store_in[dst] = store_in.get(dst, 0) | label

        # One pass, predecessors first (Tarjan emits successors first).
        for comp_id in range(len(comps) - 1, -1, -1):
            label = comp_label[comp_id]
            if not label:
                continue
            self.stats.meld_steps += 1
            for succ in comp_succs[comp_id]:
                if succ < 0:
                    dst = -succ - 1
                    store_in[dst] = store_in.get(dst, 0) | label
                else:
                    comp_label[succ] |= label

        # Assemble consumed/yielded masks for this object.
        consumed: Dict[int, int] = {}
        yielded: Dict[int, int] = {}
        for comp_id, members in enumerate(comps):
            label = comp_label[comp_id]
            if not label:
                continue
            for member in members:
                consumed[member] = label
                yielded[member] = label  # [INTERNAL]ⱽ
        for node_id, label in store_in.items():
            if label:
                consumed[node_id] = label
        for node_id, label in store_labels.items():
            yielded[node_id] = label
        for node_id, label in delta_labels.items():
            consumed[node_id] = label
            yielded[node_id] = label  # δ nodes are non-store
        return consumed, yielded

    # ------------------------------------------------- intern + collapse

    def _intern_object(
        self,
        oid: int,
        consumed: Dict[int, int],
        yielded: Dict[int, int],
        edges: EdgeTable,
        keep: bytearray,
        collapse: bool,
    ) -> None:
        """Phases 3 and 4 for one object: dense ids, the cycle collapse,
        the constraints, then the tables the solver reads."""
        interner: Interner = Interner()
        interner.intern(0)  # ε is version 0
        consumed_ver = {node_id: interner.intern(mask) for node_id, mask in consumed.items()}
        yielded_ver = {node_id: interner.intern(mask) for node_id, mask in yielded.items()}
        count = len(interner)
        self.stats.consume_entries += len(consumed_ver)
        self.stats.yield_entries += len(yielded_ver)
        # This object's constraint graph, src version -> {dst versions}
        # in first-seen order; ε sources constrain nothing.
        succs: Dict[int, Dict[int, None]] = {}
        for src, dsts in edges.items():
            src_ver = yielded_ver.get(src)
            if not src_ver:
                continue
            targets = succs.get(src_ver)
            for dst in dsts:
                dst_ver = consumed_ver.get(dst, 0)
                if src_ver != dst_ver:
                    if targets is None:
                        targets = succs[src_ver] = {}
                    targets[dst_ver] = None
        remap: Sequence[int] = range(count)
        if collapse and count > 2:  # a cycle needs two non-ε versions
            merged = _merge_cycles(succs, count)
            if merged is not None:
                remap, count = merged
                consumed_ver = {node_id: remap[ver] for node_id, ver in consumed_ver.items()}
                yielded_ver = {node_id: remap[ver] for node_id, ver in yielded_ver.items()}
        self._version_counts[oid] = count
        # add_constraint drops the self-loops the collapse leaves.
        for src_ver, dst_vers in succs.items():
            for dst_ver in dst_vers:
                self.add_constraint(oid, remap[src_ver], remap[dst_ver])
        # Persist only the entries the solver will consult again.
        for node_id, ver in consumed_ver.items():
            if keep[node_id]:
                self._set_consumed(node_id, oid, ver)
        is_store = self._is_store
        for node_id, ver in yielded_ver.items():
            if keep[node_id] and is_store[node_id]:
                self._set_yielded(node_id, oid, ver)

    # --------------------------------------------------- strategy: fixpoint

    def _meld_fixpoint(
        self,
        store_prelabels: Dict[int, Dict[int, int]],
        delta_prelabels: Dict[int, Dict[int, int]],
    ) -> Iterator[Tuple[int, Dict[int, int], Dict[int, int]]]:
        """The literal worklist reading of [EXTERNAL]ⱽ/[INTERNAL]ⱽ over
        the whole graph; then yields ``(oid, consumed, yielded)`` masks
        object by object."""
        svfg = self.svfg
        is_store = self._is_store
        consumed_masks: List[Dict[int, int]] = [{} for __ in svfg.nodes]
        # Non-store nodes yield what they consume: share the dict.
        yielded_masks: List[Dict[int, int]] = [
            {} if store else consumed_masks[node_id]
            for node_id, store in enumerate(is_store)
        ]
        seeds: List[Tuple[int, int]] = []
        for oid, labels in store_prelabels.items():
            for node_id, mask in labels.items():
                yielded_masks[node_id][oid] = mask
                seeds.append((node_id, oid))
        for oid, labels in delta_prelabels.items():
            for node_id, mask in labels.items():
                consumed_masks[node_id][oid] = mask
                seeds.append((node_id, oid))

        delta = svfg.delta_nodes
        ind_edges = svfg.ind_edges
        no_edges: EdgeTable = {}
        work = deque(seeds)
        in_work = set(seeds)
        while work:
            item = work.popleft()
            in_work.discard(item)
            node_id, oid = item
            label = yielded_masks[node_id].get(oid, 0)
            if not label:
                continue
            succs = ind_edges.get(oid, no_edges).get(node_id)
            if not succs:
                continue
            for succ in succs:
                if succ in delta:
                    continue  # prelabelled consumes are frozen
                consumed = consumed_masks[succ]
                old = consumed.get(oid, 0)
                new = old | label
                if new == old:
                    continue
                consumed[oid] = new
                self.stats.meld_steps += 1
                if not is_store[succ]:
                    key = (succ, oid)
                    if key not in in_work:
                        in_work.add(key)
                        work.append(key)

        by_object: Dict[int, Tuple[Dict[int, int], Dict[int, int]]] = {
            oid: ({}, {}) for oid in ind_edges}
        for side, masks in enumerate((consumed_masks, yielded_masks)):
            for node_id, table in enumerate(masks):
                for oid, mask in table.items():
                    by_object.setdefault(oid, ({}, {}))[side][node_id] = mask
        for oid, (consumed, yielded) in by_object.items():
            yield oid, consumed, yielded


def _merge_cycles(succs: Dict[int, Dict[int, None]],
                  count: int) -> Optional[Tuple[List[int], int]]:
    """Phase 4 for one object's constraint graph *succs* over *count*
    versions: ``(remap, new count)`` merging every SCC into its smallest
    member, renumbered densely in that order; ``None`` when acyclic."""
    smallest: Optional[List[int]] = None
    for component in tarjan_sccs(succs, succs):
        if len(component) > 1:
            if smallest is None:
                smallest = list(range(count))
            low = min(component)
            for ver in component:
                smallest[ver] = low
    if smallest is None:
        return None
    remap = [0] * count
    dense = 0
    for ver, low in enumerate(smallest):
        if low == ver:
            remap[ver] = dense
            dense += 1
        else:
            remap[ver] = remap[low]
    return remap, dense


def version_objects(svfg: SVFG, strategy: str = "scc",
                    collapse: bool = True) -> ObjectVersioning:
    """Run the versioning pre-analysis (prelabel → meld → intern →
    collapse; ``collapse=False`` stops after interning)."""
    return ObjectVersioning(svfg).run(strategy=strategy, collapse=collapse)

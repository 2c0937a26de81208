"""The shard-local solver: SFS restricted to an owned region.

:class:`ShardedSFS` is the ordinary staged SFS solver with three changes:

- the worklist drops pushes of nodes the worker does not own (transfer
  functions only ever run on owned nodes);
- information leaving the owned region is captured in per-round
  **outboxes** instead of being applied locally — top-level growth as
  var deltas, address-taken growth as memory deltas, OTF call-graph
  discoveries as replayable edge references;
- incoming frontier deltas are applied through ``apply_*`` entry points
  that suppress outbox recording (the sender already broadcast them).

Confluence (DESIGN.md §10) is what makes this sound *and* exact: every
transfer function's contribution is bounded by its value at the final
fixpoint, so the sharded schedule — which is just another fair schedule
— reaches the identical least fixpoint, bit for bit.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Deque, Dict, Iterator, List, Optional, Tuple

from repro.datastructs.bitset import count_bits
from repro.datastructs.worklist import FIFOWorkList
from repro.ir.function import Function
from repro.ir.instructions import CallInst
from repro.ir.values import Variable
from repro.parallel.partition import Partition
from repro.solvers.sfs import SFSAnalysis
from repro.store.codec import call_sites_by_id, resolve_call_edge
from repro.svfg.builder import SVFG
from repro.svfg.nodes import InstNode


class OwnedFIFOWorkList(FIFOWorkList):
    """FIFO worklist over an owned region, popped shard-staged.

    Drops pushes of nodes the worker does not own, and pops from the
    topologically earliest non-empty *shard* (shards are contiguous
    topological segments of the SCC condensation), FIFO within a shard.
    The staged drain is the sharded solver's main work saver: each local
    fixpoint becomes a topological sweep where downstream shards run
    after their upstream inputs settle, while FIFO order inside a shard
    keeps SCC cycles draining round-robin exactly like the serial
    kernel.  ``_buckets`` holds one deque per shard (the shard count is
    small, so min-scans are trivial).
    """

    __slots__ = ("_owned", "_shard_of", "_buckets", "_min", "_size")

    def __init__(self, owned: List[bool], shard_of: List[int],
                 num_shards: int) -> None:
        super().__init__()
        self._owned = owned
        self._shard_of = shard_of
        self._buckets: List[Deque[int]] = [deque()
                                           for _ in range(num_shards)]
        self._min = num_shards
        self._size = 0

    def push(self, node: int) -> bool:
        if not self._owned[node]:
            return False
        member = self._member
        if node in member:
            return False
        member.add(node)
        sid = self._shard_of[node]
        self._buckets[sid].append(node)
        self._size += 1
        if sid < self._min:
            self._min = sid
        return True

    def pop(self) -> int:
        buckets = self._buckets
        sid = self._min
        while not buckets[sid]:
            sid += 1
        self._min = sid
        self._size -= 1
        node = buckets[sid].popleft()
        self._member.discard(node)
        return node

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def snapshot(self) -> dict:
        return {"items": [node for bucket in self._buckets
                          for node in bucket]}

    def restore(self, state: dict) -> None:
        shard_of = self._shard_of
        buckets = self._buckets
        for node in state["items"]:
            sid = shard_of[node]
            buckets[sid].append(node)
            if sid < self._min:
                self._min = sid
        self._size = len(state["items"])
        self._member = set(state["items"])


class ShardedSFS(SFSAnalysis):
    """SFS restricted to an owned region.

    Each object's edge table is split, for owned sources, into a local
    part (walked by the unmodified ``_propagate``) and an **export part**
    whose growth is diffed against a per-``(dst, object)`` sent-mask and
    queued as frontier memory deltas.
    """

    def __init__(self, svfg: SVFG, partition: Partition, worker_id: int,
                 **kwargs) -> None:
        self.partition = partition
        self.worker_id = worker_id
        self.owned: List[bool] = partition.owned_mask(worker_id)
        self._suppress_outbox = False
        self._var_outbox: Dict[int, int] = {}
        self._mem_outbox: Dict[Tuple[int, int], int] = {}
        self._call_outbox: List[Tuple[int, str]] = []
        self._call_sites = None
        #: obj id -> owned src id -> successors owned by other workers.
        self._export_succs: Dict[int, Dict[int, List[int]]] = {}
        self._export_sent: Dict[Tuple[int, int], int] = {}
        self.rounds_run = 0
        super().__init__(svfg, **kwargs)
        self.worklist = OwnedFIFOWorkList(self.owned, partition.shard_of,
                                          len(partition.shards))
        self._split_all()

    # -------------------------------------------------------- owned filtering

    def _seed(self) -> None:
        """Seed only the owned rule-bearing nodes, in shard order.

        Shards are contiguous topological segments of the SCC
        condensation, so pushing shard-by-shard makes the FIFO drain walk
        the owned region in roughly topological order — upstream sets are
        near-final when downstream nodes first pop.
        """
        seed_types = self.SEED_TYPES
        nodes = self.svfg.nodes
        push = self.worklist.push
        start, end = self.partition.worker_shards[self.worker_id]
        for sid in range(start, end):
            for node_id in self.partition.shards[sid]:
                node = nodes[node_id]
                if isinstance(node, InstNode) \
                        and isinstance(node.inst, seed_types):
                    push(node_id)

    def set_pt(self, var: Variable, mask: int) -> bool:
        vid = var.id
        old = self.pt[vid]
        new = old | mask
        if new == old:
            return False
        if not self._suppress_outbox:
            self._var_outbox[vid] = self._var_outbox.get(vid, 0) | (new & ~old)
        self.pt[vid] = new
        for user in self.svfg.var_uses.get(vid, ()):
            self.worklist.push(user)  # the worklist drops non-owned nodes
        return True

    def _on_new_call_edge(self, call: CallInst, callee: Function,
                          touched: List[int]) -> None:
        if not self._suppress_outbox:
            self._call_outbox.append((call.id, callee.name))
        self._split_call_edges(call, callee, touched)
        super()._on_new_call_edge(call, callee, touched)

    # ---------------------------------------------------------- edge exports

    def _split_all(self) -> None:
        for oid, table in list(self.svfg.edge_tables()):
            self._split_edges(oid, table)  # writes the view's overlay

    def _split_edges(self, oid: int, table: Dict[int, Tuple[int, ...]]) -> None:
        """Move cross-worker successors of the owned sources in *table*
        (``{src: dsts}`` of object *oid*) to the export table."""
        owned = self.owned
        split = [src for src, dsts in table.items()
                 if owned[src] and not all(owned[dst] for dst in dsts)]
        if not split:
            return
        exports = self._export_succs.setdefault(oid, {})
        for src in split:
            dsts = table[src]
            exported = [dst for dst in dsts if not owned[dst]]
            # The row is the build's: the owned part goes to the view.
            self.svfg.replace_row(src, oid,
                                  tuple(dst for dst in dsts if owned[dst]))
            seen = exports.get(src)
            if seen is None:
                exports[src] = exported  # SVFG successor lists are deduped
            else:
                known = set(seen)
                seen.extend(dst for dst in exported if dst not in known)

    def _split_call_edges(self, call: CallInst, callee: Function,
                          touched: List[int]) -> None:
        """connect_callsite may have appended cross-worker indirect edges
        (ActualIN→FormalIN / FormalOUT→ActualOUT) to owned sources."""
        row = self.svfg.row
        for src, __, oid in self.svfg.call_edges(call, callee):
            if oid is not None and src in touched:
                self._split_edges(oid, {src: row(src, oid)})

    def _propagate(self, node_id: int, oid: int, mask: int,
                   succs: Optional[Tuple[int, ...]] = None) -> None:
        super()._propagate(node_id, oid, mask, succs)
        exports = self._export_succs.get(oid)
        if not exports or not mask:
            return
        dsts = exports.get(node_id)
        if not dsts:
            return
        sent = self._export_sent
        outbox = self._mem_outbox
        self.stats.propagations += len(dsts)
        for dst in dsts:
            key = (dst, oid)
            added = mask & ~sent.get(key, 0)
            if added:
                sent[key] = sent.get(key, 0) | added
                outbox[key] = outbox.get(key, 0) | added

    # ------------------------------------------------------------ round loop

    def prepare_round_zero(self) -> None:
        """First-round setup: the pre-analysis and the owned seed set."""
        if self._resumed:
            return
        if self.meter is not None:
            self.meter.start()
            self.meter.check()
        if self.faults is not None:
            self.faults.fire("pre_meld", self.analysis_name)
        self._prepare()
        self._seed()

    def solve_round(self) -> int:
        """Drain the owned worklist to local quiescence; return pops.

        Raises :class:`~repro.errors.BudgetExceeded` out of the meter
        like the serial loop; the driver owns the reaction.
        """
        begun = time.perf_counter()
        processed = 0
        worklist = self.worklist
        nodes = self.svfg.nodes
        meter = self.meter
        tick = meter.tick if meter is not None else None
        process = self._process
        try:
            pop = worklist.pop
            while worklist:
                if tick is not None:
                    tick()
                processed += 1
                process(nodes[pop()])
        finally:
            self._steps_done += processed
            self.stats.nodes_processed = self._steps_done
            self.stats.solve_time += time.perf_counter() - begun
            self.rounds_run += 1
        return processed

    # -------------------------------------------------------------- frontier

    def collect_outbox(self) -> Tuple[Dict[int, int], Dict[Tuple[int, int], int],
                                      List[Tuple[int, str]]]:
        """Drain (vars, mem, calls) accumulated since the last collect."""
        var_deltas, self._var_outbox = self._var_outbox, {}
        mem_deltas, self._mem_outbox = self._mem_outbox, {}
        calls, self._call_outbox = self._call_outbox, []
        return var_deltas, mem_deltas, calls

    def apply_var_delta(self, vid: int, mask: int) -> None:
        """Merge a peer's top-level growth; wake owned readers."""
        old = self.pt[vid]
        new = old | mask
        if new != old:
            self.pt[vid] = new
            for user in self.svfg.var_uses.get(vid, ()):
                self.worklist.push(user)

    def apply_call_edge(self, inst_id: int, callee_name: str) -> None:
        """Replay a peer-discovered call edge on this worker's SVFG view."""
        if self._call_sites is None:
            self._call_sites = call_sites_by_id(self.module)
        call, callee = resolve_call_edge(self.module, self._call_sites,
                                         inst_id, callee_name)
        self._suppress_outbox = True
        try:
            if self.callgraph.add_edge(call, callee):
                touched = self.svfg.connect_callsite(call, callee)
                self._split_call_edges(call, callee, touched)
                super()._on_new_call_edge(call, callee, touched)
                for src in touched:
                    self.worklist.push(src)
                exit_inst = callee.exit_inst()
                if exit_inst is not None and call.dst is not None:
                    self.worklist.push(self.svfg.inst_node[exit_inst].id)
                # Re-run the CALL binding for the new callee (args may
                # already be known even if the call node never re-pops).
                for arg, param in zip(call.args, callee.params):
                    arg_mask = self.value_mask(arg)
                    if arg_mask:
                        self.set_pt(param, arg_mask)
        finally:
            self._suppress_outbox = False

    def apply_mem_delta(self, key: Tuple[int, int], mask: int) -> None:
        """Merge a peer's IN-set growth into an owned node."""
        node_id, oid = key
        if not self.owned[node_id]:
            return  # broadcast batch: not addressed to this worker
        in_set = self.in_sets.setdefault(node_id, {})
        entry = in_set.get(oid, 0)
        new = entry | mask
        if new == entry:
            return
        # The union the sender's _propagate would have applied happens
        # here, on the edge's receiving side — count it here too, so
        # merged worker stats line up with the serial solve's tallies.
        self.stats.unions += 1
        in_set[oid] = self.canon.setdefault(new, new)
        self.worklist.push(node_id)

    def apply_frontier(self, batches, mirrors) -> None:
        """Apply a round's incoming batches (any order reaches the same
        state — the solve is confluent; see DESIGN.md §10)."""
        for batch in batches:
            mirrors.import_batch(batch)
            for inst_id, callee_name in batch.calls:
                self.apply_call_edge(inst_id, callee_name)
            for vid, set_id in batch.vars.items():
                self.apply_var_delta(vid, mirrors.resolve(batch, set_id))
            for key, set_id in batch.mem.items():
                self.apply_mem_delta(tuple(key), mirrors.resolve(batch, set_id))

    # ----------------------------------------------------- result extraction

    def finalize(self) -> None:
        """Fill the end-of-solve stats the serial loop computes in run()."""
        self.stats.callgraph_edges = self.callgraph.num_edges()
        self.stats.top_level_bits = sum(count_bits(mask) for mask in self.pt)
        self._memory_footprint()

    def stored_masks(self) -> Iterator[int]:
        """Every stored non-empty address-taken mask (for the driver's
        exact global dedup recount across workers)."""
        for sets in (self.in_sets, self.out_sets):
            for table in sets.values():
                for mask in table.values():
                    if mask:
                        yield mask

    # --------------------------------------------------------------- sealing

    def shard_seal_extra(self) -> Dict[str, object]:
        return {
            "export_sent": {f"{dst}:{oid}": format(mask, "x")
                            for (dst, oid), mask in self._export_sent.items()},
        }

    def restore_shard_extra(self, extra: Dict[str, object]) -> None:
        sent: Dict[Tuple[int, int], int] = {}
        for key, text in extra.get("export_sent", {}).items():
            dst, oid = key.split(":")
            sent[(int(dst), int(oid))] = int(text, 16)
        self._export_sent = sent

    def after_restore(self) -> None:
        """Re-derive sharded indexes a plain snapshot does not carry.

        ``restore_state`` replayed the call edges without splitting the
        rows they grew; split them now (construction's exports stay).
        """
        self._split_all()

"""SVFG partitioning: SCC condensation → topological shards → workers.

The unit of scheduling is a **shard**: a contiguous run of SCC
components in topological order.  Shards exist so the driver can balance
work (≈ ``jobs × shards_per_worker`` of them) while workers own
*contiguous topological ranges* — worker 0 holds the topologically
earliest region of the graph, worker N−1 the latest, so cross-worker
value flow is predominantly forward (low worker id → high) and the
round-based frontier exchange approximates a staged topological sweep.

The dependency graph condensed here is the SVFG's *eventual* shape:
direct edges, indirect (object-labelled) edges, and the call edges the
auxiliary analysis says on-the-fly resolution may wire in later.
Partition quality never affects results (the solvers are confluent);
it only affects how much work crosses worker boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.datastructs.bitset import iter_bits
from repro.datastructs.graph import DiGraph
from repro.ir.instructions import CallInst
from repro.ir.values import FunctionObject
from repro.svfg.builder import SVFG


@dataclass
class Partition:
    """Node → shard → worker assignment over one SVFG."""

    num_workers: int
    #: node id -> shard index (shards are numbered in topological order).
    shard_of: List[int]
    #: node id -> topological index of its SCC component.  The sharded
    #: worklists use this as a pop priority, so each worker drains its
    #: owned region as a staged topological sweep (minimal revisits)
    #: instead of in FIFO discovery order.
    topo_of: List[int]
    #: node id -> owning worker (contiguous shard ranges per worker).
    owner_of: List[int]
    #: shard index -> node ids (each node appears in exactly one shard).
    shards: List[List[int]] = field(repr=False)
    #: worker -> (first shard, one past last shard).
    worker_shards: List[Tuple[int, int]] = field(default_factory=list)
    #: number of SCC components the dependency graph condensed into.
    num_components: int = 0

    def owned_mask(self, worker: int) -> List[bool]:
        """Per-node ownership flags for *worker* (dense, index = node id)."""
        return [owner == worker for owner in self.owner_of]

    def worker_sizes(self) -> List[int]:
        sizes = [0] * self.num_workers
        for owner in self.owner_of:
            sizes[owner] += 1
        return sizes


def _dependency_adjacency(svfg: SVFG) -> List[List[int]]:
    """The SVFG's eventual value-flow shape as int adjacency lists.

    Includes the edges ``connect_callsite`` *will* add for every call
    edge the auxiliary analysis admits (direct calls are wired at build
    time already; indirect ones are resolved on the fly) — without them
    a callee's region could be ordered before its callers and every
    parameter binding would cross a worker boundary backwards.

    Duplicate edges are not collapsed: Tarjan just re-scans them, which
    is far cheaper than set-deduping hundreds of thousands of edges.
    """
    succs: List[List[int]] = [[] for _ in range(len(svfg.nodes))]
    for src, dsts in enumerate(svfg.direct_succs):
        succs[src].extend(dsts)
    for src, table in enumerate(svfg.indirect_succs()):
        for dsts in table.values():
            succs[src].extend(dsts)
    # Potential OTF call wiring, over-approximated by Andersen.
    andersen = svfg.andersen
    module = svfg.module
    for inst, node in svfg.inst_node.items():
        if not isinstance(inst, CallInst):
            continue
        if inst.is_indirect():
            callees = []
            for oid in iter_bits(andersen.pts_mask(inst.callee)):
                obj = module.objects[oid]
                if isinstance(obj, FunctionObject):
                    callees.append(obj.function)
        else:
            callees = [inst.callee]
        for callee in callees:
            if callee.is_declaration:
                continue
            for src, dst, __ in svfg.call_edges(inst, callee):
                succs[src].append(dst)
    return succs


def build_dependency_graph(svfg: SVFG) -> DiGraph[int]:
    """:func:`_dependency_adjacency` as a :class:`DiGraph` (test/debug
    surface; the hot partitioning path stays on the raw adjacency)."""
    graph: DiGraph[int] = DiGraph()
    for node in svfg.nodes:
        graph.add_node(node.id)
    for src, dsts in enumerate(_dependency_adjacency(svfg)):
        for dst in dsts:
            graph.add_edge(src, dst)
    return graph


def _condense_adjacency(succs: List[List[int]]
                        ) -> Tuple[List[int], List[List[int]]]:
    """Iterative Tarjan over int adjacency lists.

    Returns ``(component_of, components)`` with components in
    topological order — the array-indexed twin of
    :func:`repro.datastructs.graph.condensation`, several times faster
    on SVFG-sized graphs because it never touches dict-keyed state.
    """
    n = len(succs)
    index = [0] * n  # 0 = unvisited, else discovery index + 1
    low = [0] * n
    on_stack = bytearray(n)
    stack: List[int] = []
    components: List[List[int]] = []
    counter = 1
    for root in range(n):
        if index[root]:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = 1
        work: List[List[int]] = [[root, 0]]
        while work:
            frame = work[-1]
            node = frame[0]
            adj = succs[node]
            i = frame[1]
            advanced = False
            while i < len(adj):
                succ = adj[i]
                i += 1
                if not index[succ]:
                    frame[1] = i
                    index[succ] = low[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack[succ] = 1
                    work.append([succ, 0])
                    advanced = True
                    break
                if on_stack[succ] and index[succ] < low[node]:
                    low[node] = index[succ]
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if low[node] < low[parent]:
                    low[parent] = low[node]
            if low[node] == index[node]:
                component: List[int] = []
                while True:
                    member = stack.pop()
                    on_stack[member] = 0
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
    components.reverse()  # Tarjan yields callee-first; topological = reverse
    component_of = [0] * n
    for cid, members in enumerate(components):
        for member in members:
            component_of[member] = cid
    return component_of, components


def partition_svfg(svfg: SVFG, jobs: int,
                   shards_per_worker: int = 4) -> Partition:
    """Cut the SVFG into ``≈ jobs × shards_per_worker`` balanced shards.

    Components come out of :func:`condensation` in topological order;
    shards are contiguous component runs filled to an even node quota,
    and workers take contiguous shard ranges balanced the same way — so
    ``owner_of`` is monotone along the condensation's topological order.
    Deterministic for a given SVFG.
    """
    jobs = max(1, int(jobs))
    total = len(svfg.nodes)
    if total == 0:
        return Partition(num_workers=jobs, shard_of=[], topo_of=[],
                         owner_of=[], shards=[[] for _ in range(jobs)],
                         worker_shards=[(w, w + 1) for w in range(jobs)])
    component_of, components = _condense_adjacency(
        _dependency_adjacency(svfg))
    topo_of = component_of

    target_shards = max(jobs, jobs * max(1, int(shards_per_worker)))
    quota = max(1, -(-total // target_shards))  # ceil division
    shards: List[List[int]] = []
    current: List[int] = []
    for members in components:
        # Node-id order within a component keeps the layout reproducible
        # independently of Tarjan's internal stack order.
        current.extend(sorted(members))
        if len(current) >= quota and len(shards) < target_shards - 1:
            shards.append(current)
            current = []
    if current:
        shards.append(current)

    shard_of = [0] * total
    for sid, members in enumerate(shards):
        for node_id in members:
            shard_of[node_id] = sid

    # Contiguous shard ranges per worker, balanced by node count: cut
    # whenever the running total passes the next equal-share boundary.
    worker_shards: List[Tuple[int, int]] = []
    owner_of = [0] * total
    start = 0
    placed = 0
    for worker in range(jobs):
        end = start
        boundary = (total * (worker + 1)) // jobs
        while end < len(shards) and (placed < boundary or end == start):
            if worker < jobs - 1:
                remaining_workers = jobs - worker - 1
                remaining_shards = len(shards) - end
                if remaining_shards <= remaining_workers:
                    break  # leave at least one shard per later worker
            placed += len(shards[end])
            end += 1
        if worker == jobs - 1:  # last worker takes whatever is left
            while end < len(shards):
                placed += len(shards[end])
                end += 1
        worker_shards.append((start, end))
        for sid in range(start, end):
            for node_id in shards[sid]:
                owner_of[node_id] = worker
        start = end

    return Partition(num_workers=jobs, shard_of=shard_of, topo_of=topo_of,
                     owner_of=owner_of, shards=shards,
                     worker_shards=worker_shards,
                     num_components=len(components))

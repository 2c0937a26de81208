"""Dependency maps: growing an edited function into its dirty closure.

Two granularities:

- :class:`DependencyMap` is the *function-level* map the tentpole names —
  call-graph edges (both directions: parameters/memory flow in, return
  values/memory flow out) plus mod/ref overlap (``f`` writes an object
  ``g`` reads).  Its :meth:`~DependencyMap.dirty_closure` is **monotone**:
  closures only grow as edges or seeds are added — the property the
  hypothesis suite pins down.

- :func:`node_dirty_closure` is the *node-level* refinement the warm
  planner actually uses: a forward BFS over the new SVFG (direct +
  indirect edges) extended with :func:`potential_call_adjacency` — the
  interprocedural edges on-the-fly call-graph resolution *would* wire in,
  synthesised from the auxiliary (Andersen) resolution, so nothing the
  solver could later connect escapes the closure.  Projected onto
  function regions it is never coarser than the function-level closure,
  and often finer (a callee whose only link back to its caller is a
  return value nobody binds stays clean).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.datastructs.bitset import iter_bits
from repro.ir.function import Function
from repro.ir.instructions import CallInst
from repro.ir.module import Module
from repro.ir.values import FunctionObject


def _call_targets(call: CallInst, module: Module, andersen) -> List[Function]:
    """Possible callees of *call*: static target, or the auxiliary
    resolution of the callee pointer for indirect sites."""
    if not call.is_indirect():
        callee = call.callee
        return [callee] if isinstance(callee, Function) else []
    if andersen is None:
        return []
    targets: List[Function] = []
    for oid in iter_bits(andersen.pts_mask(call.callee)):
        obj = module.objects[oid]
        if isinstance(obj, FunctionObject):
            targets.append(obj.function)
    return targets


class DependencyMap:
    """Function-level dependency edges with a monotone forward closure."""

    def __init__(self, edges: Optional[Dict[str, Set[str]]] = None):
        self.edges: Dict[str, Set[str]] = {
            name: set(succs) for name, succs in (edges or {}).items()}

    def add_edge(self, src: str, dst: str) -> None:
        self.edges.setdefault(src, set()).add(dst)
        self.edges.setdefault(dst, set())

    @classmethod
    def from_module(cls, module: Module, andersen=None,
                    modref=None) -> "DependencyMap":
        """Build the map from call sites and (optionally) mod/ref masks.

        Call edges run both ways: a caller feeds its callee (arguments,
        memory in), and a callee feeds its caller (return value, memory
        out).  With *modref*, ``f → g`` is added whenever ``f`` may write
        an object ``g`` may read or write.
        """
        dep = cls()
        functions = list(module.functions.values())
        for fn in functions:
            dep.edges.setdefault(fn.name, set())
            for block in fn.blocks:
                for inst in block.instructions:
                    if not isinstance(inst, CallInst):
                        continue
                    for callee in _call_targets(inst, module, andersen):
                        dep.add_edge(fn.name, callee.name)
                        dep.add_edge(callee.name, fn.name)
        if modref is not None:
            for f in functions:
                mod = modref.mod.get(f, 0)
                if not mod:
                    continue
                for g in functions:
                    if g is f:
                        continue
                    if mod & (modref.mod.get(g, 0) | modref.ref.get(g, 0)):
                        dep.add_edge(f.name, g.name)
        return dep

    def dirty_closure(self, seeds: Iterable[str]) -> Set[str]:
        """Forward reachability from *seeds* (seeds included).

        Monotone in both arguments: adding a seed or an edge can only
        grow the result, and ``f → g`` with ``f`` dirty forces ``g``
        dirty — the invariants the property tests assert.
        """
        dirty: Set[str] = set(seeds)
        frontier = list(dirty)
        while frontier:
            name = frontier.pop()
            for succ in self.edges.get(name, ()):
                if succ not in dirty:
                    dirty.add(succ)
                    frontier.append(succ)
        return dirty


# ------------------------------------------------------- node-level closure

def potential_call_adjacency(svfg, andersen=None) -> Dict[int, List[int]]:
    """Extra forward edges OTF call-graph resolution could create.

    For every call site and every auxiliary-resolvable callee:
    ``call → entry`` (parameter binding), ``exit → call`` when the call
    binds a result, and the ``actual-in → formal-in`` /
    ``formal-out → actual-out`` μ/χ pairs for objects both sides
    annotate.  Direct calls are wired at build time already; re-listing
    them is harmless (the BFS dedups).
    """
    module = svfg.module
    andersen = andersen if andersen is not None else svfg.andersen
    extra: Dict[int, List[int]] = {}

    def add(src: int, dst: int) -> None:
        extra.setdefault(src, []).append(dst)

    for inst, node in svfg.inst_node.items():
        if not isinstance(inst, CallInst):
            continue
        for callee in _call_targets(inst, module, andersen):
            if callee.is_declaration:
                continue
            entry = svfg.inst_node.get(callee.entry_inst)
            if entry is not None:
                add(node.id, entry.id)
            exit_inst = callee.exit_inst()
            if exit_inst is not None and inst.dst is not None:
                add(svfg.inst_node[exit_inst].id, node.id)
            fin_table = svfg.formal_in.get(callee, {})
            for oid, ain in svfg.actual_in.get(inst, {}).items():
                fin = fin_table.get(oid)
                if fin is not None:
                    add(ain, fin)
            fout_table = svfg.formal_out.get(callee, {})
            for oid, aout in svfg.actual_out.get(inst, {}).items():
                fout = fout_table.get(oid)
                if fout is not None:
                    add(fout, aout)
    return extra


def node_dirty_closure(svfg, seed_functions: Iterable[str], andersen=None,
                       seed_nodes: Iterable[int] = ()
                       ) -> Tuple[Set[int], Set[str]]:
    """Forward BFS from every node of *seed_functions* (plus any extra
    *seed_nodes*) over the SVFG.

    Follows direct edges, indirect edges (all objects), and
    :func:`potential_call_adjacency`.  Returns ``(reached node ids,
    dirty function names)`` where the dirty set is the seeds plus every
    function owning a reached node — the regions a warm re-solve must
    recompute.
    """
    regions = svfg.nodes_by_function()
    seeds = set(seed_functions)
    extra = potential_call_adjacency(svfg, andersen)
    frontier: List[int] = []
    reached: Set[int] = set()

    def enqueue(nid: int) -> None:
        if nid not in reached:
            reached.add(nid)
            frontier.append(nid)

    for name in seeds:
        for nid in regions.get(name, ()):
            enqueue(nid)
    for nid in seed_nodes:
        enqueue(nid)
    direct_succs = svfg.direct_succs
    ind_succs = svfg.indirect_succs()
    while frontier:
        nid = frontier.pop()
        for dst in direct_succs[nid]:
            if dst not in reached:
                reached.add(dst)
                frontier.append(dst)
        for dsts in ind_succs[nid].values():
            for dst in dsts:
                if dst not in reached:
                    reached.add(dst)
                    frontier.append(dst)
        for dst in extra.get(nid, ()):
            if dst not in reached:
                reached.add(dst)
                frontier.append(dst)
    dirty = set(seeds)
    nodes = svfg.nodes
    for nid in reached:
        fn = nodes[nid].function
        dirty.add(fn.name if fn is not None else "")
    dirty.discard("")
    return reached, dirty


def node_flow_graph(svfg) -> Dict[int, List[int]]:
    """Forward node adjacency of a (solved) SVFG — direct and indirect.

    Captured alongside a stored solution.  At plan time the forward
    closure of the *changed or deleted* functions' old nodes over this
    graph identifies every old value that may have depended on flows the
    edit removed — values that could **shrink**, which the new-graph
    closure alone cannot see.  Node-granular on purpose: projecting to
    functions first would let one dirty value anywhere in a big caller
    taint everything the caller touches.
    """
    graph: Dict[int, List[int]] = {}
    ind_succs = svfg.indirect_succs()
    for nid in range(len(svfg.nodes)):
        succs = set(svfg.direct_succs[nid])
        for dsts in ind_succs[nid].values():
            succs.update(dsts)
        succs.discard(nid)
        if succs:
            graph[nid] = sorted(succs)
    return graph


def function_flow_graph(svfg) -> Dict[str, List[str]]:
    """Function-level projection of a (solved) SVFG's edges.

    Captured alongside a stored solution: at plan time the forward
    closure of the *changed or deleted* functions over this old-graph
    projection identifies everything whose old value may have depended
    on flows the edit removed — values that could **shrink**, which the
    new-graph closure alone cannot see.
    """
    nodes = svfg.nodes
    ind_succs = svfg.indirect_succs()
    edges: Dict[str, Set[str]] = {}

    def name_of(nid: int) -> str:
        fn = nodes[nid].function
        return fn.name if fn is not None else ""

    for nid in range(len(nodes)):
        src = name_of(nid)
        bucket = edges.setdefault(src, set())
        for dst in svfg.direct_succs[nid]:
            bucket.add(name_of(dst))
        for dsts in ind_succs[nid].values():
            for dst in dsts:
                bucket.add(name_of(dst))
    return {src: sorted(dsts - {src, ""})
            for src, dsts in edges.items() if src}

"""Growing an edited function into its dirty closure.

:func:`node_dirty_closure` is what the warm planner uses: a forward BFS
over the new SVFG (direct + indirect edges) extended with
:func:`potential_call_adjacency` — the interprocedural edges on-the-fly
call-graph resolution *would* wire in, synthesised from the auxiliary
(Andersen) resolution, so nothing the solver could later connect escapes
the closure.  It is node-granular, so a callee whose only link back to
its caller is a return value nobody binds stays clean.
:func:`node_flow_graph` is the solved graph's adjacency, stored with a
solution so the next plan can see values an edit may shrink.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

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
    direct_row = svfg.row
    for nid in range(len(svfg.nodes)):
        succs = set(direct_row(nid))
        for dsts in ind_succs[nid].values():
            succs.update(dsts)
        succs.discard(nid)
        if succs:
            graph[nid] = sorted(succs)
    return graph

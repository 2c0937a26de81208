"""Andersen-style (inclusion-based) flow-insensitive points-to analysis.

This is the *auxiliary analysis* of staged flow-sensitive analysis (§II-B):
sound, relatively cheap, and precise enough to build an acceptable SVFG.

Implementation notes
--------------------

- Constraint-graph nodes are dense ints: variable ``v`` is node ``v.id``;
  object ``o`` is node ``V + o.id`` where ``V`` is the (fixed) variable
  count.  Field objects created during solving simply extend the range.
- Points-to sets are int bit masks over object ids (union = ``|``).
- Difference propagation: complex constraints (load/store/field/indirect
  call) are re-evaluated only against the *delta* of a node's points-to set.
- Online cycle collapsing: the copy-edge graph is periodically SCC-collapsed
  (Tarjan + union-find), merging each cycle into one representative — the
  classic optimisation that keeps inclusion-based analysis near-quadratic.
- The call graph is resolved on the fly: when a function object flows into
  an indirect call's callee pointer, parameter/return copy edges appear.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.datastructs.bitset import iter_bits
from repro.datastructs.graph import DiGraph, strongly_connected_components
from repro.datastructs.unionfind import UnionFind
from repro.datastructs.worklist import FIFOWorkList
from repro.analysis.callgraph import CallGraph
from repro.errors import AnalysisError, BudgetExceeded
from repro.ir.function import Function
from repro.ir.instructions import (
    AllocInst,
    CallInst,
    CopyInst,
    FieldInst,
    LoadInst,
    PhiInst,
    RetInst,
    StoreInst,
)
from repro.ir.module import Module
from repro.ir.values import FunctionObject, MemObject, Variable


@dataclass
class AndersenStats:
    """Counters describing one Andersen run."""

    solve_time: float = 0.0
    processed_nodes: int = 0
    copy_edges: int = 0
    collapse_runs: int = 0
    collapsed_nodes: int = 0
    indirect_calls_resolved: int = 0


class AndersenResult:
    """Flow-insensitive points-to sets plus the resolved call graph."""

    def __init__(
        self,
        module: Module,
        var_pts: List[int],
        obj_pts: List[int],
        callgraph: CallGraph,
        stats: AndersenStats,
    ):
        self.module = module
        self._var_pts = var_pts
        self._obj_pts = obj_pts
        self.callgraph = callgraph
        self.stats = stats

    def snapshot(self) -> Dict[int, int]:
        """var id -> mask for every non-empty set (mirrors the
        flow-sensitive result API; used by tests for bit-identity)."""
        return {vid: mask for vid, mask in enumerate(self._var_pts) if mask}

    def pts_mask(self, var: Variable) -> int:
        """Raw bit mask (over object ids) of pt(var)."""
        if var.id < 0 or var.id >= len(self._var_pts):
            return 0
        return self._var_pts[var.id]

    def obj_pts_mask(self, obj: MemObject) -> int:
        if obj.id < 0 or obj.id >= len(self._obj_pts):
            return 0
        return self._obj_pts[obj.id]

    def points_to(self, var: Variable) -> Set[MemObject]:
        """pt(var) as a set of objects (convenience API)."""
        objects = self.module.objects
        return {objects[oid] for oid in iter_bits(self.pts_mask(var))}

    def may_alias(self, a: Variable, b: Variable) -> bool:
        """May *a* and *b* point to a common object?"""
        return bool(self.pts_mask(a) & self.pts_mask(b))


class AndersenAnalysis:
    """One-shot solver; construct and :meth:`run`."""

    #: Re-run SCC collapsing after this many worklist pops.
    COLLAPSE_PERIOD = 20_000

    def __init__(self, module: Module, collapse_cycles: bool = True, meter=None,
                 checkpointer=None):
        self.module = module
        self.collapse_cycles = collapse_cycles
        self.meter = meter
        self.checkpointer = checkpointer
        self._resumed = False
        self.var_count = len(module.variables)
        size = self.var_count + len(module.objects)
        # Core solver state, indexed by constraint node.
        self.pts: List[int] = [0] * size
        self.done: List[int] = [0] * size  # delta baseline for complex constraints
        self.copy_succs: List[Set[int]] = [set() for __ in range(size)]
        self.load_dsts: List[List[int]] = [[] for __ in range(size)]
        self.store_srcs: List[List[int]] = [[] for __ in range(size)]
        self.field_dsts: List[List[Tuple[int, int]]] = [[] for __ in range(size)]
        self.indirect_sites: List[List[CallInst]] = [[] for __ in range(size)]
        self.uf = UnionFind(size)
        self.worklist: FIFOWorkList[int] = FIFOWorkList()
        self.callgraph = CallGraph(module)
        self.stats = AndersenStats()
        self._ret_cache: Dict[Function, Optional[RetInst]] = {}

    # -------------------------------------------------------------- node ids

    def var_node(self, var: Variable) -> int:
        if var.id < 0:
            raise AnalysisError(f"variable {var!r} is unregistered; renumber the module")
        return self.uf.find(var.id)

    def obj_node(self, obj: MemObject) -> int:
        node = self.var_count + obj.id
        self._ensure(node)
        return self.uf.find(node)

    def _ensure(self, node: int) -> None:
        while len(self.pts) <= node:
            self.pts.append(0)
            self.done.append(0)
            self.copy_succs.append(set())
            self.load_dsts.append([])
            self.store_srcs.append([])
            self.field_dsts.append([])
            self.indirect_sites.append([])
            self.uf.ensure(len(self.pts) - 1)

    # ------------------------------------------------------------ constraints

    def add_pts(self, node: int, mask: int) -> None:
        node = self.uf.find(node)
        new = self.pts[node] | mask
        if new != self.pts[node]:
            self.pts[node] = new
            self.worklist.push(node)

    def add_copy(self, src: int, dst: int) -> None:
        src, dst = self.uf.find(src), self.uf.find(dst)
        if src == dst:
            return
        if dst not in self.copy_succs[src]:
            self.copy_succs[src].add(dst)
            self.stats.copy_edges += 1
            self.add_pts(dst, self.pts[src])

    def _copy_from_value(self, value: object, dst: int) -> None:
        if isinstance(value, Variable):
            self.add_copy(self.var_node(value), dst)

    def _function_return(self, function: Function) -> Optional[RetInst]:
        if function not in self._ret_cache:
            self._ret_cache[function] = function.exit_inst() if not function.is_declaration else None
        return self._ret_cache[function]

    def _bind_call(self, call: CallInst, callee: Function) -> None:
        """Copy actuals into formals and the return value into the call dst."""
        if callee.is_declaration:
            return
        for arg, param in zip(call.args, callee.params):
            self._copy_from_value(arg, self.var_node(param))
        if call.dst is not None:
            ret = self._function_return(callee)
            if ret is not None and isinstance(ret.value, Variable):
                self.add_copy(self.var_node(ret.value), self.var_node(call.dst))

    def initialise(self) -> None:
        """Generate base constraints from every instruction."""
        for inst in self.module.instructions():
            if isinstance(inst, AllocInst):
                self.add_pts(self.var_node(inst.dst), 1 << inst.obj.id)
            elif isinstance(inst, CopyInst):
                self._copy_from_value(inst.src, self.var_node(inst.dst))
            elif isinstance(inst, PhiInst):
                for __, value in inst.incomings:
                    self._copy_from_value(value, self.var_node(inst.dst))
            elif isinstance(inst, FieldInst):
                if isinstance(inst.base, Variable):
                    base = self.var_node(inst.base)
                    self.field_dsts[base].append((inst.field, self.var_node(inst.dst)))
                    self.worklist.push(base)
            elif isinstance(inst, LoadInst):
                if isinstance(inst.ptr, Variable):
                    ptr = self.var_node(inst.ptr)
                    self.load_dsts[ptr].append(self.var_node(inst.dst))
                    self.worklist.push(ptr)
            elif isinstance(inst, StoreInst):
                if isinstance(inst.ptr, Variable) and isinstance(inst.value, Variable):
                    ptr = self.var_node(inst.ptr)
                    self.store_srcs[ptr].append(self.var_node(inst.value))
                    self.worklist.push(ptr)
            elif isinstance(inst, CallInst):
                if inst.is_indirect():
                    if isinstance(inst.callee, Variable):
                        callee = self.var_node(inst.callee)
                        self.indirect_sites[callee].append(inst)
                        self.worklist.push(callee)
                else:
                    assert isinstance(inst.callee, Function)
                    self.callgraph.add_edge(inst, inst.callee)
                    self._bind_call(inst, inst.callee)

    # ----------------------------------------------------------------- solve

    def _process_delta(self, node: int, delta: int) -> None:
        """Apply complex constraints of *node* against newly seen objects."""
        objects = self.module.objects
        for oid in iter_bits(delta):
            obj = objects[oid]
            if isinstance(obj, FunctionObject):
                # Loads/stores through a function "object" are undefined
                # behaviour; only indirect calls consume function objects.
                for call in self.indirect_sites[node]:
                    if self.callgraph.add_edge(call, obj.function):
                        self.stats.indirect_calls_resolved += 1
                        self._bind_call(call, obj.function)
                continue
            onode = None
            if self.load_dsts[node]:
                onode = self.obj_node(obj)
                for dst in self.load_dsts[node]:
                    self.add_copy(onode, dst)
            if self.store_srcs[node]:
                onode = onode if onode is not None else self.obj_node(obj)
                for src in self.store_srcs[node]:
                    self.add_copy(src, onode)
            if self.field_dsts[node]:
                for offset, dst in self.field_dsts[node]:
                    fobj = self.module.field_object(obj, offset)
                    self.add_pts(dst, 1 << fobj.id)

    def _collapse_sccs(self) -> None:
        """Collapse copy-edge cycles into single representatives."""
        graph: DiGraph[int] = DiGraph()
        for node in range(len(self.pts)):
            if self.uf.find(node) != node:
                continue
            graph.add_node(node)
            for succ in self.copy_succs[node]:
                succ = self.uf.find(succ)
                if succ != node:
                    graph.add_edge(node, succ)
        self.stats.collapse_runs += 1
        for component in strongly_connected_components(graph):
            if len(component) < 2:
                continue
            rep = component[0]
            for other in component[1:]:
                rep = self._merge(rep, other)
            self.worklist.push(self.uf.find(rep))
            self.stats.collapsed_nodes += len(component) - 1

    def _merge(self, a: int, b: int) -> int:
        """Union nodes *a* and *b*, folding all state into the survivor."""
        a, b = self.uf.find(a), self.uf.find(b)
        if a == b:
            return a
        rep = self.uf.union(a, b)
        other = b if rep == a else a
        self.pts[rep] |= self.pts[other]
        self.done[rep] &= self.done[other]  # re-process the union's delta
        self.copy_succs[rep].update(self.copy_succs[other])
        self.copy_succs[rep].discard(rep)
        self.copy_succs[rep].discard(other)
        self.load_dsts[rep].extend(self.load_dsts[other])
        self.store_srcs[rep].extend(self.store_srcs[other])
        self.field_dsts[rep].extend(self.field_dsts[other])
        self.indirect_sites[rep].extend(self.indirect_sites[other])
        self.pts[other] = 0
        self.copy_succs[other] = set()
        self.load_dsts[other] = []
        self.store_srcs[other] = []
        self.field_dsts[other] = []
        self.indirect_sites[other] = []
        return rep

    # ----------------------------------------------------------- persistence

    def snapshot_state(self) -> Dict[str, object]:
        """Constraint-graph state sufficient to continue this solve.

        Copy edges are stored explicitly (not regenerated) because many of
        them were added by on-the-fly call binding; replaying the call
        edges alone could not reconstruct which parameter bindings had
        already happened.  Indirect call sites are stored by instruction id.
        """
        from repro.store.codec import snapshot_call_edges, snapshot_fields

        stats = self.stats
        return {
            "pts": [format(mask, "x") for mask in self.pts],
            "done": [format(mask, "x") for mask in self.done],
            "copy_succs": [sorted(succs) for succs in self.copy_succs],
            "load_dsts": [list(dsts) for dsts in self.load_dsts],
            "store_srcs": [list(srcs) for srcs in self.store_srcs],
            "field_dsts": [[list(pair) for pair in pairs]
                           for pairs in self.field_dsts],
            "indirect_sites": [[call.id for call in sites]
                               for sites in self.indirect_sites],
            "uf": self.uf.snapshot(),
            "worklist": self.worklist.snapshot(),
            "call_edges": snapshot_call_edges(self.callgraph),
            "fields": snapshot_fields(self.module),
            "counters": {
                "processed_nodes": stats.processed_nodes,
                "copy_edges": stats.copy_edges,
                "collapse_runs": stats.collapse_runs,
                "collapsed_nodes": stats.collapsed_nodes,
                "indirect_calls_resolved": stats.indirect_calls_resolved,
            },
        }

    def restore_state(self, payload: Dict[str, object], step: int) -> None:
        """Reload :meth:`snapshot_state`; :meth:`run` then continues it."""
        from repro.errors import CheckpointError
        from repro.store.codec import (
            call_sites_by_id,
            replay_fields,
            resolve_call_edge,
        )

        try:
            replay_fields(self.module, payload["fields"])
            pts = [int(text, 16) for text in payload["pts"]]
            done = [int(text, 16) for text in payload["done"]]
            copy_succs = [set(succs) for succs in payload["copy_succs"]]
            load_dsts = [[int(d) for d in dsts] for dsts in payload["load_dsts"]]
            store_srcs = [[int(s) for s in srcs] for srcs in payload["store_srcs"]]
            field_dsts = [[(int(offset), int(dst)) for offset, dst in pairs]
                          for pairs in payload["field_dsts"]]
            sites_index = call_sites_by_id(self.module)
            indirect_sites: List[List[CallInst]] = []
            for inst_ids in payload["indirect_sites"]:
                sites: List[CallInst] = []
                for inst_id in inst_ids:
                    call = sites_index.get(inst_id)
                    if call is None:
                        raise CheckpointError(
                            f"indirect site {inst_id} is not a call here")
                    sites.append(call)
                indirect_sites.append(sites)
            lengths = {len(pts), len(done), len(copy_succs), len(load_dsts),
                       len(store_srcs), len(field_dsts), len(indirect_sites)}
            # Snapshot arrays can only have grown past the fresh solver's
            # universe (growth is lazy, per touched object node).
            if len(lengths) != 1 or len(pts) < len(self.pts):
                raise CheckpointError("constraint-graph arrays disagree in length")
            uf = UnionFind.from_snapshot(payload["uf"])
            if len(uf) != len(pts):
                raise CheckpointError("union-find universe disagrees with arrays")
            self.pts = pts
            self.done = done
            self.copy_succs = copy_succs
            self.load_dsts = load_dsts
            self.store_srcs = store_srcs
            self.field_dsts = field_dsts
            self.indirect_sites = indirect_sites
            self.uf = uf
            self.worklist.restore(
                {"items": [int(node) for node in payload["worklist"]["items"]]})
            # Call edges: graph membership only.  The parameter/return copy
            # edges binding already happened before the snapshot and is part
            # of copy_succs, so _bind_call must NOT run again.
            for inst_id, callee_name in payload["call_edges"]:
                call, callee = resolve_call_edge(self.module, sites_index,
                                                 inst_id, callee_name)
                self.callgraph.add_edge(call, callee)
            counters = payload["counters"]
            self.stats.processed_nodes = counters["processed_nodes"]
            self.stats.copy_edges = counters["copy_edges"]
            self.stats.collapse_runs = counters["collapse_runs"]
            self.stats.collapsed_nodes = counters["collapsed_nodes"]
            self.stats.indirect_calls_resolved = counters["indirect_calls_resolved"]
        except CheckpointError:
            raise
        except (KeyError, ValueError, TypeError, IndexError, AttributeError) as err:
            raise CheckpointError(
                f"checkpoint payload does not restore cleanly: "
                f"{type(err).__name__}: {err}", reason="corrupt") from err
        self._resumed = True
        if self.checkpointer is not None:
            self.checkpointer.mark_resumed(step)

    # ------------------------------------------------------------------- run

    def run(self) -> AndersenResult:
        start = time.perf_counter()
        meter = self.meter
        try:
            return self._run(start, meter)
        except BudgetExceeded as exc:
            self.stats.solve_time = time.perf_counter() - start
            exc.attach(stage="andersen", stats=self.stats,
                       partial_result=self._result())
            if self.checkpointer is not None:
                try:
                    exc.checkpoint_path = self.checkpointer.save(
                        self, self.stats.processed_nodes, reason="budget")
                except OSError:
                    pass  # a full disk must not mask the budget signal
            raise

    def _run(self, start: float, meter) -> AndersenResult:
        if meter is not None:
            meter.start()
            meter.check()
        tick = meter.tick if meter is not None else None
        checkpointer = self.checkpointer
        if not self._resumed:
            # A resumed run restores constraints, points-to sets, and the
            # mid-solve worklist; re-generating base constraints (or
            # re-collapsing eagerly) would only duplicate restored state.
            self.initialise()
            if self.collapse_cycles:
                self._collapse_sccs()
        pops_since_collapse = 0
        while self.worklist:
            if tick is not None:
                tick()
            if checkpointer is not None:
                checkpointer.maybe(self, self.stats.processed_nodes)
            node = self.worklist.pop()
            rep = self.uf.find(node)
            if rep != node:
                self.worklist.push(rep)
                continue
            self.stats.processed_nodes += 1
            pops_since_collapse += 1
            delta = self.pts[node] & ~self.done[node]
            if delta:
                self.done[node] = self.pts[node]
                self._process_delta(node, delta)
            # Propagate along copy edges (full set; cheap with masks).
            for succ in list(self.copy_succs[node]):
                succ_rep = self.uf.find(succ)
                if succ_rep == node:
                    continue
                new = self.pts[succ_rep] | self.pts[node]
                if new != self.pts[succ_rep]:
                    self.pts[succ_rep] = new
                    self.worklist.push(succ_rep)
            if self.collapse_cycles and pops_since_collapse >= self.COLLAPSE_PERIOD:
                self._collapse_sccs()
                pops_since_collapse = 0
        self.stats.solve_time = time.perf_counter() - start
        return self._result()

    def _result(self) -> AndersenResult:
        var_pts = [self.pts[self.uf.find(vid)] for vid in range(self.var_count)]
        obj_pts = [
            self.pts[self.uf.find(self.var_count + oid)]
            if self.var_count + oid < len(self.uf) else 0
            for oid in range(len(self.module.objects))
        ]
        return AndersenResult(self.module, var_pts, obj_pts, self.callgraph, self.stats)


def run_andersen(module: Module, collapse_cycles: bool = True,
                 meter=None, checkpointer=None) -> AndersenResult:
    """Convenience wrapper: run Andersen's analysis on *module*."""
    return AndersenAnalysis(module, collapse_cycles, meter=meter,
                            checkpointer=checkpointer).run()

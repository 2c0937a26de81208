"""SVFG construction from IR + Andersen results + memory SSA."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.andersen import AndersenResult
from repro.datastructs.bitset import iter_bits
from repro.errors import AnalysisError
from repro.ir.function import Function
from repro.ir.instructions import (
    CallInst,
    FunEntryInst,
    Instruction,
    LoadInst,
    RetInst,
    StoreInst,
)
from repro.ir.module import Module
from repro.ir.values import FunctionObject, Variable
from repro.memssa.builder import MemSSA
from repro.svfg.nodes import (
    ActualINNode,
    ActualOUTNode,
    FormalINNode,
    FormalOUTNode,
    InstNode,
    MemPhiNode,
    SVFGNode,
)


@dataclass
class SVFGStats:
    """The Table II columns for one program."""

    num_nodes: int = 0
    num_direct_edges: int = 0
    num_indirect_edges: int = 0
    num_top_level_vars: int = 0
    num_address_taken_vars: int = 0
    num_memphis: int = 0
    num_delta_nodes: int = 0


class SVFG:
    """The sparse value-flow graph (see package docstring).

    Edges are laid out once by :func:`build_svfg`; afterwards no shared
    row or table is extended in place:

    - :attr:`direct_succs` / :attr:`direct_preds` hold one tuple of node
      ids per node (nodes without direct edges share the empty tuple);
    - :attr:`ind_edges` is object-major, ``{oid: {src: (dst, ...)}}``,
      with sources ascending within each object and destinations in
      build order (a view's on-the-fly edges follow them).  Versioning
      melds one object's table at a time and SFS propagates along
      ``ind_edges[oid][src]``; node-major readers use
      :meth:`indirect_succs` / :meth:`indirect_preds`, which derive rows
      from it on first use.
    """

    def __init__(self, module: Module, andersen: AndersenResult, memssa: MemSSA):
        self.module = module
        self.andersen = andersen
        self.memssa = memssa
        self.nodes: List[SVFGNode] = []
        self.inst_node: Dict[Instruction, InstNode] = {}
        # Direct (top-level) edges, by node id.
        self.direct_succs: List[Tuple[int, ...]] = []
        self.direct_preds: List[Tuple[int, ...]] = []
        # Indirect (address-taken) edges: obj id -> src id -> dst ids.
        self.ind_edges: Dict[int, Dict[int, Tuple[int, ...]]] = {}
        # Per-call-site / per-function object nodes (obj id -> node id).
        self.actual_in: Dict[CallInst, Dict[int, int]] = {}
        self.actual_out: Dict[CallInst, Dict[int, int]] = {}
        self.formal_in: Dict[Function, Dict[int, int]] = {}
        self.formal_out: Dict[Function, Dict[int, int]] = {}
        # Variable def/use indexing for direct propagation.
        self.var_def_node: Dict[int, int] = {}
        self.var_uses: Dict[int, List[int]] = {}
        #: δ nodes (Definition 3): node ids that may gain incoming indirect
        #: edges during on-the-fly call graph resolution.
        self.delta_nodes: Set[int] = set()
        self._connected: Set[Tuple[CallInst, Function]] = set()
        # Object tables this graph copied and may extend; every other
        # table may be shared with a view (see copy()).
        self._owned: Set[int] = set()
        # Node-major rows derived from ind_edges on first use.
        self._succ_rows: Optional[List[Dict[int, Tuple[int, ...]]]] = None
        self._pred_rows: Optional[List[Sequence[Tuple[int, int]]]] = None

    # ------------------------------------------------------------ structure

    def _add_node(self, node: SVFGNode) -> SVFGNode:
        node.id = len(self.nodes)
        self.nodes.append(node)
        return node

    def add_direct_edge(self, src: int, dst: int) -> bool:
        """Add *src* → *dst* unless present, replacing both rows with
        extended copies (safe on a :meth:`copy` view)."""
        if dst in self.direct_succs[src]:
            return False
        self.direct_succs[src] += (dst,)
        self.direct_preds[dst] += (src,)
        return True

    def num_direct_edges(self) -> int:
        return sum(len(succs) for succs in self.direct_succs)

    def num_indirect_edges(self) -> int:
        return sum(len(dsts) for table in self.ind_edges.values()
                   for dsts in table.values())

    def indirect_succs(self) -> List[Dict[int, Tuple[int, ...]]]:
        """Per node id, its outgoing indirect edges as ``{oid: dsts}``
        (derived from :attr:`ind_edges` and cached; read-only)."""
        if self._succ_rows is None:
            empty: Dict[int, Tuple[int, ...]] = {}
            rows = [empty] * len(self.nodes)
            for oid, table in self.ind_edges.items():
                for src, dsts in table.items():
                    row = rows[src]
                    if row is empty:
                        row = rows[src] = {}
                    row[oid] = dsts
            self._succ_rows = rows
        return self._succ_rows

    def indirect_preds(self) -> List[Sequence[Tuple[int, int]]]:
        """Per node id, the ``(src, oid)`` pairs of its incoming indirect
        edges (derived from :attr:`ind_edges` and cached; read-only)."""
        if self._pred_rows is None:
            rows: List[Sequence[Tuple[int, int]]] = [()] * len(self.nodes)
            for oid, table in self.ind_edges.items():
                for src, dsts in table.items():
                    for dst in dsts:
                        row = rows[dst]
                        if not row:
                            row = rows[dst] = []
                        row.append((src, oid))  # type: ignore[union-attr]
            self._pred_rows = rows
        return self._pred_rows

    # ------------------------------------------------------ region ownership

    def nodes_by_function(self) -> Dict[str, List[int]]:
        """Function name → the node ids it owns (the incremental spine's
        region map).  ``_create_nodes`` creates each function's nodes
        contiguously in program order, so every region is a dense id
        range and a node's ordinal within its function is stable across
        rebuilds of an unchanged function."""
        regions: Dict[str, List[int]] = {}
        for node in self.nodes:
            name = node.function.name if node.function is not None else ""
            regions.setdefault(name, []).append(node.id)
        return regions

    # -------------------------------------------------- on-the-fly call graph

    def is_connected(self, call: CallInst, callee: Function) -> bool:
        return (call, callee) in self._connected

    def call_edges(self, call: CallInst, callee: Function
                   ) -> Iterator[Tuple[int, int, Optional[int]]]:
        """The edges wiring *call* to *callee*, as ``(src, dst, oid)``
        with ``oid`` None for direct edges: call → entry, exit → call
        (when the call uses its return value), ActualIN → FormalIN and
        FormalOUT → ActualOUT per shared object."""
        call_node = self.inst_node[call].id
        yield call_node, self.inst_node[callee.entry_inst].id, None
        exit_inst = callee.exit_inst()
        if exit_inst is not None and call.dst is not None:
            yield self.inst_node[exit_inst].id, call_node, None
        formal_in = self.formal_in.get(callee, {})
        for oid, ain in self.actual_in.get(call, {}).items():
            fin = formal_in.get(oid)
            if fin is not None:
                yield ain, fin, oid
        formal_out = self.formal_out.get(callee, {})
        for oid, aout in self.actual_out.get(call, {}).items():
            fout = formal_out.get(oid)
            if fout is not None:
                yield fout, aout, oid

    def connect_callsite(self, call: CallInst, callee: Function) -> List[int]:
        """Wire *call* to *callee* (parameter/return + μ/χ edges).

        Returns the node ids whose outputs must be (re)propagated — the
        sources of every newly created edge.  Used by the solvers when
        on-the-fly call graph resolution discovers an edge.  It never
        extends a row in place: direct rows are replaced by extended
        copies, and an object's table is copied before its first new
        edge (see :meth:`copy`).
        """
        if (call, callee) in self._connected or callee.is_declaration:
            return []
        self._connected.add((call, callee))
        touched: List[int] = []
        for src, dst, oid in self.call_edges(call, callee):
            if oid is None:
                added = self.add_direct_edge(src, dst)
            else:
                dsts = self.ind_edges.get(oid, {}).get(src, ())
                added = dst not in dsts
                if added:
                    self.own_table(oid)[src] = dsts + (dst,)
            if added:
                touched.append(src)
        return touched

    def own_table(self, oid: int) -> Dict[int, Tuple[int, ...]]:
        """This graph's private table of *oid*'s edges, copied from the
        shared one the first time; drops the derived node-major rows."""
        if oid not in self._owned:
            self._owned.add(oid)
            self.ind_edges[oid] = dict(self.ind_edges.get(oid, {}))
        self._succ_rows = self._pred_rows = None
        return self.ind_edges[oid]

    # ----------------------------------------------------------------- view

    def copy(self) -> "SVFG":
        """A solver's private view: it shares nodes, tables and every
        edge row and object table, and owns only the per-node lists of
        direct rows, the object map and its connected pairs, so the
        edges :meth:`connect_callsite` adds on it leave this graph
        intact.
        """
        view = SVFG.__new__(SVFG)
        view.__dict__.update(self.__dict__)
        view.direct_succs = list(self.direct_succs)
        view.direct_preds = list(self.direct_preds)
        view.ind_edges = dict(self.ind_edges)
        view._connected = set(self._connected)
        # Every table is shared now: either graph copies before extending.
        view._owned = set()
        self._owned = set()
        return view

    # ---------------------------------------------------------------- stats

    def stats(self) -> SVFGStats:
        top_level = len(self.module.variables)
        address_taken = len(self.module.objects)
        return SVFGStats(
            num_nodes=len(self.nodes),
            num_direct_edges=self.num_direct_edges(),
            num_indirect_edges=self.num_indirect_edges(),
            num_top_level_vars=top_level,
            num_address_taken_vars=address_taken,
            num_memphis=self.memssa.num_memphis(),
            num_delta_nodes=len(self.delta_nodes),
        )


def build_svfg(module: Module, andersen: AndersenResult, memssa: MemSSA) -> SVFG:
    """Assemble the SVFG (nodes, direct edges, indirect edges, δ set)."""
    svfg = SVFG(module, andersen, memssa)
    _create_nodes(svfg)
    # Edge rows per label (None: direct), extended in place, deduplicated.
    rows: Dict[Optional[int], Dict[int, List[int]]] = {None: {}}

    def add_edge(src: int, dst: int, oid: Optional[int] = None) -> None:
        table = rows.get(oid)
        if table is None:
            table = rows[oid] = {}
        row = table.get(src)
        if row is None:
            table[src] = [dst]
        elif dst not in row:
            row.append(dst)

    _add_direct_edges(svfg, add_edge)
    _add_indirect_edges(svfg, add_edge)
    _connect_direct_calls(svfg, add_edge)
    _lay_out_edges(svfg, rows)
    _mark_delta_nodes(svfg)
    return svfg


def _lay_out_edges(svfg: SVFG, rows: Dict[Optional[int], Dict[int, List[int]]]) -> None:
    """Freeze the build's rows into the SVFG's immutable edge layout."""
    num_nodes = len(svfg.nodes)
    svfg.direct_succs = [()] * num_nodes
    preds: Dict[int, List[int]] = {}
    for src, dsts in rows.pop(None).items():
        svfg.direct_succs[src] = tuple(dsts)
        for dst in dsts:
            preds.setdefault(dst, []).append(src)
    svfg.direct_preds = [()] * num_nodes
    for dst, srcs in preds.items():
        svfg.direct_preds[dst] = tuple(srcs)
    svfg.ind_edges = {
        oid: {src: tuple(dsts) for src, dsts in sorted(table.items())}
        for oid, table in rows.items()
    }


def _create_nodes(svfg: SVFG) -> None:
    module = svfg.module
    memssa = svfg.memssa
    for function in module.functions.values():
        if function.is_declaration:
            continue
        phis_by_block: Dict[object, List] = {}
        for memphi in memssa.memphis.get(function, []):
            phis_by_block.setdefault(memphi.block, []).append(memphi)
        for block in function.blocks:
            for memphi in phis_by_block.get(block, []):
                svfg._add_node(MemPhiNode(memphi))
            for inst in block.instructions:
                node = InstNode(inst)
                svfg._add_node(node)
                svfg.inst_node[inst] = node
                if isinstance(inst, FunEntryInst):
                    table = svfg.formal_in.setdefault(function, {})
                    for chi in memssa.entry_chis.get(function, []):
                        fin = svfg._add_node(FormalINNode(function, chi.obj))
                        table[chi.obj.id] = fin.id
                elif isinstance(inst, RetInst):
                    table = svfg.formal_out.setdefault(function, {})
                    for mu in memssa.exit_mus.get(function, []):
                        fout = svfg._add_node(FormalOUTNode(function, mu.obj))
                        table[mu.obj.id] = fout.id
                elif isinstance(inst, CallInst):
                    in_table = svfg.actual_in.setdefault(inst, {})
                    for mu in memssa.call_mus.get(inst, []):
                        ain = svfg._add_node(ActualINNode(inst, mu.obj))
                        in_table[mu.obj.id] = ain.id
                    out_table = svfg.actual_out.setdefault(inst, {})
                    for chi in memssa.call_chis.get(inst, []):
                        aout = svfg._add_node(ActualOUTNode(inst, chi.obj))
                        out_table[chi.obj.id] = aout.id


def _add_direct_edges(svfg: SVFG, add_edge: Callable[..., None]) -> None:
    """Top-level def-use edges: unique definition → every reader."""
    # Definitions.
    for inst, node in svfg.inst_node.items():
        result = inst.result()
        if result is not None:
            svfg.var_def_node[result.id] = node.id
        if isinstance(inst, FunEntryInst):
            for param in inst.func.params:
                svfg.var_def_node[param.id] = node.id
    # Uses.
    for inst, node in svfg.inst_node.items():
        for operand in inst.operands():
            if isinstance(operand, Variable):
                svfg.var_uses.setdefault(operand.id, []).append(node.id)
                def_node = svfg.var_def_node.get(operand.id)
                if def_node is not None:
                    add_edge(def_node, node.id)


def _add_indirect_edges(svfg: SVFG, add_edge: Callable[..., None]) -> None:
    """Link each memory-SSA version's definition to its uses."""
    memssa = svfg.memssa
    # Version definitions, keyed by (function, obj id, version).
    defs: Dict[Tuple[Function, int, int], int] = {}
    for function, table in svfg.formal_in.items():
        for chi in memssa.entry_chis.get(function, []):
            defs[(function, chi.obj.id, chi.new_ver)] = table[chi.obj.id]
    for node in svfg.nodes:
        if isinstance(node, MemPhiNode):
            defs[(node.function, node.memphi.obj.id, node.memphi.new_ver)] = node.id
    for inst, node in svfg.inst_node.items():
        if isinstance(inst, StoreInst):
            for chi in memssa.store_chis.get(inst, []):
                defs[(node.function, chi.obj.id, chi.new_ver)] = node.id
        elif isinstance(inst, CallInst):
            for chi in memssa.call_chis.get(inst, []):
                defs[(node.function, chi.obj.id, chi.new_ver)] = svfg.actual_out[inst][chi.obj.id]

    def link(function: Function, oid: int, ver: int, use_node: int) -> None:
        def_node = defs.get((function, oid, ver))
        if def_node is None:
            raise AnalysisError(
                f"no definition for version {ver} of object id {oid} in @{function.name}"
            )
        add_edge(def_node, use_node, oid)

    for node in svfg.nodes:
        if isinstance(node, MemPhiNode):
            for __, ver in node.memphi.incomings.items():
                link(node.function, node.memphi.obj.id, ver, node.id)
    for inst, node in svfg.inst_node.items():
        function = node.function
        if isinstance(inst, LoadInst):
            for mu in memssa.load_mus.get(inst, []):
                link(function, mu.obj.id, mu.ver, node.id)
        elif isinstance(inst, StoreInst):
            for chi in memssa.store_chis.get(inst, []):
                link(function, chi.obj.id, chi.old_ver, node.id)
        elif isinstance(inst, CallInst):
            for mu in memssa.call_mus.get(inst, []):
                link(function, mu.obj.id, mu.ver, svfg.actual_in[inst][mu.obj.id])
            for chi in memssa.call_chis.get(inst, []):
                # Bypass edge: the pre-call value survives callees that do
                # not modify o (sound default; kills still happen at stores
                # within callees).
                link(function, chi.obj.id, chi.old_ver, svfg.actual_out[inst][chi.obj.id])
        elif isinstance(inst, RetInst):
            for mu in memssa.exit_mus.get(function, []):
                link(function, mu.obj.id, mu.ver, svfg.formal_out[function][mu.obj.id])


def _connect_direct_calls(svfg: SVFG, add_edge: Callable[..., None]) -> None:
    for inst in svfg.inst_node:
        if isinstance(inst, CallInst) and not inst.is_indirect():
            assert isinstance(inst.callee, Function)
            if not inst.callee.is_declaration:
                svfg._connected.add((inst, inst.callee))
                for src, dst, oid in svfg.call_edges(inst, inst.callee):
                    add_edge(src, dst, oid)


def _mark_delta_nodes(svfg: SVFG) -> None:
    """δ nodes: FormalINs of potential indirect-call targets and ActualOUTs
    of indirect call sites (Definition 3), per the auxiliary analysis."""
    andersen = svfg.andersen
    module = svfg.module
    # Targets in discovery order (not address order): the δ set's
    # insertion order reaches the version ids through the prelabels.
    indirect_targets: Dict[Function, None] = {}
    for inst in svfg.inst_node:
        if isinstance(inst, CallInst) and inst.is_indirect():
            for oid, aout in svfg.actual_out.get(inst, {}).items():
                svfg.delta_nodes.add(aout)
            if isinstance(inst.callee, Variable):
                for oid in iter_bits(andersen.pts_mask(inst.callee)):
                    obj = module.objects[oid]
                    if isinstance(obj, FunctionObject):
                        indirect_targets[obj.function] = None
    for function in indirect_targets:
        for oid, fin in svfg.formal_in.get(function, {}).items():
            svfg.delta_nodes.add(fin)

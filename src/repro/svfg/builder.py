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

_NO_ROWS: Dict[int, Tuple[int, ...]] = {}


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

    Edges are laid out once by :func:`build_svfg` and never change
    afterwards:

    - :attr:`direct_succs` / :attr:`direct_preds` hold one tuple of node
      ids per node (nodes without direct edges share the empty tuple);
    - :attr:`ind_edges` is object-major, ``{oid: {src: (dst, ...)}}``,
      with sources ascending within each object and destinations in
      build order.  Versioning melds one object's table at a time and
      SFS propagates along ``ind_edges[oid][src]``.

    Edges wired later (:meth:`connect_callsite`) go to :attr:`wired`, an
    overlay of whole rows laid out like the build's,
    ``{oid or None: {src: (dst, ...)}}`` (None: direct rows): each row
    is the built one plus the new destinations, and replaces it on this
    graph (:attr:`wired_srcs` lists their sources, so a solver looks
    the overlay up once per visited node).  :meth:`row` reads one row
    through the overlay; node-major readers use :meth:`indirect_succs`
    / :meth:`indirect_preds`, which derive rows from
    :meth:`edge_tables` on first use.
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
        #: Rows replaced on this graph: obj id (None: direct) -> src -> dsts,
        #: and the sources that have one.
        self.wired: Dict[Optional[int], Dict[int, Tuple[int, ...]]] = {}
        self.wired_srcs: Set[int] = set()
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
        # Node-major rows derived from edge_tables() on first use.
        self._succ_rows: Optional[List[Dict[int, Tuple[int, ...]]]] = None
        self._pred_rows: Optional[List[Sequence[Tuple[int, int]]]] = None

    # ------------------------------------------------------------ structure

    def _add_node(self, node: SVFGNode) -> SVFGNode:
        node.id = len(self.nodes)
        self.nodes.append(node)
        return node

    def row(self, src: int, oid: Optional[int] = None) -> Tuple[int, ...]:
        """*src*'s successors along object *oid* (None: its direct
        successors), this graph's wired edges included."""
        rows = self.wired.get(oid)
        if rows is not None:
            dsts = rows.get(src)
            if dsts is not None:
                return dsts
        if oid is None:
            return self.direct_succs[src]
        return self.ind_edges.get(oid, _NO_ROWS).get(src, ())

    def replace_row(self, src: int, oid: Optional[int],
                    dsts: Tuple[int, ...]) -> None:
        """Make *dsts* *src*'s row for *oid* on this graph only (in
        :attr:`wired`); drops the derived node-major rows."""
        rows = self.wired.get(oid)
        if rows is None:
            rows = self.wired[oid] = {}
        rows[src] = dsts
        self.wired_srcs.add(src)
        self._succ_rows = self._pred_rows = None

    def edge_tables(self) -> Iterator[Tuple[int, Dict[int, Tuple[int, ...]]]]:
        """``(oid, {src: dsts})`` per object, in :attr:`ind_edges` order,
        with the wired rows applied (an object's table is merged into a
        new dict only when a row of it was replaced)."""
        wired = self.wired
        for oid, table in self.ind_edges.items():
            rows = wired.get(oid)
            yield oid, table if rows is None else {**table, **rows}
        for oid, rows in wired.items():
            if oid is not None and oid not in self.ind_edges:
                yield oid, rows

    def num_direct_edges(self) -> int:
        direct = self.direct_succs
        return sum(len(succs) for succs in direct) + sum(
            len(dsts) - len(direct[src])
            for src, dsts in self.wired.get(None, _NO_ROWS).items())

    def num_indirect_edges(self) -> int:
        return sum(len(dsts) for __, table in self.edge_tables()
                   for dsts in table.values())

    def indirect_succs(self) -> List[Dict[int, Tuple[int, ...]]]:
        """Per node id, its outgoing indirect edges as ``{oid: dsts}``
        (derived from :meth:`edge_tables` and cached; read-only)."""
        if self._succ_rows is None:
            empty: Dict[int, Tuple[int, ...]] = {}
            rows = [empty] * len(self.nodes)
            for oid, table in self.edge_tables():
                for src, dsts in table.items():
                    row = rows[src]
                    if row is empty:
                        row = rows[src] = {}
                    row[oid] = dsts
            self._succ_rows = rows
        return self._succ_rows

    def indirect_preds(self) -> List[Sequence[Tuple[int, int]]]:
        """Per node id, the ``(src, oid)`` pairs of its incoming indirect
        edges (derived from :meth:`edge_tables` and cached; read-only)."""
        if self._pred_rows is None:
            rows: List[Sequence[Tuple[int, int]]] = [()] * len(self.nodes)
            for oid, table in self.edge_tables():
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
        on-the-fly call graph resolution discovers an edge.  Each new
        edge replaces its source's row in :attr:`wired`; the built
        layout is never written.
        """
        if (call, callee) in self._connected or callee.is_declaration:
            return []
        self._connected.add((call, callee))
        touched: List[int] = []
        for src, dst, oid in self.call_edges(call, callee):
            dsts = self.row(src, oid)
            if dst not in dsts:
                self.replace_row(src, oid, dsts + (dst,))
                touched.append(src)
        return touched

    # ----------------------------------------------------------------- view

    def copy(self) -> "SVFG":
        """A solver's private view: it shares nodes, tables, the direct
        rows and the object map, and owns only its connected pairs and
        its :attr:`wired` overlay, so the edges :meth:`connect_callsite`
        adds on it leave this graph intact.
        """
        view = SVFG.__new__(SVFG)
        view.__dict__.update(self.__dict__)
        view._connected = set(self._connected)
        view.wired = {oid: dict(rows) for oid, rows in self.wired.items()}
        view.wired_srcs = set(self.wired_srcs)
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
    # Edge rows per label (None: direct), each built as its final tuple
    # (rows are short: one is replaced by its extension, deduplicated).
    rows: Dict[Optional[int], Dict[int, Tuple[int, ...]]] = {None: {}}

    def add_edge(src: int, dst: int, oid: Optional[int] = None) -> None:
        table = rows.get(oid)
        if table is None:
            table = rows[oid] = {}
        row = table.get(src, ())
        if dst not in row:
            table[src] = row + (dst,)

    _add_direct_edges(svfg, add_edge)
    _add_indirect_edges(svfg, add_edge)
    _connect_direct_calls(svfg, add_edge)
    _lay_out_edges(svfg, rows)
    _mark_delta_nodes(svfg)
    return svfg


def _lay_out_edges(svfg: SVFG,
                   rows: Dict[Optional[int], Dict[int, Tuple[int, ...]]]) -> None:
    """Install the build's rows as the SVFG's edge layout: one row per
    node for direct edges, each object's sources in ascending order."""
    num_nodes = len(svfg.nodes)
    direct_succs: List[Tuple[int, ...]] = [()] * num_nodes
    direct_preds: List[Tuple[int, ...]] = [()] * num_nodes
    for src, dsts in rows.pop(None).items():
        direct_succs[src] = dsts
        for dst in dsts:
            direct_preds[dst] += (src,)
    svfg.direct_succs = direct_succs
    svfg.direct_preds = direct_preds
    for oid in list(rows):
        svfg.ind_edges[oid] = dict(sorted(rows.pop(oid).items()))


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

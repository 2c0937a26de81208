"""SVFG construction from IR + Andersen results + memory SSA."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro.analysis.andersen import AndersenResult
from repro.analysis.modref import ModRefInfo
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
    """The sparse value-flow graph (see package docstring)."""

    def __init__(self, module: Module, andersen: AndersenResult, memssa: MemSSA):
        self.module = module
        self.andersen = andersen
        self.memssa = memssa
        self.nodes: List[SVFGNode] = []
        self.inst_node: Dict[Instruction, InstNode] = {}
        # Direct (top-level) edges, by node id.
        self.direct_succs: List[List[int]] = []
        self.direct_preds: List[List[int]] = []
        # Indirect (address-taken) edges, labelled with object ids.
        self.ind_succs: List[Dict[int, List[int]]] = []
        self.ind_preds: List[List[Tuple[int, int]]] = []  # (pred id, obj id)
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

    # ------------------------------------------------------------ structure

    def _add_node(self, node: SVFGNode) -> SVFGNode:
        node.id = len(self.nodes)
        self.nodes.append(node)
        self.direct_succs.append([])
        self.direct_preds.append([])
        self.ind_succs.append({})
        self.ind_preds.append([])
        return node

    def add_direct_edge(self, src: int, dst: int) -> bool:
        """Add *src* → *dst* unless present, replacing both rows with
        extended copies (safe on a :meth:`copy` view)."""
        if dst in self.direct_succs[src]:
            return False
        self.direct_succs[src] = self.direct_succs[src] + [dst]
        self.direct_preds[dst] = self.direct_preds[dst] + [src]
        return True

    def add_indirect_edge(self, src: int, dst: int, oid: int) -> None:
        """Build-time only: appends to the rows in place (the caller
        deduplicates)."""
        self.ind_succs[src].setdefault(oid, []).append(dst)
        self.ind_preds[dst].append((src, oid))

    def num_direct_edges(self) -> int:
        return sum(len(succs) for succs in self.direct_succs)

    def num_indirect_edges(self) -> int:
        return sum(len(dsts) for row in self.ind_succs for dsts in row.values())

    def node(self, ident: int) -> SVFGNode:
        return self.nodes[ident]

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

    def connect_callsite(self, call: CallInst, callee: Function) -> List[int]:
        """Wire *call* to *callee* (parameter/return + μ/χ edges).

        Returns the node ids whose outputs must be (re)propagated — the
        sources of every newly created edge.  Used by the solvers when
        on-the-fly call graph resolution discovers an edge; also used at
        build time for direct calls.  The rows it grows are replaced by
        extended copies, never extended in place (see :meth:`copy`).
        """
        if (call, callee) in self._connected or callee.is_declaration:
            return []
        self._connected.add((call, callee))
        touched: List[int] = []
        call_node = self.inst_node[call].id

        entry_node = self.inst_node[callee.entry_inst].id
        if self.add_direct_edge(call_node, entry_node):
            touched.append(call_node)
        exit_inst = callee.exit_inst()
        if exit_inst is not None and call.dst is not None:
            exit_node = self.inst_node[exit_inst].id
            if self.add_direct_edge(exit_node, call_node):
                touched.append(exit_node)

        for oid, ain in self.actual_in.get(call, {}).items():
            fin = self.formal_in.get(callee, {}).get(oid)
            if fin is not None and self._extend_indirect(ain, fin, oid):
                touched.append(ain)
        for oid, aout in self.actual_out.get(call, {}).items():
            fout = self.formal_out.get(callee, {}).get(oid)
            if fout is not None and self._extend_indirect(fout, aout, oid):
                touched.append(fout)
        return touched

    def _extend_indirect(self, src: int, dst: int, oid: int) -> bool:
        row = self.ind_succs[src]
        dsts = row.get(oid, [])
        if dst in dsts:
            return False
        self.ind_succs[src] = {**row, oid: dsts + [dst]}
        self.ind_preds[dst] = self.ind_preds[dst] + [(src, oid)]
        return True

    # ----------------------------------------------------------------- view

    def copy(self) -> "SVFG":
        """A solver's private view: it shares nodes, tables and every edge
        row, and owns only the per-node lists of row pointers (O(nodes)
        to make) and its connected pairs, so the rows
        :meth:`connect_callsite` replaces on it leave this graph intact.
        """
        view = SVFG.__new__(SVFG)
        view.__dict__.update(self.__dict__)
        view.direct_succs = list(self.direct_succs)
        view.direct_preds = list(self.direct_preds)
        view.ind_succs = list(self.ind_succs)
        view.ind_preds = list(self.ind_preds)
        view._connected = set(self._connected)
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
    _add_direct_edges(svfg)
    _add_indirect_edges(svfg)
    _connect_direct_calls(svfg)
    _mark_delta_nodes(svfg)
    return svfg


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


def _add_direct_edges(svfg: SVFG) -> None:
    """Top-level def-use edges: unique definition → every reader."""
    module = svfg.module
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
                    svfg.add_direct_edge(def_node, node.id)


def _add_indirect_edges(svfg: SVFG) -> None:
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

    seen: Set[Tuple[int, int, int]] = set()  # (src, dst, oid)

    def link(function: Function, oid: int, ver: int, use_node: int) -> None:
        def_node = defs.get((function, oid, ver))
        if def_node is None:
            raise AnalysisError(
                f"no definition for version {ver} of object id {oid} in @{function.name}"
            )
        key = (def_node, use_node, oid)
        if key not in seen:
            seen.add(key)
            svfg.add_indirect_edge(def_node, use_node, oid)

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


def _connect_direct_calls(svfg: SVFG) -> None:
    for inst, node in list(svfg.inst_node.items()):
        if isinstance(inst, CallInst) and not inst.is_indirect():
            assert isinstance(inst.callee, Function)
            if not inst.callee.is_declaration:
                svfg.connect_callsite(inst, inst.callee)


def _mark_delta_nodes(svfg: SVFG) -> None:
    """δ nodes: FormalINs of potential indirect-call targets and ActualOUTs
    of indirect call sites (Definition 3), per the auxiliary analysis."""
    andersen = svfg.andersen
    module = svfg.module
    indirect_targets: Set[Function] = set()
    for inst in svfg.inst_node:
        if isinstance(inst, CallInst) and inst.is_indirect():
            for oid, aout in svfg.actual_out.get(inst, {}).items():
                svfg.delta_nodes.add(aout)
            if isinstance(inst.callee, Variable):
                for oid in iter_bits(andersen.pts_mask(inst.callee)):
                    obj = module.objects[oid]
                    if isinstance(obj, FunctionObject):
                        indirect_targets.add(obj.function)
    for function in indirect_targets:
        for oid, fin in svfg.formal_in.get(function, {}).items():
            svfg.delta_nodes.add(fin)

"""Value-flow slicing over the SVFG (the paper's "program slicing" client).

A *backward slice* from an SVFG node collects every node whose value can
flow into it — along direct (top-level def-use) and indirect
(address-taken def-use) edges; a *forward slice* collects everything the
node's value can reach.  Slices answer questions like "which statements can
influence this dereference?" and are the basis of taint/impact analyses.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Union

from repro.ir.instructions import Instruction
from repro.ir.module import Module
from repro.ir.values import Variable
from repro.svfg.builder import SVFG
from repro.svfg.nodes import InstNode, SVFGNode


class ValueFlowSlicer:
    """Forward/backward slicing over one SVFG."""

    def __init__(self, svfg: SVFG):
        self.svfg = svfg
        self.module = svfg.module

    # ------------------------------------------------------------- resolve

    def _node_id(self, where: Union[int, Instruction, SVFGNode]) -> int:
        if isinstance(where, int):
            return where
        if isinstance(where, SVFGNode):
            return where.id
        node = self.svfg.inst_node.get(where)
        if node is None:
            raise KeyError(f"instruction l{where.id} has no SVFG node")
        return node.id

    def node_for_variable(self, var: Variable) -> Optional[int]:
        """The SVFG node defining *var*, if any."""
        return self.svfg.var_def_node.get(var.id)

    # --------------------------------------------------------------- slices

    def backward_slice(self, where: Union[int, Instruction, SVFGNode]) -> Set[int]:
        """Node ids whose values may flow into *where* (inclusive)."""
        start = self._node_id(where)
        seen = {start}
        stack = [start]
        ind_preds = self.svfg.indirect_preds()
        while stack:
            node_id = stack.pop()
            preds = list(self.svfg.direct_preds[node_id])
            preds.extend(src for src, __ in ind_preds[node_id])
            for pred in preds:
                if pred not in seen:
                    seen.add(pred)
                    stack.append(pred)
        return seen

    def forward_slice(self, where: Union[int, Instruction, SVFGNode]) -> Set[int]:
        """Node ids that *where*'s value may flow into (inclusive)."""
        start = self._node_id(where)
        seen = {start}
        stack = [start]
        ind_succs = self.svfg.indirect_succs()
        while stack:
            node_id = stack.pop()
            succs = list(self.svfg.direct_succs[node_id])
            for per_obj in ind_succs[node_id].values():
                succs.extend(per_obj)
            for succ in succs:
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        return seen

    # ------------------------------------------------------------ rendering

    def slice_instructions(self, node_ids: Set[int]) -> List[Instruction]:
        """The IR instructions inside a slice, in program order."""
        insts = [
            node.inst
            for node in map(self.svfg.nodes.__getitem__, node_ids)
            if isinstance(node, InstNode)
        ]
        return sorted(insts, key=lambda inst: inst.id)

    def describe(self, node_ids: Set[int]) -> str:
        from repro.ir.printer import format_instruction

        lines = []
        for inst in self.slice_instructions(node_ids):
            lines.append(f"@{inst.function.name} l{inst.id}: {format_instruction(inst)}")
        return "\n".join(lines)

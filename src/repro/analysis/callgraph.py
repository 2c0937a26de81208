"""The call graph: who may call whom, and from which call site.

Both Andersen's analysis and the flow-sensitive solvers resolve indirect
calls on the fly; they record their discoveries here.  Memory SSA and the
mod/ref analysis consume the Andersen-complete call graph.

Callees and call sites iterate in discovery order (insertion-ordered
dicts, not sets of IR objects hashed by address), so the solvers that
push work per callee or per call site do so in the same order in every
process.
"""

from __future__ import annotations

from typing import Dict, Iterator, KeysView, List, Tuple

from repro.datastructs.graph import DiGraph, strongly_connected_components
from repro.ir.function import Function
from repro.ir.instructions import CallInst
from repro.ir.module import Module


class CallGraph:
    """Call edges at call-site granularity plus a function-level view."""

    def __init__(self, module: Module):
        self.module = module
        self.callees: Dict[CallInst, Dict[Function, None]] = {}
        self.callers: Dict[Function, Dict[CallInst, None]] = {}
        self._function_graph: DiGraph = DiGraph()
        for function in module.functions.values():
            self._function_graph.add_node(function)

    def add_edge(self, call: CallInst, callee: Function) -> bool:
        """Record ``call -> callee``; return True if the edge is new."""
        targets = self.callees.setdefault(call, {})
        if callee in targets:
            return False
        targets[callee] = None
        self.callers.setdefault(callee, {})[call] = None
        self._function_graph.add_edge(call.function, callee)
        return True

    def callees_of(self, call: CallInst) -> KeysView[Function]:
        return self.callees.get(call, {}).keys()

    def callsites_of(self, callee: Function) -> KeysView[CallInst]:
        return self.callers.get(callee, {}).keys()

    def call_edges(self) -> Iterator[Tuple[CallInst, Function]]:
        for call, targets in self.callees.items():
            for target in targets:
                yield call, target

    def num_edges(self) -> int:
        return sum(len(targets) for targets in self.callees.values())

    def bottom_up_order(self) -> List[List[Function]]:
        """SCCs of the function-level graph, callees before callers."""
        return strongly_connected_components(self._function_graph)

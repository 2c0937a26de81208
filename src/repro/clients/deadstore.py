"""Dead-store detection via value-flow reachability.

A store is *observable* if some load (or the program's exit, through a
FormalOUT of a function whose effects escape) can consume the value it
writes.  On the SVFG this is plain graph reachability: follow indirect
(object-labelled) edges forward from the store; if no ``LOAD`` node is ever
reached, no execution can read what the store wrote — a dead store.

This client demonstrates the SVFG as an optimisation substrate (the
paper's "compiler optimisation" motivation): the same def-use edges that
make the points-to analysis sparse answer the classic dead-store question
directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from repro.ir.instructions import LoadInst, StoreInst
from repro.ir.module import INIT_FUNCTION, Module
from repro.ir.printer import format_instruction
from repro.svfg.builder import SVFG
from repro.svfg.nodes import InstNode


@dataclass
class DeadStore:
    inst: StoreInst

    def describe(self) -> str:
        return (f"@{self.inst.function.name}: l{self.inst.id}: dead store "
                f"`{format_instruction(self.inst)}` — no load can observe it")


@dataclass
class DeadStoreReport:
    dead: List[DeadStore] = field(default_factory=list)
    observable: int = 0

    def __len__(self) -> int:
        return len(self.dead)

    def __iter__(self):
        return iter(self.dead)


def _reaches_a_load(svfg: SVFG, start: int, cache: Dict[int, bool]) -> bool:
    """Can any LOAD node be reached from *start* along indirect edges?"""
    ind_succs = svfg.indirect_succs()
    stack = [start]
    seen: Set[int] = {start}
    trail: List[int] = []
    while stack:
        node_id = stack.pop()
        known = cache.get(node_id)
        if known is True:
            for visited in trail:
                cache[visited] = True
            return True
        if known is False:
            continue
        trail.append(node_id)
        node = svfg.nodes[node_id]
        if node_id != start and isinstance(node, InstNode) and isinstance(node.inst, LoadInst):
            for visited in trail:
                cache[visited] = True
            return True
        for succs in ind_succs[node_id].values():
            for succ in succs:
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
    for visited in trail:
        # Unreached-from-here nodes may still reach loads via paths we did
        # not walk from them; only the start is conclusively negative.
        pass
    cache[start] = False
    return False


def find_dead_stores(module: Module, svfg: SVFG) -> DeadStoreReport:
    """Classify every store (outside ``__module_init__``) as dead/observable.

    Uses the *potential* (Andersen-derived) SVFG, so "dead" means dead under
    every resolution of the call graph — a sound claim.
    """
    report = DeadStoreReport()
    cache: Dict[int, bool] = {}
    for node in svfg.nodes:
        if not isinstance(node, InstNode) or not isinstance(node.inst, StoreInst):
            continue
        if node.function is not None and node.function.name == INIT_FUNCTION:
            continue
        if _reaches_a_load(svfg, node.id, cache):
            report.observable += 1
        else:
            report.dead.append(DeadStore(node.inst))
    return report

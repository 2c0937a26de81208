"""Classic flow-sensitive points-to analysis on the interprocedural CFG.

This is the textbook iterative dataflow formulation of §IV-A (Equations
(4)/(5)): every instruction keeps an IN and OUT map over *all* address-taken
objects, joined over CFG predecessors — no sparsity at all.  It is far too
slow for real programs (which is the paper's starting point) but serves as
the precision ground truth for the test suite: on any program,

    pt_ICFG(v)  ⊆  pt_SFS(v) = pt_VSFS(v)  ⊆  pt_Andersen(v)

Top-level variables are in partial SSA form (single static definition), so
they keep one global points-to set — flow-sensitive treatment would not
change them.

Call handling matches the staged solvers: a call site has edges to resolved
callee entries, callee exits flow to the instruction after the call, and a
*bypass* edge call → return-site preserves objects callees do not modify
(the staged solvers get the same effect from the χ bypass; keeping the two
treatments aligned makes the precision comparison exact).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Set

from repro.analysis.callgraph import CallGraph
from repro.datastructs.bitset import count_bits, iter_bits
from repro.datastructs.worklist import PriorityWorkList
from repro.errors import BudgetExceeded
from repro.ir.function import Function
from repro.ir.instructions import (
    AllocInst,
    BranchInst,
    CallInst,
    CopyInst,
    FieldInst,
    Instruction,
    LoadInst,
    PhiInst,
    RetInst,
    StoreInst,
)
from repro.ir.module import Module
from repro.ir.values import FunctionObject, Variable
from repro.solvers.base import FlowSensitiveResult, SolverStats


class ICFGFlowSensitive:
    """Dense iterative dataflow solver on the interprocedural CFG."""

    analysis_name = "icfg-fs"

    def __init__(self, module: Module, meter=None, checkpointer=None):
        self.module = module
        self.meter = meter
        self.checkpointer = checkpointer
        self._resumed = False
        self.pt: List[int] = [0] * len(module.variables)
        self.in_sets: Dict[Instruction, Dict[int, int]] = {}
        self.out_sets: Dict[Instruction, Dict[int, int]] = {}
        self.callgraph = CallGraph(module)
        self.stats = SolverStats(analysis=self.analysis_name)
        self.worklist: PriorityWorkList[Instruction] = \
            PriorityWorkList(key=self._pop_order().__getitem__)
        self._succs: Dict[Instruction, List[Instruction]] = {}
        self._var_uses: Dict[int, List[Instruction]] = {}
        self._function_objects: Dict[int, Function] = {
            obj.id: obj.function
            for obj in module.objects
            if isinstance(obj, FunctionObject)
        }
        self._build_intraprocedural_cfg()
        self._index_var_uses()

    # -------------------------------------------------------------- structure

    def _build_intraprocedural_cfg(self) -> None:
        for function in self.module.functions.values():
            for block in function.blocks:
                insts = block.instructions
                for prev, nxt in zip(insts, insts[1:]):
                    self._succs.setdefault(prev, []).append(nxt)
                term = block.terminator()
                if isinstance(term, BranchInst):
                    for target in term.targets:
                        if target.instructions:
                            self._succs.setdefault(term, []).append(target.instructions[0])

    def _pop_order(self) -> Dict[Instruction, int]:
        """Worklist priority of every instruction: functions in reverse
        postorder of the direct call graph (callers before callees),
        program order within a function.

        Every pop re-joins whole IN/OUT maps, so settling predecessors
        before their successors pop saves most of FIFO's re-visits.  The
        order is a heuristic only: any order reaches the same fixpoint.
        """
        functions = list(self.module.functions.values())
        callees = {function: [inst.callee for inst in function.instructions()
                              if isinstance(inst, CallInst)
                              and not inst.is_indirect()]
                   for function in functions}
        main = self.module.functions.get("main")
        postorder: List[Function] = []
        seen: Set[Function] = set()
        for root in ([main] if main is not None else []) + functions:
            if root in seen:
                continue
            seen.add(root)
            stack = [(root, iter(callees[root]))]
            while stack:
                function, pending = stack[-1]
                callee = next(pending, None)
                if callee is None:
                    postorder.append(function)
                    stack.pop()
                elif callee not in seen:
                    seen.add(callee)
                    stack.append((callee, iter(callees[callee])))
        order: Dict[Instruction, int] = {}
        for function in reversed(postorder):
            for inst in function.instructions():
                order[inst] = len(order)
        return order

    def _index_var_uses(self) -> None:
        for inst in self.module.instructions():
            for operand in inst.operands():
                if isinstance(operand, Variable):
                    self._var_uses.setdefault(operand.id, []).append(inst)

    def _add_icfg_edge(self, src: Instruction, dst: Instruction) -> None:
        succs = self._succs.setdefault(src, [])
        if dst not in succs:
            succs.append(dst)
            self.worklist.push(src)

    def _return_site(self, call: CallInst) -> Instruction:
        block = call.block
        assert block is not None
        index = block.instructions.index(call)
        return block.instructions[index + 1]

    # ------------------------------------------------------------- utilities

    def set_pt(self, var: Variable, mask: int) -> bool:
        new = self.pt[var.id] | mask
        if new == self.pt[var.id]:
            return False
        self.pt[var.id] = new
        for user in self._var_uses.get(var.id, ()):
            self.worklist.push(user)
        return True

    def value_mask(self, value: object) -> int:
        if isinstance(value, Variable) and 0 <= value.id < len(self.pt):
            return self.pt[value.id]
        return 0

    def _join_out_into(self, src: Instruction, dst: Instruction) -> None:
        out = self.out_sets.get(src)
        if not out:
            return
        in_set = self.in_sets.setdefault(dst, {})
        changed = False
        for oid, mask in out.items():
            old = in_set.get(oid, 0)
            self.stats.propagations += 1
            if mask | old != old:
                in_set[oid] = mask | old
                changed = True
                self.stats.unions += 1
        if changed:
            self.worklist.push(dst)

    # ------------------------------------------------------------------ solve

    def run(self) -> FlowSensitiveResult:
        start = time.perf_counter()
        meter = self.meter
        checkpointer = self.checkpointer
        try:
            if meter is not None:
                meter.start()
                meter.check()
            if not self._resumed:
                for inst in self.module.instructions():
                    self.worklist.push(inst)
            if checkpointer is not None:
                tick = meter.tick if meter is not None else None
                while self.worklist:
                    if tick is not None:
                        tick()
                    checkpointer.maybe(self, self.stats.nodes_processed)
                    inst = self.worklist.pop()
                    self.stats.nodes_processed += 1
                    self._transfer(inst)
                    for succ in self._succs.get(inst, ()):
                        self._join_out_into(inst, succ)
            elif meter is not None:
                tick = meter.tick
                while self.worklist:
                    tick()
                    inst = self.worklist.pop()
                    self.stats.nodes_processed += 1
                    self._transfer(inst)
                    for succ in self._succs.get(inst, ()):
                        self._join_out_into(inst, succ)
            else:
                while self.worklist:
                    inst = self.worklist.pop()
                    self.stats.nodes_processed += 1
                    self._transfer(inst)
                    for succ in self._succs.get(inst, ()):
                        self._join_out_into(inst, succ)
        except BudgetExceeded as exc:
            self.stats.solve_time = time.perf_counter() - start
            exc.attach(
                stage=self.analysis_name,
                stats=self.stats,
                partial_result=FlowSensitiveResult(
                    self.module, self.pt, self.callgraph, self.stats,
                    complete=False),
            )
            if checkpointer is not None:
                try:
                    exc.checkpoint_path = checkpointer.save(
                        self, self.stats.nodes_processed, reason="budget")
                except OSError:
                    pass  # a full disk must not mask the budget signal
            raise
        self.stats.solve_time = time.perf_counter() - start
        self.stats.callgraph_edges = self.callgraph.num_edges()
        self.stats.top_level_bits = sum(count_bits(mask) for mask in self.pt)
        self._memory_footprint()
        return FlowSensitiveResult(self.module, self.pt, self.callgraph, self.stats)

    # ----------------------------------------------------------- persistence

    def snapshot_state(self) -> Dict[str, object]:
        """Dense IN/OUT maps keyed by instruction id, plus the worklist in
        pop order, the OTF call edges, and lazily created field objects."""
        from repro.store.codec import snapshot_call_edges, snapshot_fields

        def encode(sets: Dict[Instruction, Dict[int, int]]
                   ) -> Dict[str, Dict[str, str]]:
            return {
                str(inst.id): {str(oid): format(mask, "x")
                               for oid, mask in table.items()}
                for inst, table in sets.items()
            }

        stats = self.stats
        return {
            "pt": [format(mask, "x") for mask in self.pt],
            "in": encode(self.in_sets),
            "out": encode(self.out_sets),
            "worklist": [inst.id for inst in self.worklist.snapshot()["items"]],
            "call_edges": snapshot_call_edges(self.callgraph),
            "fields": snapshot_fields(self.module),
            "counters": {
                "nodes_processed": stats.nodes_processed,
                "propagations": stats.propagations,
                "unions": stats.unions,
                "strong_updates": stats.strong_updates,
                "weak_updates": stats.weak_updates,
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
            by_id: Dict[int, Instruction] = {
                inst.id: inst for inst in self.module.instructions()}

            def decode(sets: Dict[str, Dict[str, str]]
                       ) -> Dict[Instruction, Dict[int, int]]:
                decoded: Dict[Instruction, Dict[int, int]] = {}
                for inst_id, table in sets.items():
                    inst = by_id.get(int(inst_id))
                    if inst is None:
                        raise CheckpointError(
                            f"IN/OUT table refers to unknown instruction "
                            f"{inst_id}")
                    decoded[inst] = {int(oid): int(mask, 16)
                                     for oid, mask in table.items()}
                return decoded

            pt = [int(text, 16) for text in payload["pt"]]
            if len(pt) != len(self.pt):
                raise CheckpointError(
                    f"top-level table has {len(pt)} entries, module has "
                    f"{len(self.pt)} variables")
            self.pt = pt
            self.in_sets = decode(payload["in"])
            self.out_sets = decode(payload["out"])
            # Call edges also re-wire the interprocedural CFG edges that
            # _transfer_call added when it discovered them (entry/exit →
            # return-site); _add_icfg_edge pushes onto the worklist, which
            # is harmless because the recorded worklist is restored below.
            sites = call_sites_by_id(self.module)
            for inst_id, callee_name in payload["call_edges"]:
                call, callee = resolve_call_edge(self.module, sites, inst_id,
                                                 callee_name)
                if self.callgraph.add_edge(call, callee):
                    self._add_icfg_edge(call, callee.entry_inst)
                    exit_inst = callee.exit_inst()
                    if exit_inst is not None:
                        self._add_icfg_edge(exit_inst, self._return_site(call))
            items: List[Instruction] = []
            for inst_id in payload["worklist"]:
                inst = by_id.get(int(inst_id))
                if inst is None:
                    raise CheckpointError(
                        f"worklist refers to unknown instruction {inst_id}")
                items.append(inst)
            self.worklist.restore({"items": items})
            counters = payload["counters"]
            stats = self.stats
            stats.nodes_processed = counters["nodes_processed"]
            stats.propagations = counters["propagations"]
            stats.unions = counters["unions"]
            stats.strong_updates = counters["strong_updates"]
            stats.weak_updates = counters["weak_updates"]
            stats.indirect_calls_resolved = counters["indirect_calls_resolved"]
        except CheckpointError:
            raise
        except (KeyError, ValueError, TypeError, IndexError, AttributeError) as err:
            raise CheckpointError(
                f"checkpoint payload does not restore cleanly: "
                f"{type(err).__name__}: {err}", reason="corrupt") from err
        self.stats.resumed_steps = self.stats.nodes_processed
        self._resumed = True
        if self.checkpointer is not None:
            self.checkpointer.mark_resumed(step)

    def _transfer(self, inst: Instruction) -> None:
        in_set = self.in_sets.get(inst, {})

        if isinstance(inst, AllocInst):
            self.set_pt(inst.dst, 1 << inst.obj.id)
        elif isinstance(inst, CopyInst):
            self.set_pt(inst.dst, self.value_mask(inst.src))
        elif isinstance(inst, PhiInst):
            mask = 0
            for __, value in inst.incomings:
                mask |= self.value_mask(value)
            self.set_pt(inst.dst, mask)
        elif isinstance(inst, FieldInst):
            mask = 0
            for oid in iter_bits(self.value_mask(inst.base)):
                obj = self.module.objects[oid]
                if not isinstance(obj, FunctionObject):
                    mask |= 1 << self.module.field_object(obj, inst.field).id
            self.set_pt(inst.dst, mask)
        elif isinstance(inst, LoadInst):
            mask = 0
            for oid in iter_bits(self.value_mask(inst.ptr)):
                mask |= in_set.get(oid, 0)
            if mask:
                self.set_pt(inst.dst, mask)
        elif isinstance(inst, CallInst):
            self._transfer_call(inst)
        elif isinstance(inst, RetInst):
            function = inst.function
            if isinstance(inst.value, Variable):
                mask = self.value_mask(inst.value)
                if mask:
                    for call in self.callgraph.callsites_of(function):
                        if call.dst is not None:
                            self.set_pt(call.dst, mask)

        # OUT = Gen ∪ (IN − Kill); identity for everything but stores.
        # run() propagates OUT into successors right after this returns.
        if isinstance(inst, StoreInst):
            self._transfer_store(inst, in_set)
        else:
            out_set = self.out_sets.setdefault(inst, {})
            for oid, mask in in_set.items():
                old = out_set.get(oid, 0)
                if mask | old != old:
                    out_set[oid] = mask | old

    def _transfer_store(self, inst: StoreInst, in_set: Dict[int, int]) -> None:
        ptr_mask = self.value_mask(inst.ptr)
        gen = self.value_mask(inst.value)
        su_oid: Optional[int] = None
        if ptr_mask and not ptr_mask & (ptr_mask - 1):
            oid = ptr_mask.bit_length() - 1
            if self.module.objects[oid].is_singleton:
                su_oid = oid
        out_set = self.out_sets.setdefault(inst, {})
        touched = set(in_set) | set(iter_bits(ptr_mask))
        for oid in touched:
            incoming = in_set.get(oid, 0)
            if oid == su_oid:
                out = gen
                self.stats.strong_updates += 1
            elif ptr_mask >> oid & 1:
                out = incoming | gen
                self.stats.weak_updates += 1
            else:
                out = incoming
            out_set[oid] = out_set.get(oid, 0) | out

    def _transfer_call(self, call: CallInst) -> None:
        callees: List[Function] = []
        if call.is_indirect():
            for oid in iter_bits(self.value_mask(call.callee)):
                func = self._function_objects.get(oid)
                if func is not None:
                    callees.append(func)
        else:
            assert isinstance(call.callee, Function)
            callees.append(call.callee)
        for callee in callees:
            if callee.is_declaration:
                continue
            if self.callgraph.add_edge(call, callee):
                entry = callee.entry_inst
                self._add_icfg_edge(call, entry)
                exit_inst = callee.exit_inst()
                if exit_inst is not None:
                    self._add_icfg_edge(exit_inst, self._return_site(call))
                self.worklist.push(call)
        for callee in self.callgraph.callees_of(call):
            for arg, param in zip(call.args, callee.params):
                mask = self.value_mask(arg)
                if mask:
                    self.set_pt(param, mask)

    def _memory_footprint(self) -> None:
        sets = 0
        bits = 0
        for table in list(self.in_sets.values()) + list(self.out_sets.values()):
            for mask in table.values():
                if mask:
                    sets += 1
                    bits += count_bits(mask)
        self.stats.stored_ptsets = sets
        self.stats.stored_ptset_bits = bits


def run_icfg_fs(module: Module, meter=None,
                checkpointer=None) -> FlowSensitiveResult:
    """Run the dense ICFG flow-sensitive analysis (small programs only)."""
    return ICFGFlowSensitive(module, meter=meter,
                             checkpointer=checkpointer).run()

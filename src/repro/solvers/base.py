"""Machinery shared by the staged flow-sensitive solvers (SFS and VSFS).

Both solvers walk the same SVFG with the same top-level (direct) rules —
``ADDR``, ``COPY``, ``PHI``, ``FIELD-ADDR``, ``CALL``, ``RET`` of Figure 10 —
and the same on-the-fly call graph resolution.  They differ only in how the
points-to set of an address-taken object is *stored and propagated*:

- SFS keeps an ``IN``/``OUT`` map per SVFG node (multiple-object sparsity);
- VSFS keys one global table by ``(object, version)`` (adds single-object
  sparsity).

Subclasses implement the five memory hooks (`_process_load`,
`_process_store`, `_process_mem_node`, `_on_new_call_edge`, and
`_memory_footprint`).

Both store a points-to set as a plain int mask, hash-consed per solve: a
write that grows a set stores ``canon.setdefault(new, new)``, so equal
sets are one int object and forwarding a set forwards that object.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

from repro.analysis.callgraph import CallGraph
from repro.datastructs.bitset import count_bits, iter_bits
from repro.datastructs.worklist import FIFOWorkList
from repro.errors import BudgetExceeded
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
from repro.svfg.builder import SVFG
from repro.svfg.nodes import InstNode, SVFGNode


@dataclass
class SolverStats:
    """Counters describing one flow-sensitive solve.

    ``propagations`` counts indirect (per-object) set propagations along
    SVFG edges / version constraints — the quantity VSFS reduces.
    ``unions`` counts set-union operations *applied* to stored
    address-taken points-to data: one per propagation target (SFS) or
    per visited version (VSFS), whether or not the set grows.
    ``stored_ptsets``/``stored_ptset_bits`` describe the final memory
    footprint of address-taken points-to data, the paper's memory story;
    ``unique_ptsets``/``unique_ptset_bits`` are the deduplicated
    counterparts — the int objects the hash-consed tables actually hold.
    """

    analysis: str = ""
    solve_time: float = 0.0
    pre_time: float = 0.0  # versioning time for VSFS, 0 for SFS
    nodes_processed: int = 0
    propagations: int = 0
    unions: int = 0
    strong_updates: int = 0
    weak_updates: int = 0
    stored_ptsets: int = 0
    stored_ptset_bits: int = 0
    unique_ptsets: int = 0
    unique_ptset_bits: int = 0
    top_level_bits: int = 0
    callgraph_edges: int = 0
    indirect_calls_resolved: int = 0
    #: Pops inherited from a restored checkpoint.  ``nodes_processed`` is
    #: the *logical solve's* total (restored runs continue the count), so
    #: the work this attempt actually performed is :meth:`own_steps`.
    #: Per-attempt aggregators (stage traces, batch totals) must use that
    #: difference — summing ``nodes_processed`` over the attempts of a
    #: crashed-and-resumed run counts every pre-crash pop once per resume.
    resumed_steps: int = 0

    #: Work counters that add across disjoint units of work (parallel
    #: shard workers, independent programs).  Times sum to aggregate CPU
    #: seconds; wall clock is the caller's to measure.
    ADDITIVE_FIELDS = (
        "solve_time", "pre_time", "nodes_processed", "propagations",
        "unions", "strong_updates", "weak_updates", "stored_ptsets",
        "stored_ptset_bits", "unique_ptsets", "unique_ptset_bits",
        "indirect_calls_resolved", "resumed_steps",
    )
    #: Final-state gauges over structures the units may share (each
    #: parallel worker converges on the same global call graph, and the
    #: merged top-level table is the OR of the workers') — summing would
    #: multiply shared state by the worker count, so a merge takes the
    #: max and the driver overwrites them with globally recomputed values.
    GAUGE_FIELDS = ("top_level_bits", "callgraph_edges")

    @classmethod
    def merge(cls, parts: "List[SolverStats]") -> "SolverStats":
        """Fold per-worker (or per-program) stats into one aggregate.

        Each input must describe a *disjoint* unit of work.  In
        particular, never merge the attempts of one crashed-and-resumed
        solve: a resumed attempt's counters already include everything
        restored from the checkpoint, so the final attempt alone is the
        whole logical solve (its own new work is :meth:`own_steps`).

        ``unique_ptsets``/``unique_ptset_bits`` sum the per-unit dedup
        counts; a set stored by two workers counts twice, so the sum is
        an upper bound on the global unique count (the parallel driver
        recomputes the exact global figure over the merged tables).
        """
        merged = cls()
        if not parts:
            return merged
        merged.analysis = parts[0].analysis
        for name in cls.ADDITIVE_FIELDS:
            setattr(merged, name, sum(getattr(p, name) for p in parts))
        for name in cls.GAUGE_FIELDS:
            setattr(merged, name, max(getattr(p, name) for p in parts))
        return merged

    def own_steps(self) -> int:
        """Pops performed by this attempt itself (excludes pops replayed
        into ``nodes_processed`` from a restored checkpoint)."""
        return self.nodes_processed - self.resumed_steps

    def total_time(self) -> float:
        return self.pre_time + self.solve_time

    def dedup_ratio(self) -> float:
        """Referenced sets per unique set (1.0 = no sharing at all)."""
        return self.stored_ptsets / self.unique_ptsets if self.unique_ptsets else 0.0


class FlowSensitiveResult:
    """Final points-to information exposed by SFS/VSFS.

    Top-level variables have one global points-to set each (partial SSA);
    address-taken precision is observable through the loads that read it.
    """

    def __init__(self, module: Module, pt: List[int], callgraph: CallGraph,
                 stats: SolverStats, precision_level: Optional[str] = None,
                 degraded_from: Optional[str] = None, report=None,
                 complete: bool = True):
        self.module = module
        self._pt = pt
        self.callgraph = callgraph
        self.stats = stats
        #: Precision actually delivered ("vsfs", "sfs", "icfg-fs",
        #: "andersen"); differs from the requested analysis after the
        #: degradation ladder took a fallback.
        self.precision_level = precision_level or stats.analysis
        #: The analysis originally requested, when this result is a
        #: graceful degradation of it (None otherwise).
        self.degraded_from = degraded_from
        #: RunReport of the governed run that produced this result.
        self.report = report
        #: False only on the diagnostic partial state attached to a
        #: BudgetExceeded — an under-approximation, never a sound answer.
        self.complete = complete

    def pts_mask(self, var: Variable) -> int:
        if var.id < 0 or var.id >= len(self._pt):
            return 0
        return self._pt[var.id]

    def points_to(self, var: Variable) -> Set[MemObject]:
        return {self.module.objects[oid] for oid in iter_bits(self.pts_mask(var))}

    def may_alias(self, a: Variable, b: Variable) -> bool:
        return bool(self.pts_mask(a) & self.pts_mask(b))

    def snapshot(self) -> Dict[int, int]:
        """var id -> mask for every non-empty top-level set (for tests)."""
        return {vid: mask for vid, mask in enumerate(self._pt) if mask}


class StagedSolverBase:
    """Worklist solver over the SVFG; see module docstring.

    Propagation is eager: a popped node re-runs its whole transfer rule
    and forwards whole masks.  IN/OUT / version-table entries are masks,
    hash-consed through :attr:`canon`: every write that grows a set
    stores ``canon.setdefault(new, new)``, and so do a warm preload and
    a checkpoint restore, so equal sets are one int object per solve.
    """

    analysis_name = "base"

    #: Instruction kinds whose SVFG nodes carry a transfer rule and so
    #: seed the worklist (memory nodes only act once data reaches them).
    SEED_TYPES = (AllocInst, CopyInst, PhiInst, FieldInst, LoadInst,
                  StoreInst, CallInst, RetInst)

    def __init__(self, svfg: SVFG,
                 meter=None, faults=None, checkpointer=None):
        self.svfg = svfg.copy()  # private view: OTF edges grow only it
        self.module = svfg.module
        self.andersen = svfg.andersen
        self.memssa = svfg.memssa
        self.pt: List[int] = [0] * len(self.module.variables)
        self.callgraph = CallGraph(self.module)
        #: mask -> the one int object every table entry equal to it is.
        self.canon: Dict[int, int] = {}
        # Resource governance (repro.runtime): a BudgetMeter ticked once
        # per worklist pop, and a FaultPlan fired at the instrumented
        # trigger points.  Both default to None, leaving the hot loops of
        # an ungoverned run untouched.
        self.meter = meter
        self.faults = faults
        # Crash safety (repro.runtime.checkpoint): when a Checkpointer is
        # attached, the solve loop offers the solver for snapshotting on
        # the configured cadence and on budget exhaustion; restore_state()
        # reloads a snapshot and run() continues the fixpoint from it.
        self.checkpointer = checkpointer
        self._resumed = False
        # Warm re-solve (repro.incremental): a WarmPlan installed via
        # warm_start() replaces cold seeding — clean-region values are
        # preloaded and only the dirty closure is recomputed.
        self._warm_plan = None
        self._steps_done = 0  # pops completed in earlier (resumed) runs
        self.stats = SolverStats(analysis=self.analysis_name)
        # Worklist of SVFG node ids with O(1) dedup.
        self.worklist: FIFOWorkList[int] = FIFOWorkList()
        self._function_objects: Dict[int, Function] = {
            obj.id: obj.function
            for obj in self.module.objects
            if isinstance(obj, FunctionObject)
        }

    # ------------------------------------------------------------- top level

    def set_pt(self, var: Variable, mask: int) -> bool:
        """Grow pt(var); on growth, push every node reading *var*."""
        vid = var.id
        new = self.pt[vid] | mask
        if new == self.pt[vid]:
            return False
        self.pt[vid] = new
        for user in self.svfg.var_uses.get(vid, ()):
            self.worklist.push(user)
        return True

    def value_mask(self, value: object) -> int:
        """pt of an operand (constants and unregistered values are empty)."""
        if isinstance(value, Variable) and 0 <= value.id < len(self.pt):
            return self.pt[value.id]
        return 0

    # ------------------------------------------------------------ main solve

    def run(self) -> FlowSensitiveResult:
        meter = self.meter
        checkpointer = self.checkpointer
        processed = 0
        begun = time.perf_counter()
        start = begun
        try:
            if meter is not None:
                meter.start()
                meter.check()  # a zero budget trips before any work
            if not self._resumed:
                if self.faults is not None:
                    # Pre-solve stage boundary (for VSFS, before the
                    # versioning artifact is indexed).
                    self.faults.fire("pre_meld", self.analysis_name)
                self._prepare()  # fills stats.pre_time (versioning, for VSFS)
                start = time.perf_counter()
                if self._warm_plan is not None:
                    self._apply_warm(self._warm_plan)
                else:
                    self._seed()
            worklist = self.worklist
            nodes = self.svfg.nodes
            tick = meter.tick if meter is not None else None
            process = self._process
            pop = worklist.pop
            if checkpointer is not None:
                # Governed + checkpointed loop: the cadence probe runs
                # *before* the pop, so a snapshot always captures a state
                # whose worklist still holds the next node.
                maybe = checkpointer.maybe
                base_steps = self._steps_done
                while worklist:
                    if tick is not None:
                        tick()
                    maybe(self, base_steps + processed)
                    processed += 1
                    process(nodes[pop()])
            elif tick is None:
                while worklist:
                    processed += 1
                    process(nodes[pop()])
            else:
                while worklist:
                    tick()
                    processed += 1
                    process(nodes[pop()])
        except BudgetExceeded as exc:
            self.stats.nodes_processed = self._steps_done + processed
            self.stats.solve_time = time.perf_counter() - begun
            exc.attach(
                stage=self.analysis_name, stats=self.stats,
                partial_result=FlowSensitiveResult(
                    self.module, self.pt, self.callgraph, self.stats,
                    complete=False))
            if checkpointer is not None:
                try:
                    exc.checkpoint_path = checkpointer.save(
                        self, self._steps_done + processed, reason="budget")
                except OSError:
                    pass  # a full disk must not mask the budget signal
            raise
        self.stats.nodes_processed = self._steps_done + processed
        self.stats.solve_time = time.perf_counter() - start
        self.stats.callgraph_edges = self.callgraph.num_edges()
        self.stats.top_level_bits = sum(count_bits(mask) for mask in self.pt)
        self._memory_footprint()
        return FlowSensitiveResult(self.module, self.pt, self.callgraph, self.stats)

    def _prepare(self) -> None:
        """Hook: pre-solve setup (VSFS indexes its versioning here)."""

    def _seed(self) -> None:
        """Seed the worklist with the rule-bearing instruction nodes.

        Memory nodes (MEMPHI, actual/formal IN/OUT) only act once
        points-to data reaches them, which pushes them again.  A resumed
        run restores the mid-solve worklist instead of seeding.  Sharded
        workers override this to seed only the nodes they own.
        """
        seed_types = self.SEED_TYPES
        for node in self.svfg.nodes:
            if isinstance(node, InstNode) and isinstance(node.inst, seed_types):
                self.worklist.push(node.id)

    # ------------------------------------------------------- warm re-solve

    def warm_start(self, plan) -> None:
        """Install a :class:`~repro.incremental.WarmPlan` before run().

        Mutually exclusive with restore_state(): a warm start replays a
        *finished* solution onto an edited program, a resume continues an
        *unfinished* one on the same program.
        """
        if self._resumed:
            from repro.errors import SolverError

            raise SolverError("cannot warm-start a resumed solver")
        self._warm_plan = plan

    def _apply_warm(self, plan) -> None:
        """Preload clean-region state and seed only the dirty closure.

        Top-level preloads are direct writes — no use pushes; the plan
        already lists the dirty consumers among its seeds, and clean
        consumers have their outputs preloaded too.  Clean call sites
        are pushed so on-the-fly call-graph edges (and the memory/return
        flow they carry) are rediscovered; with every input preloaded at
        its fixpoint value this replays without recomputation.
        """
        pt = self.pt
        for vid, mask in plan.pt_preload.items():
            if 0 <= vid < len(pt):
                pt[vid] |= mask
        self._preload_memory(plan)
        push = self.worklist.push
        for nid in plan.seed_nodes:
            push(nid)
        for nid in plan.call_nodes:
            push(nid)

    def _preload_memory(self, plan) -> None:
        """Hook: install the plan's clean-region memory values."""

    def export_node_memory(self):
        """Hook: ``(node_in, node_out)`` as ``{nid: {oid: raw mask}}``.

        The per-node view of the solver's memory state, used to capture
        a finished solution for later warm re-solves.  Base solvers
        without a memory layer export nothing.
        """
        return {}, {}

    # ----------------------------------------------------------- persistence

    def snapshot_state(self) -> Dict[str, object]:
        """Everything needed to continue this solve in a fresh process.

        Top-level masks are hex strings; the memory layer (IN/OUT maps or
        the versioned global table, over one list of their distinct masks)
        comes from the subclass hook ``_snapshot_memory``; call edges and field
        objects are stored as replayable references (see
        :mod:`repro.store.codec`).
        """
        from repro.store.codec import snapshot_call_edges, snapshot_fields

        stats = self.stats
        return {
            "pt": [format(mask, "x") for mask in self.pt],
            "worklist": self.worklist.snapshot(),
            "call_edges": snapshot_call_edges(self.callgraph),
            "fields": snapshot_fields(self.module),
            "mem": self._snapshot_memory(),
            "counters": {
                "pre_time": stats.pre_time,
                "propagations": stats.propagations,
                "unions": stats.unions,
                "strong_updates": stats.strong_updates,
                "weak_updates": stats.weak_updates,
                "indirect_calls_resolved": stats.indirect_calls_resolved,
            },
        }

    def restore_state(self, payload: Dict[str, object], step: int) -> None:
        """Reload :meth:`snapshot_state` output; the next :meth:`run`
        continues the fixpoint instead of starting one.

        Any structural mismatch in the payload surfaces as a typed
        :class:`CheckpointError` — a damaged file must never half-restore
        or leak a ``KeyError`` out of the solver.
        """
        from repro.errors import CheckpointError
        from repro.store.codec import replay_fields

        try:
            replay_fields(self.module, payload["fields"])
            self._replay_call_edges(payload["call_edges"])
            pt = [int(text, 16) for text in payload["pt"]]
            if len(pt) != len(self.pt):
                raise CheckpointError(
                    f"top-level table has {len(pt)} entries, module has "
                    f"{len(self.pt)} variables")
            self.pt = pt
            self._restore_pre(payload)
            self._restore_memory(payload["mem"])
            self.worklist.restore(payload["worklist"])
            counters = payload["counters"]
            stats = self.stats
            stats.pre_time = counters["pre_time"]
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
        self._steps_done = step
        self.stats.resumed_steps = step
        self._resumed = True
        if self.checkpointer is not None:
            self.checkpointer.mark_resumed(step)

    def _replay_call_edges(self, edges) -> None:
        """Re-wire OTF-discovered call edges into the solver's SVFG view.

        Rebuilds the call graph and the SVFG's interprocedural indirect
        edges (``connect_callsite``); the versioning constraints those
        edges induced for VSFS are restored wholesale from the snapshot, so
        ``_on_new_call_edge`` is deliberately *not* replayed.
        """
        from repro.store.codec import call_sites_by_id, resolve_call_edge

        sites = call_sites_by_id(self.module)
        for inst_id, callee_name in edges:
            call, callee = resolve_call_edge(self.module, sites, inst_id,
                                             callee_name)
            if self.callgraph.add_edge(call, callee):
                self.svfg.connect_callsite(call, callee)

    def _restore_pre(self, payload: Dict[str, object]) -> None:
        """Hook: restore pre-analysis state (VSFS: versioning + readers)."""

    def _snapshot_memory(self) -> Dict[str, object]:
        """Hook: the solver's address-taken memory representation."""
        raise NotImplementedError

    @staticmethod
    def _encode_masks(index: Dict[int, int]) -> List[str]:
        """A snapshot's ``masks`` list: *index* maps each distinct mask to
        its position (filled with ``index.setdefault(mask, len(index))``
        while the entries were encoded), so each set is written once."""
        return [format(mask, "x") for mask in index]

    def _decode_masks(self, texts: List[str]) -> List[int]:
        """Inverse of :meth:`_encode_masks`, hash-consed into
        :attr:`canon`; entries restore as ``masks[i]``."""
        canon = self.canon
        return [canon.setdefault(mask, mask)
                for mask in (int(text, 16) for text in texts)]

    def _restore_memory(self, mem: Dict[str, object]) -> None:
        """Hook: inverse of ``_snapshot_memory``."""
        raise NotImplementedError

    def _process(self, node: SVFGNode) -> None:
        """Apply *node*'s transfer rule."""
        if isinstance(node, InstNode):
            inst = node.inst
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
                self._process_field(inst)
            elif isinstance(inst, LoadInst):
                self._process_load(node, inst)
            elif isinstance(inst, StoreInst):
                self._process_store(node, inst)
            elif isinstance(inst, CallInst):
                self._process_call(node, inst)
            elif isinstance(inst, RetInst):
                self._process_ret(node, inst)
            # other instructions (binop/cmp/br/funentry) are pointer-neutral
        else:
            self._process_mem_node(node)

    def _process_field(self, inst: FieldInst) -> None:
        base_mask = self.value_mask(inst.base)
        mask = 0
        for oid in iter_bits(base_mask):
            obj = self.module.objects[oid]
            if isinstance(obj, FunctionObject):
                continue
            mask |= 1 << self.module.field_object(obj, inst.field).id
        self.set_pt(inst.dst, mask)

    # ----------------------------------------------------------------- calls

    def _process_call(self, node: InstNode, call: CallInst) -> None:
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
                if self.faults is not None:
                    self.faults.fire("otf_edge", self.analysis_name)
                if call.is_indirect():
                    self.stats.indirect_calls_resolved += 1
                touched = self.svfg.connect_callsite(call, callee)
                self._on_new_call_edge(call, callee, touched)
                for src in touched:
                    self.worklist.push(src)
                # The RET rule spreads over callsites_of(callee), which
                # just grew — replay it even when the SVFG edges already
                # existed (build-time-wired direct calls leave *touched*
                # empty, and a ret processed before this edge was
                # registered never saw this callsite).
                exit_inst = callee.exit_inst()
                if exit_inst is not None and call.dst is not None:
                    self.worklist.push(self.svfg.inst_node[exit_inst].id)
        # Bind actual arguments to formal parameters (CALL rule).
        for callee in self.callgraph.callees_of(call):
            for arg, param in zip(call.args, callee.params):
                mask = self.value_mask(arg)
                if mask:
                    self.set_pt(param, mask)

    def _process_ret(self, node: InstNode, ret: RetInst) -> None:
        if not isinstance(ret.value, Variable):
            return
        mask = self.value_mask(ret.value)
        if not mask:
            return
        function = node.function
        assert function is not None
        for call in self.callgraph.callsites_of(function):
            if call.dst is not None:
                self.set_pt(call.dst, mask)

    # ------------------------------------------------------------- mem hooks

    def _process_load(self, node: InstNode, inst: LoadInst) -> None:
        raise NotImplementedError

    def _process_store(self, node: InstNode, inst: StoreInst) -> None:
        raise NotImplementedError

    def _process_mem_node(self, node: SVFGNode) -> None:
        raise NotImplementedError

    def _on_new_call_edge(self, call: CallInst, callee: Function, touched: List[int]) -> None:
        """Hook: a flow-sensitively discovered call edge was wired in."""

    def _memory_footprint(self) -> None:
        """Hook: fill ``stats.stored_ptsets`` / ``stats.stored_ptset_bits``."""
        raise NotImplementedError

    # --------------------------------------------------------------- helpers

    def _finish_footprint(self, masks: Iterable[int]) -> None:
        """Fill storage stats from every stored table entry.

        ``stored_ptsets`` counts referenced non-empty sets and ``unique_*``
        their exact deduplication (the int objects the tables share).
        """
        sets = 0
        bits = 0
        seen: Set[int] = set()
        for mask in masks:
            if mask:
                sets += 1
                bits += count_bits(mask)
                seen.add(mask)
        self.stats.stored_ptsets = sets
        self.stats.stored_ptset_bits = bits
        self.stats.unique_ptsets = len(seen)
        self.stats.unique_ptset_bits = sum(count_bits(mask) for mask in seen)

    def strong_update_target(self, ptr_mask: int) -> Optional[int]:
        """If a store through *ptr_mask* may strong-update, the object id.

        Requires pt(p) to be exactly one object which is a singleton
        (SU/WU rule interacting with the kill function, §IV-D).
        """
        if ptr_mask and not ptr_mask & (ptr_mask - 1):  # exactly one bit
            oid = ptr_mask.bit_length() - 1
            if self.module.objects[oid].is_singleton:
                return oid
        return None

    def defers_passthrough(self, ptr_mask: int, oid: int) -> bool:
        """Schedule-independence gate for the store pass-through rule.

        A store visited while its pointer operand is still unresolved
        (pt(p) = ∅) must not pass a *singleton* object's incoming set
        through: if pt(p) later resolves to exactly that object the store
        strong-updates, and the already-leaked set can never be retracted
        (OUT accumulation is monotone) — so whether the leak happens would
        depend on the visit schedule.  Deferring is lossless whenever the
        pointer eventually resolves: any growth of pt(p) re-pushes the
        store for a full revisit (``set_pt`` pushes ``var_uses``), which
        replays the strong/weak/pass-through decision against the full
        incoming set.  Non-singleton objects can never be strong-updated,
        so their pass-through is safe from the first visit.  With this
        gate every transfer function's contribution is bounded by its
        value at the final fixpoint, making the solve confluent: any
        fair schedule — FIFO, LIFO, or the sharded parallel one — reaches
        the same least fixpoint bit for bit (DESIGN.md §10).
        """
        return not ptr_mask and self.module.objects[oid].is_singleton

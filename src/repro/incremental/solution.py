"""Stored solutions and warm re-solve planning.

The incremental spine stores one solved program per analysis —
latest-solution semantics, like a build cache.
A stored solution is written entirely in the **stable entity-key spaces**
of :mod:`repro.ir.fingerprint` (object keys, variable keys, node keys),
never dense ids, so it can be replayed onto a freshly compiled module
whose dense numbering moved.

:func:`plan_warm` turns a stored solution plus a new substrate into a
:class:`WarmPlan`: the dirty closure of the edit (per-function
fingerprints → region digests → old-graph shrink closure → node-level
BFS over the new graph),
the top-level and memory values of every *clean* region remapped into
new ids, the indirect-edge boundary values flowing from clean into dirty
regions, and the worklist seeds that make the staged solvers recompute
exactly the dirty regions.  Anything the planner cannot prove safe
(scheme mismatch, configuration mismatch, a clean value referencing an
object the new substrate does not have) degrades to a cold solve with a
typed ``fallback_reason`` — never to a wrong warm one.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field as dataclass_field
from typing import Any, Dict, List, Optional, Set

from repro.datastructs.bitset import iter_bits
from repro.errors import CheckpointError
from repro.incremental.deps import node_dirty_closure
from repro.incremental.regions import region_digests
from repro.ir.fingerprint import (
    FINGERPRINT_SCHEME,
    module_function_fingerprints,
    node_keys,
    object_keys,
    variable_keys,
)
from repro.ir.instructions import CallInst
from repro.store.atomic import (
    dec_mask_list,
    enc_mask_list,
    quarantine_file,
    read_sealed_json,
    write_sealed_json,
)
from repro.svfg.nodes import InstNode

INCREMENTAL_KIND = "incremental-solution"
#: Bumped whenever the slot layout changes.
#: 2: slots are ``warm-<analysis>-p<0|1>`` and payloads drop ``delta``.
#: 3: slots are ``warm-<analysis>`` and payloads drop ``ptrepo``.
#: 4: payloads and slot metadata drop the unread ``module_fp``.
INCREMENTAL_SCHEMA = 4


# ------------------------------------------------------------------- stats

@dataclass
class IncrStats:
    """What the warm path did — surfaced in reports, traces and benches."""

    analysis: str = ""
    dirty_functions: List[str] = dataclass_field(default_factory=list)
    regions_total: int = 0
    regions_reused: int = 0
    regions_recomputed: int = 0
    nodes_total: int = 0
    nodes_dirty: int = 0
    cold_steps_baseline: int = 0
    warm_steps: int = 0
    steps_saved: int = 0
    fallback_reason: Optional[str] = None

    def finish(self, warm_steps: int) -> None:
        """Stamp the realised step counts once the warm solve finished."""
        self.warm_steps = int(warm_steps)
        self.steps_saved = max(0, self.cold_steps_baseline - self.warm_steps)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "analysis": self.analysis,
            "dirty_functions": list(self.dirty_functions),
            "regions_total": self.regions_total,
            "regions_reused": self.regions_reused,
            "regions_recomputed": self.regions_recomputed,
            "nodes_total": self.nodes_total,
            "nodes_dirty": self.nodes_dirty,
            "cold_steps_baseline": self.cold_steps_baseline,
            "warm_steps": self.warm_steps,
            "steps_saved": self.steps_saved,
            "fallback_reason": self.fallback_reason,
        }


# -------------------------------------------------------------------- plan

@dataclass
class WarmPlan:
    """Everything a staged solver needs to re-solve only dirty regions.

    All ids are dense ids of the *new* module/SVFG.  ``node_in`` /
    ``node_out`` cover clean-region nodes only; ``boundary`` holds the
    indirect-edge values a dirty node receives from clean predecessors
    (SFS joins them into its IN maps; VSFS derives its own boundary from
    version constraints instead).  A plan with a ``fallback_reason`` is
    *not* applied — it only carries the reason into the run report.
    """

    analysis: str
    dirty_functions: Set[str] = dataclass_field(default_factory=set)
    pt_preload: Dict[int, int] = dataclass_field(default_factory=dict)
    node_in: Dict[int, Dict[int, int]] = dataclass_field(default_factory=dict)
    node_out: Dict[int, Dict[int, int]] = dataclass_field(default_factory=dict)
    boundary: Dict[int, Dict[int, int]] = dataclass_field(default_factory=dict)
    seed_nodes: List[int] = dataclass_field(default_factory=list)
    call_nodes: List[int] = dataclass_field(default_factory=list)
    stats: IncrStats = dataclass_field(default_factory=IncrStats)
    fallback_reason: Optional[str] = None

    @property
    def usable(self) -> bool:
        return self.fallback_reason is None


# ----------------------------------------------------------------- capture

def build_payload(svfg, modref, result, node_in, node_out, flow,
                  analysis: str, andersen=None) -> Dict[str, Any]:
    """Encode a finished solve as a warm-start payload (JSON-clean).

    *svfg* must be the **substrate** graph (as built, before the solver's
    on-the-fly edges) — region digests are compared against plan-time
    digests computed on the other side's substrate.  *node_in* /
    *node_out* come from ``solver.export_node_memory()`` and *flow*
    from ``node_flow_graph`` over the solver's *solved* copy (which has
    every on-the-fly edge wired in).
    """
    module = svfg.module
    digests = region_digests(svfg, modref, andersen)
    return {
        "fp_scheme": FINGERPRINT_SCHEME,
        "analysis": analysis,
        "function_fps": module_function_fingerprints(module),
        "region_digests": digests,
        "flow": {str(nid): list(succs) for nid, succs in flow.items()},
        "object_keys": object_keys(module),
        "variable_keys": variable_keys(module),
        "node_keys": node_keys(svfg),
        "pt": enc_mask_list(result._pt),
        "node_in": {
            str(nid): {str(oid): format(mask, "x")
                       for oid, mask in table.items()}
            for nid, table in node_in.items()
        },
        "node_out": {
            str(nid): {str(oid): format(mask, "x")
                       for oid, mask in table.items()}
            for nid, table in node_out.items()
        },
        "steps": int(result.stats.nodes_processed),
    }


# ------------------------------------------------------------------- store

class IncrementalStore:
    """Latest-solution slots, one per analysis.

    With a *directory* the slots are sealed JSON documents under
    ``<directory>/warm-{analysis}.json``; without one (the
    service's default) they live in memory.  :meth:`load` refuses — with
    a typed :class:`CheckpointError` whose ``path`` names the
    quarantined file — any corrupt payload or one minted under a
    different fingerprint scheme, so pre-refactor entries can never be
    silently replayed.
    """

    def __init__(self, directory: Optional[str] = None):
        self.directory = directory
        self._memory: Dict[str, Dict[str, Any]] = {}

    @staticmethod
    def slot(analysis: str) -> str:
        return f"warm-{analysis}"

    def _path(self, slot: str) -> str:
        return os.path.join(self.directory, slot + ".json")

    def save(self, payload: Dict[str, Any]) -> Optional[str]:
        slot = self.slot(payload["analysis"])
        if self.directory is None:
            self._memory[slot] = payload
            return None
        os.makedirs(self.directory, exist_ok=True)
        meta = {
            "analysis": payload["analysis"],
            "fp_scheme": payload["fp_scheme"],
        }
        path = self._path(slot)
        write_sealed_json(path, INCREMENTAL_KIND, INCREMENTAL_SCHEMA,
                          meta, payload)
        return path

    def load(self, analysis: str) -> Optional[Dict[str, Any]]:
        """Stored payload for this analysis, or ``None`` if absent.

        Raises :class:`CheckpointError` (after quarantining the slot) on
        corruption or a fingerprint-scheme mismatch.
        """
        slot = self.slot(analysis)
        if self.directory is None:
            payload = self._memory.get(slot)
            if payload is None:
                return None
            if payload.get("fp_scheme") != FINGERPRINT_SCHEME:
                self._memory.pop(slot, None)
                raise CheckpointError(
                    f"stale incremental solution in slot {slot!r}: "
                    f"fingerprint scheme {payload.get('fp_scheme')!r} != "
                    f"{FINGERPRINT_SCHEME}", reason="schema")
            return payload
        path = self._path(slot)
        if not os.path.exists(path):
            return None
        try:
            meta, payload = read_sealed_json(
                path, INCREMENTAL_KIND, INCREMENTAL_SCHEMA)
        except CheckpointError as err:
            err.path = quarantine_file(path)
            raise
        if (meta.get("fp_scheme") != FINGERPRINT_SCHEME
                or payload.get("fp_scheme") != FINGERPRINT_SCHEME):
            quarantined = quarantine_file(path)
            raise CheckpointError(
                f"stale incremental solution at {quarantined}: fingerprint "
                f"scheme {meta.get('fp_scheme')!r} != {FINGERPRINT_SCHEME}",
                reason="schema", path=quarantined)
        return payload


# ---------------------------------------------------------------- planning

class _PlanFallback(Exception):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def _decode_node_table(encoded: Dict[str, Dict[str, str]]
                       ) -> Dict[int, Dict[int, int]]:
    return {
        int(nid): {int(oid): int(mask, 16) for oid, mask in table.items()}
        for nid, table in encoded.items()
    }


def plan_warm(payload: Dict[str, Any], svfg, modref, analysis: str,
              andersen=None) -> WarmPlan:
    """Plan a warm re-solve of *svfg* from a stored *payload*.

    Always returns a plan; one with ``fallback_reason`` set means "solve
    cold, and say why".  See the module docstring for the pipeline.
    """
    stats = IncrStats(analysis=analysis,
                      cold_steps_baseline=int(payload.get("steps", 0)))
    plan = WarmPlan(analysis=analysis, stats=stats)

    def fallback(reason: str) -> WarmPlan:
        plan.fallback_reason = reason
        stats.fallback_reason = reason
        return plan

    if payload.get("fp_scheme") != FINGERPRINT_SCHEME:
        return fallback("scheme")
    if payload.get("analysis") != analysis:
        return fallback("config")

    module = svfg.module
    andersen = andersen if andersen is not None else svfg.andersen

    # 1. Function-level diff, then the region-digest backstop.
    new_fps = module_function_fingerprints(module)
    old_fps = payload.get("function_fps", {})
    changed = {n for n, fp in new_fps.items() if n in old_fps
               and old_fps[n] != fp}
    added = set(new_fps) - set(old_fps)
    deleted = set(old_fps) - set(new_fps)

    new_digests = region_digests(svfg, modref, andersen)
    old_digests = payload.get("region_digests", {})
    mismatched = {n for n, d in new_digests.items()
                  if old_digests.get(n) != d}

    # 2. Entity maps: old dense id -> new dense id via stable keys.
    new_okeys = object_keys(module)
    new_vkeys = variable_keys(module)
    new_nkeys = node_keys(svfg)
    oid_by_key = {key: oid for oid, key in enumerate(new_okeys)}
    vid_by_key = {key: vid for vid, key in enumerate(new_vkeys)}
    nid_by_key = {key: nid for nid, key in enumerate(new_nkeys)}
    old_okeys = payload.get("object_keys", [])
    old_vkeys = payload.get("variable_keys", [])
    old_nkeys = payload.get("node_keys", [])
    obj_map = [oid_by_key.get(key) for key in old_okeys]
    var_map = [vid_by_key.get(key) for key in old_vkeys]
    node_map = [nid_by_key.get(key) for key in old_nkeys]

    # 3. Shrink closure over the *old* solved flow graph, node-granular:
    # every old value downstream of an edited-away flow may shrink, so
    # its node (where it still exists) must recompute — and, fed into
    # the new-graph closure below, so must everything it feeds now.
    old_flow = {int(nid): succs
                for nid, succs in payload.get("flow", {}).items()}
    shrink_sources = changed | deleted
    old_frontier = [nid for nid, key in enumerate(old_nkeys)
                    if key.split("#", 1)[0] in shrink_sources]
    old_reached = set(old_frontier)
    while old_frontier:
        nid = old_frontier.pop()
        for succ in old_flow.get(nid, ()):
            if succ not in old_reached:
                old_reached.add(succ)
                old_frontier.append(succ)
    may_shrink = {node_map[nid] for nid in old_reached
                  if nid < len(node_map) and node_map[nid] is not None}

    # 4. New-graph dirty closure.  Seeds: every node of an added or
    # content-changed function, the mapped may-shrink nodes, and every
    # new node without an old counterpart (a structurally new
    # computation — e.g. a freshly threaded actual-in/out chain — whose
    # value nobody captured).  Digest-mismatched functions recompute as
    # regions but do NOT seed wholesale: their unchanged code recomputes
    # the same outputs from preloaded inputs, so dirtiness spreads out
    # of them only along the structurally-new or shrinking value flows
    # seeded here.
    old_key_set = set(old_nkeys)
    seed_nodes = set(may_shrink)
    seed_nodes.update(nid for nid, key in enumerate(new_nkeys)
                      if key not in old_key_set)
    dirty_nodes, dirty_fns = node_dirty_closure(
        svfg, changed | added, andersen, seed_nodes=seed_nodes)
    dirty_fns |= mismatched

    stats.dirty_functions = sorted(dirty_fns)
    stats.regions_total = len(new_digests)
    stats.regions_recomputed = len(dirty_fns & set(new_digests))
    stats.regions_reused = stats.regions_total - stats.regions_recomputed
    stats.nodes_total = len(svfg.nodes)
    stats.nodes_dirty = len(dirty_nodes)
    plan.dirty_functions = dirty_fns

    nodes = svfg.nodes

    def owner(nid: int) -> str:
        fn = nodes[nid].function
        return fn.name if fn is not None else ""

    def clean(nid: int) -> bool:
        # Nodes of dirty functions recompute wholesale (region
        # granularity), even the ones the BFS did not reach.
        return nid not in dirty_nodes and owner(nid) not in dirty_fns

    def remap_mask(mask: int) -> int:
        out = 0
        for oid in iter_bits(mask):
            new_oid = obj_map[oid] if 0 <= oid < len(obj_map) else None
            if new_oid is None:
                # A clean value naming an object the new substrate lacks:
                # typically a field object materialised mid-solve last
                # time.  Replaying it cannot be proven id-stable here.
                raise _PlanFallback("unmapped-object")
            out |= 1 << new_oid
        return out

    try:
        # 4. Top-level preload: variables defined in clean regions.
        old_pt = dec_mask_list(payload.get("pt", []))
        for old_vid, mask in enumerate(old_pt):
            if not mask:
                continue
            new_vid = var_map[old_vid] if old_vid < len(var_map) else None
            if new_vid is None:
                continue  # its defining function was edited away — dirty
            def_nid = svfg.var_def_node.get(new_vid)
            if def_nid is None or not clean(def_nid):
                continue  # the dirty re-solve recomputes it
            plan.pt_preload[new_vid] = remap_mask(mask)

        # 5. Memory preload: IN/OUT of clean-region nodes.
        for old_nid, table in _decode_node_table(
                payload.get("node_in", {})).items():
            new_nid = node_map[old_nid] if old_nid < len(node_map) else None
            if new_nid is None or not clean(new_nid):
                continue
            plan.node_in[new_nid] = {}
            for oid, mask in table.items():
                new_oid = obj_map[oid] if 0 <= oid < len(obj_map) else None
                if new_oid is None:
                    raise _PlanFallback("unmapped-object")
                plan.node_in[new_nid][new_oid] = remap_mask(mask)
        for old_nid, table in _decode_node_table(
                payload.get("node_out", {})).items():
            new_nid = node_map[old_nid] if old_nid < len(node_map) else None
            if new_nid is None or not clean(new_nid):
                continue
            plan.node_out[new_nid] = {}
            for oid, mask in table.items():
                new_oid = obj_map[oid] if 0 <= oid < len(obj_map) else None
                if new_oid is None:
                    raise _PlanFallback("unmapped-object")
                plan.node_out[new_nid][new_oid] = remap_mask(mask)
    except _PlanFallback as exc:
        plan.pt_preload.clear()
        plan.node_in.clear()
        plan.node_out.clear()
        return fallback(exc.reason)

    # 6. Boundary: values a dirty node receives over *static* indirect
    # edges from clean predecessors.  (On-the-fly edges re-deliver theirs
    # when the clean call sites are reprocessed.)
    ind_preds = svfg.indirect_preds()
    for nid in dirty_nodes:
        for pred, oid in ind_preds[nid]:
            table = plan.node_out.get(pred)
            mask = table.get(oid) if table else None
            if mask is None:
                table = plan.node_in.get(pred)
                mask = table.get(oid) if table else None
            if mask:
                bucket = plan.boundary.setdefault(nid, {})
                bucket[oid] = bucket.get(oid, 0) | mask

    # 7. Seeds.  Rule-bearing instruction nodes of every dirty region
    # (exactly what a cold _seed would push there), plus dirty memory
    # nodes receiving boundary values, plus dirty uses of preloaded
    # variables (the pushes set_pt growth would have produced), plus any
    # reached node outside function ownership.
    from repro.solvers.base import StagedSolverBase
    seed: Set[int] = set()
    regions = svfg.nodes_by_function()
    seed_types = StagedSolverBase.SEED_TYPES
    for name in dirty_fns:
        for nid in regions.get(name, ()):
            node = nodes[nid]
            if isinstance(node, InstNode) and isinstance(node.inst,
                                                         seed_types):
                seed.add(nid)
    seed.update(plan.boundary)
    for vid in plan.pt_preload:
        for use_nid in svfg.var_uses.get(vid, ()):
            if not clean(use_nid):
                seed.add(use_nid)
    for nid in dirty_nodes:
        if owner(nid) == "":
            seed.add(nid)
    plan.seed_nodes = sorted(seed)

    # 8. Clean call sites are reprocessed so every on-the-fly call edge
    # (and the memory/return flow it carries) is rediscovered; their
    # preloaded values make this replay, not recomputation.
    plan.call_nodes = sorted(
        node.id for inst, node in svfg.inst_node.items()
        if isinstance(inst, CallInst) and clean(node.id))
    return plan

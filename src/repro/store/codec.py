"""IR-level snapshot codecs shared by checkpoints and the result store.

Everything here depends only on the IR and call-graph layers, so the
solvers can import it without pulling in :mod:`repro.store`'s result
(de)serialisers (which themselves import the solvers).

Two pieces of solver state reference *objects created during solving* and
therefore need replay rather than plain copying when restoring onto a
freshly compiled module:

- **field objects** are materialised lazily by ``module.field_object`` as
  pointers flow into field accesses; ids are assigned in creation order, so
  replaying the recorded ``(id, base, offset)`` triples in id order
  reproduces the exact same object numbering (and any divergence proves the
  module is not the recorded program);
- **call edges** discovered on the fly are stored as
  ``(call instruction id, callee name)`` — both stable across compiles of
  the same source.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Tuple, Union

from repro.analysis.callgraph import CallGraph
from repro.errors import CheckpointError
from repro.ir.fingerprint import FINGERPRINT_SCHEME, module_fingerprint
from repro.ir.module import Module

__all__ = [
    "FINGERPRINT_SCHEME",
    "ir_fingerprint",
    "result_key",
    "snapshot_fields",
    "replay_fields",
    "snapshot_call_edges",
    "call_sites_by_id",
    "resolve_call_edge",
    "replay_call_edges",
]


def ir_fingerprint(module: Module) -> str:
    """Content hash of *module* under the current fingerprint scheme.

    Scheme 2 (:mod:`repro.ir.fingerprint`) hashes the module as a DAG of
    per-function content hashes rather than one flat ``print_module``
    text.  The hash still covers only source-level structure (functions,
    instructions, allocation sites), so it is stable across a solve —
    field objects materialised lazily during analysis never change it —
    while any edit to the analysed program changes it.  Keys minted under
    scheme 1 can never collide with scheme-2 keys (the scheme tag is part
    of the hashed text), so pre-refactor store entries simply miss.
    """
    return module_fingerprint(module)


def result_key(ir_hash: str, analysis: str) -> str:
    """Store/checkpoint key: IR hash × solver."""
    token = f"{ir_hash}|{analysis}"
    return hashlib.sha256(token.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------- field objects

def snapshot_fields(module: Module) -> List[List[int]]:
    """Field objects materialised during solving, in creation-id order."""
    fields = [
        [obj.id, obj.base.id, obj.offset]
        for obj in module.objects
        if obj.is_field()
    ]
    fields.sort(key=lambda triple: triple[0])
    return fields


def replay_fields(module: Module, fields: List[List[int]]) -> None:
    """Re-materialise :func:`snapshot_fields` output on a fresh module."""
    for fid, base_id, offset in fields:
        if base_id < 0 or base_id >= len(module.objects):
            raise CheckpointError(
                f"field object {fid} refers to unknown base object {base_id}",
                reason="corrupt")
        fobj = module.field_object(module.objects[base_id], offset)
        if fobj.id != fid:
            raise CheckpointError(
                f"field-object replay diverged: expected id {fid}, got "
                f"{fobj.id} (module does not match the recorded program)",
                reason="ir-mismatch")


# ------------------------------------------------------------------ call edges

def snapshot_call_edges(callgraph: CallGraph) -> List[List[Union[int, str]]]:
    """Call edges as ``[call_inst_id, callee_name]`` pairs, sorted."""
    edges = [
        [call.id, callee.name]
        for call, callees in callgraph.callees.items()
        for callee in callees
    ]
    edges.sort(key=lambda pair: (pair[0], pair[1]))
    return edges


def call_sites_by_id(module: Module) -> Dict[int, Any]:
    """``inst.id -> CallInst`` index used when replaying stored call edges."""
    from repro.ir.instructions import CallInst

    return {inst.id: inst for inst in module.instructions()
            if isinstance(inst, CallInst)}


def resolve_call_edge(module: Module, sites: Dict[int, Any], inst_id: int,
                      callee_name: str) -> Tuple[Any, Any]:
    """Map one stored call edge back to ``(CallInst, Function)``."""
    inst = sites.get(inst_id)
    if inst is None:
        raise CheckpointError(
            f"call edge refers to instruction {inst_id}, which is not a "
            f"call in this module", reason="ir-mismatch")
    callee = module.functions.get(callee_name)
    if callee is None:
        raise CheckpointError(
            f"call edge refers to unknown function {callee_name!r}",
            reason="ir-mismatch")
    return inst, callee


def replay_call_edges(module: Module, callgraph: CallGraph,
                      edges: List[List[Union[int, str]]]) -> None:
    sites = call_sites_by_id(module)
    for inst_id, callee_name in edges:
        inst, callee = resolve_call_edge(module, sites, inst_id, callee_name)
        callgraph.add_edge(inst, callee)

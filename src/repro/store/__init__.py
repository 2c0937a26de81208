"""Content-addressed on-disk store for completed analysis results.

Keying is structural, never positional: an entry's name is
``sha256(ir_hash | analysis)`` where ``ir_hash`` is the
SHA-256 of the module's printed IR (:func:`ir_fingerprint`).  Asking for the
same program under the same solver therefore hits the cache; recompiling an *edited* program changes the IR hash and misses —
stale answers cannot be served.

Entries are sealed documents (:mod:`repro.store.atomic`): every read
re-verifies the checksum, the artifact kind, the schema version, and the
recorded IR hash and analysis.  Anything that fails verification is moved
to quarantine (``*.quarantined``) and reported as a typed
:class:`~repro.errors.CheckpointError` — the store never silently returns
damaged or mismatched data, and a damaged entry can never be loaded twice.

Only *complete, non-degraded* results are admitted by the stored solve
(:func:`repro.pipeline.solve_stored`): a degraded answer is sound but less
precise than what the key promises, and a partial fixpoint is not sound at
all.
"""

from __future__ import annotations

import os
from dataclasses import asdict
from typing import Any, Dict, List, Optional, Union

from repro.analysis.andersen import AndersenResult, AndersenStats
from repro.analysis.callgraph import CallGraph
from repro.errors import CheckpointError
from repro.ir.fingerprint import FINGERPRINT_SCHEME
from repro.ir.module import Module
from repro.solvers.base import FlowSensitiveResult, SolverStats
from repro.store.atomic import (
    atomic_write_json,
    atomic_write_text,
    dec_mask_list,
    enc_mask_list,
    quarantine_file,
    read_sealed_json,
    write_sealed_json,
)
from repro.store.codec import (
    ir_fingerprint,
    replay_call_edges,
    replay_fields,
    result_key,
    snapshot_call_edges,
    snapshot_fields,
)

__all__ = [
    "ResultStore",
    "STORE_SCHEMA",
    "decode_result",
    "encode_result",
    "atomic_write_json",
    "atomic_write_text",
    "ir_fingerprint",
    "result_key",
]

#: Bumped whenever the stored-result payload layout changes.
#: 2: ``ir_hash`` keys derive from the per-function fingerprint scheme
#: (:data:`repro.ir.fingerprint.FINGERPRINT_SCHEME`); entries carry
#: ``fp_scheme`` so stale pre-refactor entries quarantine instead of
#: silently (mis)matching.
#: 3: the key and the manifest drop ``delta`` (one eager kernel).
#: 4: the key and the manifest drop ``ptrepo`` (one storage path), and
#: the stored ``SolverStats`` lose the union-cache and interner fields.
STORE_SCHEMA = 4


# -------------------------------------------------------------- result codecs

def encode_result(result: Union[FlowSensitiveResult, AndersenResult]) -> Dict[str, Any]:
    if isinstance(result, FlowSensitiveResult):
        return {
            "result_type": "flow-sensitive",
            "pt": enc_mask_list(result._pt),
            "call_edges": snapshot_call_edges(result.callgraph),
            "fields": snapshot_fields(result.module),
            "stats": asdict(result.stats),
            "precision_level": result.precision_level,
            "degraded_from": result.degraded_from,
        }
    if isinstance(result, AndersenResult):
        return {
            "result_type": "andersen",
            "var_pts": enc_mask_list(result._var_pts),
            "obj_pts": enc_mask_list(result._obj_pts),
            "call_edges": snapshot_call_edges(result.callgraph),
            "fields": snapshot_fields(result.module),
            "stats": asdict(result.stats),
        }
    raise CheckpointError(
        f"cannot store result of type {type(result).__name__}",
        reason="kind")


def decode_result(module: Module, payload: Dict[str, Any]
                   ) -> Union[FlowSensitiveResult, AndersenResult]:
    result_type = payload["result_type"]
    replay_fields(module, payload["fields"])
    callgraph = CallGraph(module)
    replay_call_edges(module, callgraph, payload["call_edges"])
    if result_type == "flow-sensitive":
        stats = SolverStats(**payload["stats"])
        return FlowSensitiveResult(
            module, dec_mask_list(payload["pt"]), callgraph, stats,
            precision_level=payload.get("precision_level"),
            degraded_from=payload.get("degraded_from"))
    if result_type == "andersen":
        stats = AndersenStats(**payload["stats"])
        return AndersenResult(
            module, dec_mask_list(payload["var_pts"]),
            dec_mask_list(payload["obj_pts"]), callgraph, stats)
    raise CheckpointError(
        f"unknown stored result type {result_type!r}", reason="corrupt")


# -------------------------------------------------------------------- the store

class ResultStore:
    """Directory of sealed result entries, addressed by :func:`result_key`."""

    KIND = "result"

    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.quarantined: List[str] = []
        self.last_path: Optional[str] = None  # entry behind the last hit/put

    def entry_path(self, key: str) -> str:
        return os.path.join(self.directory, f"result-{key}.json")

    # ---------------------------------------------------------------- writing

    def put(self, module: Module, analysis: str,
            result: Union[FlowSensitiveResult, AndersenResult],
            ir_hash: Optional[str] = None, faults: Any = None) -> str:
        """Persist *result* under its content key; returns the entry path.

        *faults* is an optional :class:`~repro.runtime.faults.FaultPlan`;
        the ``result_store_put`` point fires before the write.  The
        stored solve passes its plan, so chaos schedules prove that a
        failed put is retried and then skipped (the answer is already
        computed — losing the cache entry may never lose the run).
        """
        if faults is not None:
            faults.fire("result_store_put", stage=f"store:{analysis}")
        ir_hash = ir_hash or ir_fingerprint(module)
        key = result_key(ir_hash, analysis)
        path = self.entry_path(key)
        meta = {
            "ir_hash": ir_hash,
            "fp_scheme": FINGERPRINT_SCHEME,
            "analysis": analysis,
        }
        write_sealed_json(path, self.KIND, STORE_SCHEMA, meta,
                          encode_result(result))
        self.last_path = path
        return path

    # ---------------------------------------------------------------- reading

    def get(self, module: Module, analysis: str,
            ir_hash: Optional[str] = None
            ) -> Optional[Union[FlowSensitiveResult, AndersenResult]]:
        """Load the entry for this analysis, fully verified.

        Returns ``None`` on a clean miss.  A present-but-untrustworthy
        entry (corrupt bytes, bad checksum, recorded for a different
        program or analysis, undecodable payload) is quarantined and
        reported as :class:`CheckpointError`.
        """
        ir_hash = ir_hash or ir_fingerprint(module)
        key = result_key(ir_hash, analysis)
        path = self.entry_path(key)
        if not os.path.exists(path):
            self.misses += 1
            return None
        try:
            meta, payload = read_sealed_json(path, self.KIND, STORE_SCHEMA)
            if meta.get("fp_scheme") != FINGERPRINT_SCHEME:
                raise CheckpointError(
                    f"entry was recorded under fingerprint scheme "
                    f"{meta.get('fp_scheme')!r}, not {FINGERPRINT_SCHEME} — "
                    f"stale pre-refactor entry", reason="schema", path=path)
            if meta.get("ir_hash") != ir_hash:
                raise CheckpointError(
                    "entry was recorded for a different program "
                    f"(IR hash {meta.get('ir_hash')!r})",
                    reason="ir-mismatch", path=path)
            if meta.get("analysis") != analysis:
                raise CheckpointError(
                    "entry was recorded for a different solver "
                    f"({meta.get('analysis')})",
                    reason="config-mismatch", path=path)
            try:
                result = decode_result(module, payload)
            except CheckpointError:
                raise
            except (KeyError, ValueError, TypeError, IndexError,
                    AttributeError) as err:
                raise CheckpointError(
                    f"stored payload does not decode cleanly: "
                    f"{type(err).__name__}: {err}",
                    reason="corrupt", path=path) from err
        except CheckpointError as err:
            quarantined = quarantine_file(path)
            self.quarantined.append(quarantined)
            err.path = quarantined
            raise
        self.hits += 1
        self.last_path = path
        return result

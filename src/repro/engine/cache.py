"""Content-addressed on-disk cache for intermediate stage artifacts.

Each entry is a sealed JSON document (:mod:`repro.store.atomic`) keyed
the way result-store entries and checkpoints are,
``result_key(ir_hash, stage)``, so an edited program can never be served
a stale artifact.  One storage mode, ``codec``: the artifact
round-trips through an explicit encoder (Andersen results reuse the
:mod:`repro.store` result codec), and a hit skips the stage entirely.
Andersen is the only stage cached; the rest of the substrate is rebuilt
from it on every run.

Anything that fails verification is quarantined (``*.quarantined``) and
raised as a typed :class:`~repro.errors.CheckpointError` — mirroring the
result store, the cache never silently returns damaged data and a bad
entry can never be loaded twice.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, List, Tuple

from repro.errors import CheckpointError
from repro.ir.fingerprint import FINGERPRINT_SCHEME
from repro.store.atomic import quarantine_file, read_sealed_json, write_sealed_json
from repro.store.codec import result_key

#: Bumped whenever the stage-entry payload layout changes.
#: 2: fingerprints derive from the per-function fingerprint scheme
#: (:data:`repro.ir.fingerprint.FINGERPRINT_SCHEME`); entries carry
#: ``fp_scheme`` so stale pre-refactor entries quarantine instead of
#: silently (mis)matching.
#: 3: entries are keyed ``result_key(ir_hash, stage)`` and record the IR
#: hash, not a per-stage fingerprint chain.
STAGE_CACHE_SCHEMA = 3


@dataclass
class CacheProbe:
    """Outcome of one cache lookup."""

    mode: str  # "miss" | "codec"
    artifact: Any = None  # decoded artifact (hits only)
    nbytes: int = 0


class StageCache:
    """Directory of sealed per-stage artifact entries."""

    KIND = "stage-artifact"

    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.quarantined: List[str] = []

    def entry_path(self, stage_name: str, ir_hash: str) -> str:
        key = result_key(ir_hash, stage_name)
        return os.path.join(self.directory,
                            f"stage-{stage_name}-{key[:40]}.json")

    # ---------------------------------------------------------------- reading

    def lookup(self, stage: Any, ctx: Any, ir_hash: str) -> CacheProbe:
        """Probe for *stage*'s entry for the program *ir_hash* names,
        fully verified.

        Returns a ``miss`` probe when absent.  A present-but-untrustworthy
        entry (bad checksum, wrong stage/program/mode, undecodable
        payload) is quarantined and raised as :class:`CheckpointError`.
        """
        path = self.entry_path(stage.name, ir_hash)
        if not os.path.exists(path):
            self.misses += 1
            return CacheProbe("miss")
        try:
            meta, payload = read_sealed_json(path, self.KIND,
                                             STAGE_CACHE_SCHEMA)
            if meta.get("fp_scheme") != FINGERPRINT_SCHEME:
                raise CheckpointError(
                    f"entry was recorded under fingerprint scheme "
                    f"{meta.get('fp_scheme')!r}, not {FINGERPRINT_SCHEME} — "
                    f"stale pre-refactor entry", reason="schema", path=path)
            if (meta.get("stage") != stage.name
                    or meta.get("ir_hash") != ir_hash):
                raise CheckpointError(
                    "entry was recorded for a different stage/program "
                    f"({meta.get('stage')!r}, {meta.get('ir_hash')!r})",
                    reason="config-mismatch", path=path)
            if meta.get("mode") != stage.cache_mode:
                raise CheckpointError(
                    f"entry mode {meta.get('mode')!r} does not match the "
                    f"stage's cache mode {stage.cache_mode!r}",
                    reason="config-mismatch", path=path)
            try:
                nbytes = os.path.getsize(path)
            except OSError as err:
                raise CheckpointError(
                    f"entry vanished mid-lookup: {err}", reason="missing",
                    path=path) from err
            try:
                artifact = stage.decode(ctx, payload)
            except CheckpointError:
                raise
            except (KeyError, ValueError, TypeError, IndexError,
                    AttributeError) as err:
                raise CheckpointError(
                    f"cached stage artifact does not decode cleanly: "
                    f"{type(err).__name__}: {err}",
                    reason="corrupt", path=path) from err
            self.hits += 1
            return CacheProbe("codec", artifact=artifact, nbytes=nbytes)
        except CheckpointError as err:
            quarantined = quarantine_file(path)
            self.quarantined.append(quarantined)
            err.path = quarantined
            raise

    # ---------------------------------------------------------------- writing

    def store(self, stage: Any, ir_hash: str,
              artifact: Any) -> Tuple[str, int]:
        """Persist *artifact* atomically; returns ``(path, bytes_on_disk)``."""
        path = self.entry_path(stage.name, ir_hash)
        meta = {
            "stage": stage.name,
            "ir_hash": ir_hash,
            "fp_scheme": FINGERPRINT_SCHEME,
            "mode": stage.cache_mode,
        }
        write_sealed_json(path, self.KIND, STAGE_CACHE_SCHEMA, meta,
                          stage.encode(artifact))
        return path, os.path.getsize(path)

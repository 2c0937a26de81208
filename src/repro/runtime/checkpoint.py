"""Crash-safe checkpointing of in-flight solver state.

A checkpoint is a sealed JSON document (:mod:`repro.store.atomic`) holding
everything a solver needs to continue a fixpoint from the middle: the
top-level points-to array, the solver's memory representation (IN/OUT maps
for SFS/ICFG, the global ``(object, version)`` table plus meld/version
tables for VSFS, the constraint-graph arrays for Andersen), the worklist
*in queue order*, the on-the-fly call-graph edges, and the field objects
materialised during the solve.

Restartability is sound because every solver is a *monotone* fixpoint
computation: the checkpoint captures a valid intermediate lattice point,
and continuing from it can only converge to the same (unique) least
fixpoint an uninterrupted run reaches — the resume tests assert the
stronger property that results are **bit-identical**.

The manifest (the sealed document's ``meta``) records the schema version,
the IR content hash and the analysis; loading verifies all three so a
checkpoint from an edited program or another solver is rejected with a
typed :class:`~repro.errors.CheckpointError` instead of corrupting a run.
Checkpoint files are written atomically, so a crash *during* a save leaves
the previous checkpoint intact.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.errors import CheckpointError, InjectedFault
from repro.ir.fingerprint import FINGERPRINT_SCHEME
from repro.runtime.resilience import IO_RETRY
from repro.store.atomic import quarantine_file, read_sealed_json, write_sealed_json
from repro.store.codec import result_key

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CheckpointConfig",
    "Checkpointer",
    "checkpoint_path",
    "find_checkpoint",
    "load_checkpoint",
]

#: Bumped whenever any solver's snapshot payload layout changes.
#: 2: keys derive from the per-function fingerprint scheme
#: (:data:`repro.ir.fingerprint.FINGERPRINT_SCHEME`); manifests carry
#: ``fp_scheme`` so pre-refactor checkpoints are rejected, not resumed.
#: 3: one eager kernel — the worklist snapshot is the plain FIFO queue
#: (no ``full``/``dirty`` annotations) and the key drops ``delta``.
#: 4: VSFS versioning merges version-constraint cycles and stores its
#: tables sparsely, so a stored VSFS versioning means other versions.
#: 5: one storage path — the memory section lists each distinct mask once
#: (``masks``) and entries index it; versioning constraints keep their
#: first-seen order; the manifest and the key drop ``ptrepo``.
CHECKPOINT_SCHEMA = 5

#: Artifact kind tag inside the sealed envelope.
CHECKPOINT_KIND = "checkpoint"


@dataclass
class CheckpointConfig:
    """Where and how often to checkpoint.

    ``every_steps`` counts solver worklist pops between saves;
    ``every_seconds`` is a wall-clock cadence.  Either (or both) may be
    active; a save also always happens when a budget trips, regardless of
    cadence, so a supervisor can resume from the exact interruption point.
    """

    directory: str
    every_steps: Optional[int] = 1000
    every_seconds: Optional[float] = None


def checkpoint_path(directory: str, ir_hash: str, analysis: str) -> str:
    """Deterministic checkpoint file name for one (program, analysis) pair.

    Content-keyed like the result store, so resume discovery is a pure
    function of what is being solved — no run ids to thread through.
    """
    key = result_key(ir_hash, analysis)[:16]
    return os.path.join(directory, f"ckpt-{analysis}-{key}.json")


class Checkpointer:
    """Writes one solver's checkpoints on a cadence and on demand.

    One instance per ladder rung: each analysis owns its own file, so a degraded run's precise-rung checkpoint survives for a later
    retry with a larger budget.
    """

    def __init__(self, config: CheckpointConfig, ir_hash: str, analysis: str,
                 faults: Any = None, bus: Any = None):
        self.config = config
        self.ir_hash = ir_hash
        self.analysis = analysis
        self.path = checkpoint_path(config.directory, ir_hash, analysis)
        #: FaultPlan whose ``checkpoint_write`` point fires inside save().
        self.faults = faults
        #: EventBus receiving ``self_heal`` events for absorbed failures.
        self.bus = bus
        self.saves = 0
        #: Saves abandoned after the retry budget was spent (the solve
        #: continued; the previous checkpoint on disk stays valid).
        self.skipped = 0
        self.total_time = 0.0
        self._last_step = 0
        self._last_wall = time.monotonic()

    def mark_resumed(self, step: int) -> None:
        """Reset the cadence origin after a resume (no immediate re-save)."""
        self._last_step = step
        self._last_wall = time.monotonic()

    def maybe(self, solver: Any, step: int) -> Optional[str]:
        """Save if a cadence elapsed; cheap enough for the solver hot loop."""
        every_steps = self.config.every_steps
        if every_steps is not None and step - self._last_step >= every_steps:
            return self.save(solver, step)
        every_seconds = self.config.every_seconds
        if (every_seconds is not None
                and time.monotonic() - self._last_wall >= every_seconds):
            return self.save(solver, step)
        return None

    def save(self, solver: Any, step: int,
             reason: str = "cadence") -> Optional[str]:
        """Snapshot *solver* and seal it to disk; returns the file path.

        Writes are atomic (a crash mid-save leaves the previous file
        intact), and transient failures — ``OSError`` or an injected
        ``checkpoint_write`` fault — are retried under
        :data:`~repro.runtime.resilience.IO_RETRY`.  A save whose
        retry budget is spent is *skipped*, not fatal: the solve goes on
        and the previous checkpoint stays the resume point.  Returns
        ``None`` for a skipped save.
        """
        begun = time.perf_counter()
        meta = {
            "ir_hash": self.ir_hash,
            "fp_scheme": FINGERPRINT_SCHEME,
            "analysis": self.analysis,
            "step": step,
            "reason": reason,
        }
        state = solver.snapshot_state()

        def attempt() -> None:
            if self.faults is not None:
                self.faults.fire("checkpoint_write", stage=self.analysis)
            os.makedirs(self.config.directory, exist_ok=True)
            write_sealed_json(self.path, CHECKPOINT_KIND, CHECKPOINT_SCHEMA,
                              meta, state)

        def on_retry(attempt_no: int, exc: BaseException) -> None:
            if self.bus is not None:
                from repro.engine.events import heal_event

                self.bus.emit(heal_event(
                    f"solve:{self.analysis}", "io", "retry",
                    point="checkpoint_write", attempt=attempt_no,
                    error=type(exc).__name__))

        try:
            IO_RETRY.run(attempt, retry_on=(OSError, InjectedFault),
                         on_retry=on_retry)
        except (OSError, InjectedFault) as exc:
            self.skipped += 1
            self._last_step = step
            self._last_wall = time.monotonic()
            if self.bus is not None:
                from repro.engine.events import heal_event

                self.bus.emit(heal_event(
                    f"solve:{self.analysis}", "io", "skip-write",
                    point="checkpoint_write", error=type(exc).__name__,
                    step=step))
            return None
        self.saves += 1
        self.total_time += time.perf_counter() - begun
        self._last_step = step
        self._last_wall = time.monotonic()
        return self.path

    def discard(self) -> None:
        """Remove the checkpoint (the run it belonged to completed)."""
        try:
            os.unlink(self.path)
        except OSError:
            pass


def load_checkpoint(path: str, ir_hash: Optional[str] = None,
                    analysis: Optional[str] = None
                    ) -> Tuple[Dict[str, Any], Any]:
    """Read + verify one checkpoint; returns ``(meta, payload)``.

    Beyond the envelope checks (checksum, kind, schema), any expectation
    passed as a keyword is matched against the manifest: a checkpoint
    recorded for a different program raises ``reason="ir-mismatch"``, one
    for a different solver ``reason="config-mismatch"``.  Corrupt files
    are quarantined so a supervisor's next retry starts fresh instead of
    tripping again.
    """
    try:
        meta, payload = read_sealed_json(path, CHECKPOINT_KIND,
                                         CHECKPOINT_SCHEMA)
    except CheckpointError as err:
        if err.reason != "missing" and os.path.exists(path):
            err.path = quarantine_file(path)
        raise
    if meta.get("fp_scheme") != FINGERPRINT_SCHEME:
        # Unlike a config mismatch (valid for some other run), a scheme
        # mismatch can never become loadable again — quarantine it.
        raise CheckpointError(
            f"checkpoint was recorded under fingerprint scheme "
            f"{meta.get('fp_scheme')!r}, not {FINGERPRINT_SCHEME} — stale "
            f"pre-refactor state cannot be resumed", reason="schema",
            path=quarantine_file(path))
    if ir_hash is not None and meta.get("ir_hash") != ir_hash:
        raise CheckpointError(
            f"checkpoint was recorded for a different program "
            f"(IR hash {meta.get('ir_hash')!r})",
            reason="ir-mismatch", path=path)
    if analysis is not None and meta.get("analysis") != analysis:
        raise CheckpointError(
            f"checkpoint was recorded for analysis {meta.get('analysis')!r}, "
            f"not {analysis!r}", reason="config-mismatch", path=path)
    if not isinstance(meta.get("step"), int) or meta["step"] < 0:
        raise CheckpointError("checkpoint manifest lacks a valid step",
                              reason="corrupt", path=path)
    return meta, payload


def find_checkpoint(directory: str, ir_hash: str,
                    analysis: str) -> Optional[str]:
    """Path of the checkpoint for this (program, analysis), if one exists."""
    path = checkpoint_path(directory, ir_hash, analysis)
    return path if os.path.exists(path) else None

"""Worker plumbing: one sharded SFS solver per worker, forked or inline.

The worker side is one small state machine (:class:`WorkerSession`):
apply the round's incoming frontier batches, drain the owned region to
local quiescence, encode the outbox, and — on request — seal the state
for kill-and-resume or finalize the shard's result.

Two transports run it:

- :class:`ForkedWorker` — a ``fork``-started child process driving the
  session over a :class:`multiprocessing` pipe.  Fork start passes the
  (large, shared) SVFG and partition to the child by copy-on-write
  inheritance; nothing heavyweight is ever pickled except the frontier
  batches themselves, which are small by design.
- :class:`InlineWorker` — the same session in-process, used where fork
  is unavailable and by tests that want single-process determinism.

Both expose the same request/reply surface to the driver, so the round
loop is transport-agnostic.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import BudgetExceeded, InjectedFault
from repro.parallel.frontier import FrontierBatch, FrontierEncoder, PeerMirrors
from repro.parallel.partition import Partition
from repro.parallel.shard import ShardedSFS
from repro.store.codec import snapshot_call_edges


class _Hung:
    """Sentinel reply: the worker missed its heartbeat (still alive as far
    as the pipe knows, but not answering) — distinct from ``None`` (dead)."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<HUNG>"


#: Returned by ``reply(timeout=...)`` when the deadline passed without an
#: answer; the driver's watchdog treats it as a hung worker.
HUNG = _Hung()


@dataclass
class WorkerSpec:
    """Everything needed to (re)build one worker's solver.

    Under fork start the heavyweight references (``svfg``,
    ``partition``) reach the child by memory inheritance; no solver
    mutates them, so inline workers are just as isolated.
    """

    worker_id: int
    svfg: Any
    partition: Partition
    budget: Any = None
    faults: Any = None
    #: Bumped on every revival of this worker slot (see FrontierBatch).
    incarnation: int = 0
    #: Watchdog test hook (fork transport only): after completing this
    #: many rounds, the *first* incarnation stops answering instead of
    #: sending its round reply — the driver's heartbeat timeout must
    #: detect the hang and kill-and-revive.  Revived incarnations answer
    #: normally, so the run completes.
    hang_after_round: Optional[int] = None
    #: Seal payload to restore from (None = fresh start).
    restore: Optional[Dict[str, Any]] = None


def build_sharded_solver(spec: WorkerSpec) -> ShardedSFS:
    """Construct the shard-local solver for *spec* (fresh, unrestored)."""
    return ShardedSFS(
        spec.svfg, spec.partition, spec.worker_id,
        meter=spec.budget.meter() if spec.budget is not None else None,
        faults=spec.faults)


class WorkerSession:
    """The worker-side state machine (transport-independent)."""

    def __init__(self, spec: WorkerSpec):
        self.spec = spec
        self.solver = build_sharded_solver(spec)
        self.encoder = FrontierEncoder(spec.worker_id, spec.incarnation)
        self.mirrors = PeerMirrors()
        self.round_no = 0
        if spec.restore is not None:
            self._restore(spec.restore)
        else:
            self.solver.prepare_round_zero()

    def _restore(self, payload: Dict[str, Any]) -> None:
        """Rebuild from a round seal.

        The encoder deliberately stays fresh (the incarnation bump told
        the peers to reset their mirrors): the dead predecessor's
        post-seal interning order is unknowable, so continuing its wire
        table could make mirror positions lie.  Everything the restored
        state has not yet exported (``_export_sent`` / table contents are
        part of the seal) will be re-encoded and re-sent; peers' joins
        are idempotent.
        """
        solver = self.solver
        solver.restore_state(payload["solver"], int(payload["step"]))
        solver.restore_shard_extra(payload.get("shard", {}))
        solver.after_restore()
        self.mirrors.restore(payload["mirrors"])
        solver.stats.solve_time = float(payload.get("solve_time", 0.0))
        self.round_no = int(payload.get("round", 0))

    # ------------------------------------------------------------- protocol

    def run_round(self, batches: List[FrontierBatch]
                  ) -> Tuple[FrontierBatch, Dict[str, Any]]:
        solver = self.solver
        solver.apply_frontier(batches, self.mirrors)
        pops = solver.solve_round()
        var_deltas, mem_deltas, calls = solver.collect_outbox()
        batch = self.encoder.encode(self.round_no, var_deltas, mem_deltas,
                                    calls)
        info = {
            "pops": pops,
            "total_pops": solver.stats.nodes_processed,
            "solve_s": solver.stats.solve_time,
        }
        self.round_no += 1
        return batch, info

    def seal(self) -> Dict[str, Any]:
        """Snapshot for kill-and-resume (taken at a round boundary, so
        the worklist inside ``snapshot_state`` is the quiescent one)."""
        solver = self.solver
        return {
            "solver": solver.snapshot_state(),
            "step": solver.stats.nodes_processed,
            "shard": solver.shard_seal_extra(),
            "mirrors": self.mirrors.seal(),
            "solve_time": solver.stats.solve_time,
            "round": self.round_no,
        }

    def finish(self) -> Dict[str, Any]:
        """Final shard result: top-level table, call edges, stats, and
        the distinct stored masks (for the driver's global dedup count)."""
        solver = self.solver
        solver.finalize()
        masks = set(solver.stored_masks())
        return {
            "pt": [format(mask, "x") for mask in solver.pt],
            "call_edges": snapshot_call_edges(solver.callgraph),
            "stats": asdict(solver.stats),
            "unique_masks": [format(mask, "x") for mask in sorted(masks)],
        }


def _failure_reply(exc: BaseException) -> Tuple[str, Dict[str, Any]]:
    if isinstance(exc, BudgetExceeded):
        return ("budget", {
            "message": str(exc), "resource": exc.resource,
            "limit": exc.limit, "used": exc.used,
        })
    if isinstance(exc, InjectedFault):
        return ("fault", {
            "point": exc.point, "stage": exc.stage, "hit": exc.hit,
        })
    return ("error", {"message": f"{type(exc).__name__}: {exc}"})


def raise_failure(kind: str, info: Dict[str, Any], *,
                  stage: str = "") -> None:
    """Re-raise a worker's failure reply as its typed exception."""
    if kind == "budget":
        exc = BudgetExceeded(info["message"], resource=info["resource"],
                             limit=info["limit"], used=info["used"])
        if stage:
            exc.attach(stage=stage)
        raise exc
    if kind == "fault":
        raise InjectedFault(point=info["point"], stage=info["stage"],
                            hit=info["hit"])
    from repro.errors import SolverError

    raise SolverError(f"parallel worker failed: {info['message']}")


def _child_main(conn, spec: WorkerSpec) -> None:
    """Forked child entry point: serve the session over the pipe."""
    try:
        session = WorkerSession(spec)
    except BaseException as exc:  # noqa: BLE001 - must cross the pipe
        conn.send(_failure_reply(exc))
        conn.close()
        return
    while True:
        try:
            msg = conn.recv()
        except EOFError:
            return  # driver went away
        cmd = msg[0]
        if cmd == "stop":
            conn.close()
            return
        try:
            if cmd == "round":
                batch, info = session.run_round(msg[1])
                if (spec.hang_after_round is not None
                        and spec.incarnation == 0
                        and session.round_no > spec.hang_after_round):
                    # Simulate a hung worker: the round's work happened
                    # but the reply never comes.  Sleep rather than spin
                    # until the driver's watchdog kills this process.
                    time.sleep(3600)
                conn.send(("ok", batch, info))
            elif cmd == "seal":
                conn.send(("seal", session.seal()))
            elif cmd == "finish":
                conn.send(("result", session.finish()))
            else:
                conn.send(("error",
                           {"message": f"unknown command {cmd!r}"}))
        except BaseException as exc:  # noqa: BLE001 - must cross the pipe
            conn.send(_failure_reply(exc))


class ForkedWorker:
    """Parent-side handle over a fork-started worker process."""

    mode = "fork"

    def __init__(self, spec: WorkerSpec, mp_context):
        self.spec = spec
        self.worker_id = spec.worker_id
        parent_conn, child_conn = mp_context.Pipe()
        self.conn = parent_conn
        self.process = mp_context.Process(
            target=_child_main, args=(child_conn, spec), daemon=True)
        self.process.start()
        child_conn.close()

    def request(self, msg: Tuple) -> None:
        try:
            self.conn.send(msg)
        except (BrokenPipeError, OSError):
            # The child is gone; the next reply() returns None and the
            # driver's watchdog takes it from there.
            pass

    def reply(self, timeout: Optional[float] = None) -> Any:
        """The next reply; ``None`` if the worker died, :data:`HUNG` if
        *timeout* seconds passed without one (straggler/kill revival is
        the driver's call)."""
        try:
            if timeout is not None and not self.conn.poll(timeout):
                return HUNG
            return self.conn.recv()
        except (EOFError, OSError):
            return None

    def kill(self) -> None:
        """Hard-kill the worker (fault injection / straggler removal)."""
        if self.process.is_alive():
            self.process.kill()
        self.process.join()
        self.conn.close()

    def stop(self) -> None:
        try:
            self.conn.send(("stop",))
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout=5)
        if self.process.is_alive():
            self.process.kill()
            self.process.join()
        self.conn.close()


class InlineWorker:
    """The same protocol, served in-process (fork-free fallback and the
    deterministic single-process mode the tests lean on)."""

    mode = "inline"

    def __init__(self, spec: WorkerSpec):
        self.spec = spec
        self.worker_id = spec.worker_id
        self._reply: Optional[Tuple] = None
        self._dead = False
        try:
            self.session: Optional[WorkerSession] = WorkerSession(spec)
        except BaseException as exc:  # noqa: BLE001 - surfaced on first reply
            self.session = None
            self._reply = _failure_reply(exc)

    def request(self, msg: Tuple) -> None:
        if self._reply is not None or self._dead:
            return  # construction failure pending, or killed
        try:
            cmd = msg[0]
            if cmd == "round":
                batch, info = self.session.run_round(msg[1])
                self._reply = ("ok", batch, info)
            elif cmd == "seal":
                self._reply = ("seal", self.session.seal())
            elif cmd == "finish":
                self._reply = ("result", self.session.finish())
            elif cmd == "stop":
                self._reply = None
            else:
                self._reply = ("error",
                               {"message": f"unknown command {msg[0]!r}"})
        except BaseException as exc:  # noqa: BLE001 - mirror the pipe path
            self._reply = _failure_reply(exc)

    def reply(self, timeout: Optional[float] = None) -> Any:
        # An in-process worker cannot hang independently of the driver,
        # so *timeout* is accepted for protocol parity and ignored.
        if self._dead:
            return None
        reply, self._reply = self._reply, None
        return reply

    def kill(self) -> None:
        self._dead = True
        self.session = None
        self._reply = None

    def stop(self) -> None:
        self.session = None

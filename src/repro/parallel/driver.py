"""The parallel driver: staged rounds of sharded solving to one fixpoint.

The driver owns the round loop.  Each round it delivers the frontier
batches queued for every *active* worker, lets each drain its owned
region to local quiescence, and routes the resulting outboxes to the
other workers' queues; the solve is globally done when every worker is
active, every queue is empty, and the last round produced no output.

Workers are **activated in topological stagger**: worker ``w`` (owning
the ``w``-th contiguous topological segment of the SCC condensation)
first runs in round ``w``.  Cross-worker value flow is predominantly
forward (the partition orders workers along the condensation), so by
the time a downstream worker first drains, its upstream inputs are at —
or near — their final values and it processes them once instead of
re-propagating every partial result.  That work reduction, not raw
concurrency, is what makes the staged sweep faster than a serial solve
even on a single core; on many cores the fork workers overlap on top of
it.  Correctness never depends on the stagger: SFS is confluent
(DESIGN.md §10), so any delivery order reaches the identical least
fixpoint, bit for bit.

Straggler handling: the driver can seal each worker's state at round
boundaries (``seal_every``); if a worker dies — or is killed by the
``kill_after_round`` fault hook — it is revived from its last seal (or
from scratch) with every batch delivered since then re-delivered.
Re-application is idempotent (joins are monotone) and the revived
worker's fresh wire repo is announced by an incarnation bump, so peers
reset their mirrors instead of resolving against a dead table.

Each worker stores its points-to sets as hash-consed masks; only the
frontier's wire repos cross worker boundaries.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional

from repro.analysis.callgraph import CallGraph
from repro.datastructs.bitset import count_bits
from repro.errors import AnalysisError, InjectedFault, SolverError, WorkerCrash
from repro.parallel.partition import Partition, partition_svfg
from repro.parallel.worker import (
    HUNG,
    ForkedWorker,
    InlineWorker,
    WorkerSpec,
    raise_failure,
)
from repro.runtime.resilience import (
    DEFAULT_HEARTBEAT_SECONDS,
    DEFAULT_WORKER_FAILURE_BUDGET,
)
from repro.solvers.base import FlowSensitiveResult, SolverStats
from repro.store.codec import call_sites_by_id, resolve_call_edge


@dataclass
class ParallelStats:
    """What the parallel run did, for reports and bench JSON."""

    jobs: int
    mode: str  # "fork" or "inline"
    shards: int
    components: int
    rounds: int = 0
    revivals: int = 0
    #: Watchdog accounting: incidents charged against worker failure
    #: budgets (deaths, hangs, lost frontier exchanges, failed spawns)
    #: and how many of those were heartbeat timeouts specifically.
    worker_failures: int = 0
    heartbeat_timeouts: int = 0
    frontier_batches: int = 0
    frontier_entries: int = 0
    frontier_table_rows: int = 0
    wall_s: float = 0.0
    #: Per-worker summary: owned nodes, pops, solve seconds, incarnation.
    workers: List[Dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "jobs": self.jobs,
            "mode": self.mode,
            "shards": self.shards,
            "components": self.components,
            "rounds": self.rounds,
            "revivals": self.revivals,
            "worker_failures": self.worker_failures,
            "heartbeat_timeouts": self.heartbeat_timeouts,
            "frontier_batches": self.frontier_batches,
            "frontier_entries": self.frontier_entries,
            "frontier_table_rows": self.frontier_table_rows,
            "wall_s": round(self.wall_s, 6),
            "workers": self.workers,
        }


def fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def _make_worker(spec: WorkerSpec, mode: str, mp_ctx):
    if mode == "fork":
        return ForkedWorker(spec, mp_ctx)
    return InlineWorker(spec)


def solve_parallel(svfg, level: str = "sfs", jobs: int = 2, *,
                   budget=None, faults=None,
                   shards_per_worker: int = 4, mode: Optional[str] = None,
                   seal_every: int = 0, kill_after_round: Optional[int] = None,
                   kill_worker: int = 0,
                   heartbeat_seconds: Optional[float] = None,
                   max_worker_failures: int = DEFAULT_WORKER_FAILURE_BUDGET,
                   hang_after_round: Optional[int] = None,
                   hang_worker: int = 0) -> FlowSensitiveResult:
    """Solve *svfg* at *level* (only "sfs" shards) on *jobs* workers.

    Returns a :class:`FlowSensitiveResult` bit-identical to the serial
    solver's, with a :class:`ParallelStats` attached as ``.parallel``.

    ``budget``/``faults`` are applied **per worker** (each worker runs
    its own meter over the same limits).  ``mode`` forces the transport
    ("fork"/"inline"; default auto).  ``seal_every`` is the round cadence
    of kill-and-resume seals (0 disables sealing; revival then replays
    from scratch).  ``kill_after_round`` hard-kills ``kill_worker`` once
    after that many completed rounds — the straggler-recovery fault hook
    the integration tests drive.

    **Watchdog** (DESIGN.md §12): the driver waits at most
    ``heartbeat_seconds`` for a forked worker's round reply (default
    :data:`~repro.runtime.resilience.DEFAULT_HEARTBEAT_SECONDS`; inline
    workers cannot hang independently, so no timeout applies).  A dead or
    hung worker — or one whose frontier exchange is lost, including via
    the injected ``worker_spawn``/``worker_heartbeat``/``frontier_send``/
    ``frontier_recv`` fault points of *faults* — is killed and revived
    from its last seal, and the incident is charged against that slot's
    failure budget (``max_worker_failures``).  A slot that spends its
    budget aborts the run with a typed
    :class:`~repro.errors.WorkerCrash`, which the degradation ladder
    collapses onto the bit-identical serial rung.  ``hang_after_round``/
    ``hang_worker`` is the watchdog's test hook: the named worker's first
    incarnation goes silent after that many rounds (fork only).
    """
    begun = time.perf_counter()
    if level != "sfs":
        raise AnalysisError(
            f"parallel solving supports only 'sfs', not {level!r}")
    partition = partition_svfg(svfg, jobs, shards_per_worker)
    jobs = partition.num_workers
    module = svfg.module

    if mode is None:
        # Fork buys true overlap only with >1 CPU; on a single core the
        # stagger's work reduction is the entire win and the in-process
        # transport avoids fork's copy-on-write page churn.
        multicore = (os.cpu_count() or 1) > 1
        mode = "fork" if fork_available() and multicore else "inline"
    mp_ctx = multiprocessing.get_context("fork") if mode == "fork" else None

    if heartbeat_seconds is None and mode == "fork":
        heartbeat_seconds = DEFAULT_HEARTBEAT_SECONDS
    if mode != "fork":
        heartbeat_seconds = None  # inline workers cannot hang independently

    specs = [
        WorkerSpec(worker_id=w, svfg=svfg, partition=partition,
                   budget=budget, faults=faults,
                   hang_after_round=(hang_after_round
                                     if w == hang_worker else None))
        for w in range(jobs)
    ]
    pending: List[List[Any]] = [[] for _ in range(jobs)]  # undelivered batches
    retained: List[List[Any]] = [[] for _ in range(jobs)]  # since last seal
    seals: List[Optional[Dict[str, Any]]] = [None] * jobs
    failures = [0] * jobs  # watchdog incidents charged per worker slot
    pstats = ParallelStats(jobs=jobs, mode=mode,
                           shards=len(partition.shards),
                           components=partition.num_components)
    workers: List[Any] = []

    def abort() -> None:
        for worker in workers:
            try:
                worker.kill()
            except Exception:  # noqa: BLE001 - best-effort teardown
                pass

    def fail(kind: str, info: Dict[str, Any]) -> None:
        abort()
        raise_failure(kind, info, stage=level)

    def charge(w: int, incident: str) -> None:
        """Charge one watchdog incident; WorkerCrash when the budget is
        spent (the ladder then collapses onto the serial rung)."""
        failures[w] += 1
        pstats.worker_failures += 1
        if failures[w] >= max_worker_failures:
            abort()
            raise WorkerCrash(
                f"parallel worker {w} spent its failure budget "
                f"({failures[w]}/{max_worker_failures}; last incident: "
                f"{incident}) — collapsing onto the serial ladder",
                worker=w, failures=failures[w], incident=incident)

    def spawn(w: int) -> Any:
        """Build worker *w*, respawning on injected spawn faults (each
        failed spawn is charged against the slot's budget)."""
        while True:
            try:
                if faults is not None:
                    faults.fire("worker_spawn", stage=level)
                return _make_worker(specs[w], mode, mp_ctx)
            except (InjectedFault, OSError):
                charge(w, "spawn")

    workers.extend(spawn(w) for w in range(jobs))

    def revive(w: int) -> None:
        specs[w] = replace(specs[w], incarnation=specs[w].incarnation + 1,
                           restore=seals[w])
        workers[w] = spawn(w)
        # Re-deliver everything the dead worker saw after its seal; the
        # joins are idempotent, and the mirrors inside the seal line up
        # with each batch's table watermarks.
        pending[w] = retained[w] + pending[w]
        retained[w] = []
        pstats.revivals += 1

    def await_reply(w: int, expect: str, dead: List[int],
                    incident_charged: bool = True) -> Optional[Any]:
        """Watchdog wait for worker *w*'s reply.

        Returns the reply payload tuple, or ``None`` after marking the
        worker dead/hung (killed; appended to *dead* for revival).  The
        ``worker_heartbeat`` and ``frontier_recv`` fault points fire
        here: a heartbeat fault makes the worker count as hung, a recv
        fault loses the (already received) reply.
        """
        hung = False
        if faults is not None:
            try:
                faults.fire("worker_heartbeat", stage=level)
            except InjectedFault:
                hung = True
        reply = HUNG if hung else workers[w].reply(timeout=heartbeat_seconds)
        if reply is HUNG:
            pstats.heartbeat_timeouts += 1
            workers[w].kill()
            dead.append(w)
            if incident_charged:
                charge(w, "hung")
            return None
        if reply is None:
            dead.append(w)
            if incident_charged:
                charge(w, "died")
            return None
        if faults is not None:
            try:
                faults.fire("frontier_recv", stage=level)
            except InjectedFault:
                # The reply is lost; the worker's post-round state is
                # unknowable, so treat the slot like a straggler.
                workers[w].kill()
                dead.append(w)
                charge(w, "frontier-recv")
                return None
        if reply[0] != expect:
            fail(reply[0], reply[1])
        return reply

    def deliver(w: int) -> bool:
        """Move worker *w*'s pending batches into its inbox and send the
        round request; False when the delivery was lost (worker killed,
        charged, left for revival)."""
        inbox, pending[w] = pending[w], []
        retained[w].extend(inbox)
        try:
            if faults is not None:
                faults.fire("frontier_send", stage=level)
        except InjectedFault:
            workers[w].kill()
            charge(w, "frontier-send")
            return False
        workers[w].request(("round", inbox))
        return True

    killed = False
    fresh: set = set()  # revived workers that must drain before we stop
    round_idx = 0
    while True:
        run_set = [w for w in range(jobs) if w <= round_idx]
        dead: List[int] = []
        sent: List[int] = []
        for w in run_set:
            if deliver(w):
                sent.append(w)
            else:
                dead.append(w)
        replies: Dict[int, Any] = {}
        for w in sent:
            reply = await_reply(w, "ok", dead)
            if reply is None:
                continue
            replies[w] = reply
            fresh.discard(w)
        pstats.rounds += 1

        for w, reply in replies.items():
            batch = reply[1]
            if batch.is_empty():
                continue
            pstats.frontier_batches += 1
            pstats.frontier_entries += batch.payload_entries()
            pstats.frontier_table_rows += len(batch.table)
            for peer in range(jobs):
                if peer != w:
                    pending[peer].append(batch)

        if seal_every and pstats.rounds % seal_every == 0:
            sealing = [w for w in replies if w not in dead]
            for w in sealing:
                workers[w].request(("seal",))
            for w in sealing:
                reply = await_reply(w, "seal", dead)
                if reply is None:
                    continue
                seals[w] = reply[1]
                retained[w] = []

        if (kill_after_round is not None and not killed
                and pstats.rounds >= kill_after_round):
            killed = True
            workers[kill_worker].kill()
            if kill_worker not in dead:
                dead.append(kill_worker)

        for w in sorted(set(dead)):
            revive(w)
            fresh.add(w)

        all_active = round_idx >= jobs - 1
        if all_active and not fresh and not any(pending):
            break
        round_idx += 1

    # ---------------------------------------------------------- finalize
    # A worker lost *here* is still recoverable: the global fixpoint is
    # already reached, so a revived incarnation replays its retained
    # batches to local quiescence — its outboxes are droppable (peers
    # incorporated the dead incarnation's sends before the loop ended) —
    # and then finalizes like any other worker.
    def finalize(w: int) -> Dict[str, Any]:
        while True:
            dead: List[int] = []
            reply = await_reply(w, "result", dead)
            if reply is not None:
                return reply[1]
            revive(w)
            quiesced = True
            while pending[w]:
                if not deliver(w):
                    quiesced = False
                    break
                if await_reply(w, "ok", dead) is None:
                    quiesced = False
                    break
            if not quiesced:
                revive(w)
                continue
            workers[w].request(("finish",))

    for worker in workers:
        worker.request(("finish",))
    payloads: List[Dict[str, Any]] = [finalize(w) for w in range(jobs)]
    for worker in workers:
        worker.stop()

    # ------------------------------------------------------------- merge
    # Var broadcasts make every worker converge on the same top-level
    # table, so the OR below is expected to be a no-op past worker 0 —
    # but OR is what the shard merge *means*, so compute it that way.
    pt = [0] * len(module.variables)
    for payload in payloads:
        for vid, text in enumerate(payload["pt"]):
            pt[vid] |= int(text, 16)

    # Deterministic global call graph: the union of the workers' edge
    # sets, replayed in sorted order (they converge to the same set; the
    # union is, again, what the merge means).
    edges = sorted({(inst_id, name)
                    for payload in payloads
                    for inst_id, name in payload["call_edges"]})
    callgraph = CallGraph(module)
    sites = call_sites_by_id(module)
    for inst_id, name in edges:
        call, callee = resolve_call_edge(module, sites, inst_id, name)
        callgraph.add_edge(call, callee)

    parts = [SolverStats(**payload["stats"]) for payload in payloads]
    stats = SolverStats.merge(parts)
    stats.analysis = level
    # One logical execution: revived workers' sealed pops were performed
    # by this run's dead incarnations, not by a previous run.
    stats.resumed_steps = 0
    stats.top_level_bits = sum(count_bits(mask) for mask in pt)
    stats.callgraph_edges = callgraph.num_edges()
    # Exact global dedup count over the union of the workers' stored sets
    # (merge() only sums per-worker uniques, an upper bound).
    unique = set()
    for payload in payloads:
        unique.update(int(text, 16) for text in payload["unique_masks"])
    stats.unique_ptsets = len(unique)
    stats.unique_ptset_bits = sum(count_bits(mask) for mask in unique)

    sizes = partition.worker_sizes()
    pstats.workers = [
        {
            "worker": w,
            "nodes": sizes[w],
            "pops": parts[w].nodes_processed,
            "solve_s": round(parts[w].solve_time, 6),
            "pre_s": round(parts[w].pre_time, 6),
            "incarnation": specs[w].incarnation,
        }
        for w in range(jobs)
    ]
    pstats.wall_s = time.perf_counter() - begun

    result = FlowSensitiveResult(module, pt, callgraph, stats)
    result.parallel = pstats
    return result

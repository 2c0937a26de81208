"""``repro-wpa chaos`` — seeded fault-injection soak harness.

Proves the platform-wide resilience contract (DESIGN.md §12) the way a
single targeted test cannot: for every configuration in ``{sfs, vsfs} ×
{serial, --jobs N}`` (only SFS shards, so VSFS is soaked serially) it
runs a fault-free baseline, then replays the
same analysis under a deterministic schedule of injected faults — one
seeded :class:`~repro.runtime.faults.FaultPlan` per run, cycling through
every fault point applicable to the configuration.  Each faulted run
must end in one of four **clean** outcomes:

- ``identical`` — the fault was absorbed (self-healed or retried) and
  the points-to result is bit-identical to the baseline;
- ``collapsed`` — the parallel SFS rung spent its worker failure budget
  and collapsed onto its serial twin: degraded execution, bit-identical
  result (``precision_lost`` is False);
- ``degraded`` — a solver-domain fault walked the precision ladder; the
  answer is a verified sound *superset* of the baseline;
- ``typed-failure`` — fallback was disabled and the run died with a
  typed :class:`~repro.errors.ReproError` (exit code territory, never a
  traceback).

Anything else — wrong masks, an unsound "degraded" answer, an untyped
exception — is ``garbage`` and fails the soak (exit 3).  Seeds are fixed
and the fault plans deterministic, so a failing seed is replayable
bit-for-bit.

Schedules interleave three trigger shapes per seed index: ``once``
(fire on the first hit, then disarm — the heal-and-complete path),
``repeat`` (fire on every hit — retry budgets exhaust, worker budgets
spend, ladders walk), and ``no-fallback`` (solver faults with the
ladder disabled — the typed-failure path).

The default program is the generated ``du`` suite workload — the
smallest benchmark with real call/heap structure, known to shard across
workers — so every fault point is actually reachable.

``--daemon`` soaks the always-on service (:mod:`repro.service`) instead
of the batch pipeline: per (analysis, service fault point, seed) it
boots a fresh daemon on a shared warm store, fires a mixed query burst
(analyze / alias / nullderef / slice) through the faulted request path,
and classifies every response against a fault-free baseline burst:

- ``healed`` — the fault was absorbed (revived worker, cache-less
  session, quarantined store entry) and every answer is bit-identical;
- ``shed`` — admission control turned the fault into a typed
  ``ServiceOverloaded`` with a retry-after hint;
- ``degraded`` — the answer lost precision but is a verified sound
  superset of the baseline (masks / may-alias / warnings / slice nodes);
- ``typed-failure`` — a typed error response (never a dropped
  connection or a traceback on the wire).

Anything else is ``garbage`` and fails the soak.  After the matrix, a
fresh fault-free daemon is **warm-restarted** onto each store and must
answer the whole burst bit-identically to the cold baseline — the
crash-safe-restart contract, checked per query type.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.runtime.faults import FAULT_DOMAINS, fault_domain

#: Points a serial configuration can reach (parallel transport excluded).
SERIAL_POINTS: Tuple[str, ...] = (FAULT_DOMAINS["solver"]
                                  + FAULT_DOMAINS["io"])

#: Points a --jobs N configuration targets.  Parallel points first so
#: small seed counts still cover the watchdog; solver points are owned
#: by the serial configurations (worker processes run their own solve
#: loops, out of reach of the driver-side plan).
PARALLEL_POINTS: Tuple[str, ...] = (FAULT_DOMAINS["parallel"]
                                    + FAULT_DOMAINS["io"])

#: Points the ``--daemon`` soak targets (the service request path).
SERVICE_POINTS: Tuple[str, ...] = FAULT_DOMAINS["service"]

#: Offset stride between configurations' point cycles: staggers which
#: points each configuration exercises so the default 8-seed matrix
#: covers the full table (asserted by ``--require-coverage``).
_OFFSET_STRIDE = 3


class ChaosRun:
    """One scheduled faulted run and (after execution) its verdict."""

    def __init__(self, analysis: str, jobs: int, seed: int, point: str,
                 trigger: str):
        self.analysis = analysis
        self.jobs = jobs
        self.seed = seed
        self.point = point
        self.trigger = trigger  # "once" | "repeat" | "no-fallback"
        self.outcome = ""  # identical|collapsed|degraded|typed-failure|garbage
        self.detail = ""
        self.fired = 0
        self.heals = 0
        self.degraded_from: Optional[str] = None

    @property
    def domain(self) -> str:
        return fault_domain(self.point)

    @property
    def config(self) -> str:
        return f"{self.analysis}/j{self.jobs}"

    def describe(self) -> str:
        verdict = self.outcome or "pending"
        extra = f" ({self.detail})" if self.detail else ""
        return (f"{self.config} seed={self.seed} {self.point} "
                f"[{self.trigger}] -> {verdict}{extra}")

    def to_dict(self) -> Dict[str, object]:
        return {
            "analysis": self.analysis,
            "jobs": self.jobs,
            "seed": self.seed,
            "point": self.point,
            "domain": self.domain,
            "trigger": self.trigger,
            "outcome": self.outcome,
            "detail": self.detail or None,
            "fired": self.fired,
            "heals": self.heals,
            "degraded_from": self.degraded_from,
        }


def _trigger_for(index: int, point: str) -> str:
    """Deterministic trigger shape for the *index*-th seed of a config.

    Every fourth seed repeat-fires (budget exhaustion paths); every
    fourth, offset by one, disables fallback — but only for solver
    points, whose contract under ``fallback=False`` is a typed raise
    (io/parallel faults are absorbed regardless of fallback).
    """
    if index % 4 == 2:
        return "repeat"
    if index % 4 == 3 and fault_domain(point) == "solver":
        return "no-fallback"
    return "once"


def build_configs(analyses: List[str],
                  jobs_list: List[int]) -> List[Tuple[str, int]]:
    """``(analysis, jobs)`` pairs in execution order.  Only SFS shards:
    every other analysis runs serially, once."""
    return list(dict.fromkeys((analysis, jobs if analysis == "sfs" else 1)
                              for jobs in jobs_list for analysis in analyses))


def build_schedule(analyses: List[str], jobs_list: List[int], seeds: int,
                   seed_base: int) -> List[ChaosRun]:
    """The full deterministic run matrix, in execution order."""
    runs: List[ChaosRun] = []
    configs = build_configs(analyses, jobs_list)
    for config_index, (analysis, jobs) in enumerate(configs):
        points = PARALLEL_POINTS if jobs > 1 else SERIAL_POINTS
        offset = config_index * _OFFSET_STRIDE
        for index in range(seeds):
            point = points[(index + offset) % len(points)]
            runs.append(ChaosRun(analysis, jobs, seed_base + index, point,
                                 _trigger_for(index, point)))
    return runs


# ---------------------------------------------------------------- execution

def _solve(source: str, analysis: str, jobs: int, mode: Optional[str],
           workdir: str, plan=None, fallback: bool = True):
    """One governed stored solve in *workdir*; returns the result.

    The stage cache under *workdir* is shared, so later runs hit it
    (``stage_cache_read``).  The result store is empty and private to the
    run, so every run still solves and then puts (``result_store_put``).
    """
    from repro.engine import StageCache
    from repro.pipeline import AnalysisPipeline, solve_stored
    from repro.runtime.checkpoint import CheckpointConfig
    from repro.store import ResultStore

    pipeline = AnalysisPipeline.from_source(
        source, cache=StageCache(os.path.join(workdir, "stages")),
        faults=plan)
    store = ResultStore(tempfile.mkdtemp(prefix="results-", dir=workdir))
    result, __ = solve_stored(
        pipeline, analysis, store=store, fallback=fallback, faults=plan,
        checkpoint=CheckpointConfig(os.path.join(workdir, "checkpoints")),
        jobs=jobs, parallel_mode=mode)
    return result


def _make_plan(run: ChaosRun):
    from repro.runtime.faults import FaultPlan

    if run.trigger == "repeat":
        return FaultPlan(point=run.point, probability=1.0, seed=run.seed,
                         once=False)
    return FaultPlan(point=run.point, at_hit=1, seed=run.seed, once=True)


def _sound_superset(baseline: List[int], masks: List[int]) -> bool:
    """Degrading may only ADD may-point-to facts, never drop any."""
    if len(baseline) != len(masks):
        return False
    return all(base & ~mask == 0 for base, mask in zip(baseline, masks))


def execute_run(run: ChaosRun, source: str, mode: Optional[str],
                config_dir: str, baseline_masks: List[int]) -> None:
    """Execute one scheduled run and stamp its verdict on *run*."""
    plan = _make_plan(run)
    workdir = config_dir
    if run.point == "stage_cache_write":
        # Cache writes only happen on a cold store; a private directory
        # keeps the shared warm store warm for the remaining seeds.
        workdir = tempfile.mkdtemp(prefix="cold-", dir=config_dir)
    try:
        result = _solve(source, run.analysis, run.jobs, mode, workdir,
                        plan=plan, fallback=run.trigger != "no-fallback")
    except ReproError as exc:
        run.outcome = "typed-failure"
        run.detail = type(exc).__name__
    except Exception as exc:  # noqa: BLE001 — garbage detector by design
        run.outcome = "garbage"
        run.detail = f"untyped {type(exc).__name__}: {exc}"
    else:
        report = result.report
        run.heals = len(report.self_heal)
        run.degraded_from = report.degraded_from
        masks = list(result._pt)
        if masks == baseline_masks and not report.precision_lost:
            run.outcome = "collapsed" if report.degraded else "identical"
        elif report.precision_lost and _sound_superset(baseline_masks, masks):
            run.outcome = "degraded"
            run.detail = f"to {report.precision_level}"
        else:
            run.outcome = "garbage"
            run.detail = ("unsound degraded masks"
                          if report.precision_lost else "masks diverged")
    run.fired = len(plan.fired)
    if not plan.fired and run.outcome == "identical":
        run.detail = "not-reached"


def _baseline(source: str, analysis: str, jobs: int, mode: Optional[str],
              workdir: str) -> List[int]:
    """Fault-free reference masks; also warms the stage cache for the
    seeds."""
    result = _solve(source, analysis, jobs, mode, workdir)
    report = result.report
    if report.degraded or report.self_heal:
        raise ReproError(
            f"chaos baseline for {analysis}/j{jobs} was not clean: "
            f"{report.summary()} ({len(report.self_heal)} heals)")
    return list(result._pt)


# ----------------------------------------------------------- daemon soak

#: Run-verdict severity: a burst's verdict is its worst response class.
_DAEMON_SEVERITY = ("healed", "degraded", "shed", "typed-failure", "garbage")


class DaemonRun:
    """One scheduled faulted daemon boot + query burst and its verdict."""

    def __init__(self, analysis: str, seed: int, point: str, trigger: str):
        self.analysis = analysis
        self.seed = seed
        self.point = point
        self.trigger = trigger  # "once" | "repeat"
        self.outcome = ""  # healed|shed|degraded|typed-failure|garbage
        self.detail = ""
        self.fired = 0
        self.classes: List[str] = []  # per-response classification

    @property
    def domain(self) -> str:
        return "service"

    def describe(self) -> str:
        verdict = self.outcome or "pending"
        extra = f" ({self.detail})" if self.detail else ""
        return (f"daemon/{self.analysis} seed={self.seed} {self.point} "
                f"[{self.trigger}] -> {verdict}{extra}")

    def to_dict(self) -> Dict[str, object]:
        return {
            "analysis": self.analysis,
            "seed": self.seed,
            "point": self.point,
            "domain": self.domain,
            "trigger": self.trigger,
            "outcome": self.outcome,
            "detail": self.detail or None,
            "fired": self.fired,
            "responses": self.classes,
        }


def build_daemon_schedule(analyses: List[str], seeds: int,
                          seed_base: int) -> List[DaemonRun]:
    """Full cross product: analyses × service points × seeds."""
    runs: List[DaemonRun] = []
    for analysis in analyses:
        for point in SERVICE_POINTS:
            for index in range(seeds):
                trigger = "repeat" if index % 3 == 2 else "once"
                runs.append(DaemonRun(analysis, seed_base + index, point,
                                      trigger))
    return runs


def _daemon_service(store_dir: str, plan=None):
    from repro.service.server import AnalysisService, ServiceConfig

    config = ServiceConfig(store_dir=store_dir, workers=2,
                           default_deadline_s=None, faults=plan)
    return AnalysisService(config).start()


def _daemon_requests(source: str, analysis: str,
                     probes: Dict[str, Optional[str]]) -> List[Dict]:
    requests: List[Dict] = [
        {"op": "analyze", "id": "q-analyze", "program": source,
         "analysis": analysis},
        {"op": "alias", "id": "q-alias", "program": source,
         "analysis": analysis,
         "params": {"a": probes["a"], "b": probes["b"]}},
        {"op": "nullderef", "id": "q-nullderef", "program": source,
         "analysis": analysis},
    ]
    if probes.get("slice"):
        requests.append(
            {"op": "slice", "id": "q-slice", "program": source,
             "analysis": analysis,
             "params": {"var": probes["slice"], "direction": "backward"}})
    return requests


def _daemon_burst(service, requests: List[Dict]) -> List:
    import json

    return [service.handle_line(json.dumps(request))
            for request in requests]


def _normalize_response(response) -> Dict[str, object]:
    """Wire dict minus the volatile fields (identity = the answer)."""
    payload = response.to_dict()
    for key in ("elapsed_s", "heals", "retries", "cached"):
        payload.pop(key, None)
    return payload


def _daemon_sound(op: str, base: Dict, got: Dict) -> bool:
    """A degraded answer may only ADD may-facts, never drop any."""
    from repro.store.atomic import dec_mask_list

    if op == "analyze":
        return _sound_superset(dec_mask_list(base["masks"]),
                               dec_mask_list(got["masks"]))
    if op == "alias":
        return bool(got["may_alias"]) or not base["may_alias"]
    if op == "nullderef":
        return set(base["warnings"]) <= set(got["warnings"])
    if op == "slice":
        return set(base["nodes"]) <= set(got["nodes"])
    return False


def _classify_response(base_norm: Dict, response) -> Tuple[str, str]:
    """(class, detail) for one faulted-burst response vs its baseline."""
    if not response.ok:
        etype = (response.error or {}).get("type", "")
        if etype == "ServiceOverloaded":
            return "shed", etype
        if etype == "InternalError":
            exc = (response.error or {}).get("exception", "?")
            return "garbage", f"untyped {exc} escaped to the wire"
        return "typed-failure", etype
    if response.precision_lost:
        if _daemon_sound(response.op, base_norm["result"], response.result):
            return "degraded", f"to {response.precision_level}"
        return "garbage", "unsound degraded answer"
    if _normalize_response(response) == base_norm:
        return "healed", ""
    return "garbage", "answer diverged from baseline"


def _daemon_baseline(source: str, analysis: str, store_dir: str,
                     ) -> Tuple[List[Dict], Dict[str, Optional[str]]]:
    """Fault-free reference burst; discovers query probes and warms the
    store.  Returns (normalized responses, probes)."""
    import json

    service = _daemon_service(store_dir)
    try:
        analyze = service.handle_line(json.dumps(
            {"op": "analyze", "id": "probe", "program": source,
             "analysis": analysis}))
        if not analyze.ok:
            raise ReproError(f"daemon baseline analyze failed: "
                             f"{analyze.error}")
        variables = analyze.result["variables"]
        if not variables:
            raise ReproError("daemon soak program has no top-level "
                             "variables to query")
        probes: Dict[str, Optional[str]] = {
            "a": variables[0],
            "b": variables[1] if len(variables) > 1 else variables[0],
            "slice": None,
        }
        for name in variables[:16]:
            response = service.handle_line(json.dumps(
                {"op": "slice", "id": "probe", "program": source,
                 "analysis": analysis, "params": {"var": name}}))
            if response.ok:
                probes["slice"] = name
                break
        responses = _daemon_burst(service,
                                  _daemon_requests(source, analysis, probes))
    finally:
        service.drain(reply_grace_s=10.0)
    for response in responses:
        if not response.ok or response.precision_lost or response.heals:
            raise ReproError(
                f"daemon baseline for {analysis} was not clean: "
                f"{response.encode()}")
    return [_normalize_response(r) for r in responses], probes


def execute_daemon_run(run: DaemonRun, source: str, store_dir: str,
                       baseline: List[Dict],
                       probes: Dict[str, Optional[str]]) -> None:
    """Boot a faulted daemon, fire the burst, stamp the verdict."""
    plan = _make_plan(run)
    try:
        service = _daemon_service(store_dir, plan=plan)
        try:
            responses = _daemon_burst(
                service, _daemon_requests(source, run.analysis, probes))
        finally:
            service.drain(reply_grace_s=10.0)
    except Exception as exc:  # noqa: BLE001 — garbage detector by design
        run.outcome = "garbage"
        run.detail = f"untyped {type(exc).__name__}: {exc}"
        run.fired = len(plan.fired)
        return
    details: List[str] = []
    for base_norm, response in zip(baseline, responses):
        klass, detail = _classify_response(base_norm, response)
        run.classes.append(klass)
        if detail:
            details.append(f"{response.op or 'decode'}: {detail}")
    run.outcome = max(run.classes, key=_DAEMON_SEVERITY.index)
    run.detail = "; ".join(details)
    run.fired = len(plan.fired)
    if not plan.fired and run.outcome == "healed":
        run.detail = "not-reached"


def _daemon_warm_check(source: str, analysis: str, store_dir: str,
                       baseline: List[Dict],
                       probes: Dict[str, Optional[str]]) -> List[str]:
    """Warm-restart a fault-free daemon on the soaked store; every query
    type must answer bit-identically to the cold baseline.  Returns the
    ids of mismatching responses (empty = contract holds)."""
    service = _daemon_service(store_dir)
    try:
        responses = _daemon_burst(service,
                                  _daemon_requests(source, analysis, probes))
    finally:
        service.drain(reply_grace_s=10.0)
    return [response.id for base_norm, response in zip(baseline, responses)
            if _normalize_response(response) != base_norm]


def _daemon_soak(args: argparse.Namespace, analyses: List[str],
                 source: str) -> int:
    runs = build_daemon_schedule(analyses, max(1, args.seeds),
                                 args.seed_base)
    if args.list:
        print(f"--- chaos daemon schedule: {len(runs)} runs ---")
        for run in runs:
            print(f"  daemon/{run.analysis:<5} seed={run.seed:<3} "
                  f"{run.point:<16} [{run.trigger}]")
        return 0
    print(f"--- chaos daemon soak: {len(analyses)} analyses x "
          f"{len(SERVICE_POINTS)} points x {args.seeds} seeds "
          f"= {len(runs)} runs ---")
    warm_failures: List[Tuple[str, List[str]]] = []
    with tempfile.TemporaryDirectory(prefix="repro-chaos-daemon-") as root:
        for analysis in analyses:
            store_dir = os.path.join(root, f"svc-{analysis}")
            try:
                baseline, probes = _daemon_baseline(source, analysis,
                                                    store_dir)
            except ReproError as err:
                print(f"repro-wpa chaos: error: {err}", file=sys.stderr)
                return 3
            for run in [r for r in runs if r.analysis == analysis]:
                execute_daemon_run(run, source, store_dir, baseline, probes)
                print(f"  {run.describe()}")
            mismatches = _daemon_warm_check(source, analysis, store_dir,
                                            baseline, probes)
            if mismatches:
                warm_failures.append((analysis, mismatches))
            else:
                print(f"  daemon/{analysis} warm-restart: bit-identical "
                      f"({len(baseline)} query types)")
    return _daemon_report(runs, warm_failures, args)


def _daemon_report(runs: List[DaemonRun],
                   warm_failures: List[Tuple[str, List[str]]],
                   args: argparse.Namespace) -> int:
    counts: Dict[str, int] = {}
    for run in runs:
        counts[run.outcome] = counts.get(run.outcome, 0) + 1
    garbage = [run for run in runs if run.outcome == "garbage"]
    unclassified = [run for run in runs
                    if run.outcome not in _DAEMON_SEVERITY]
    exercised = {run.point for run in runs if run.fired}
    missing = sorted(set(SERVICE_POINTS) - exercised)

    summary = ", ".join(f"{kind}: {counts[kind]}"
                        for kind in _DAEMON_SEVERITY if kind in counts)
    print(f"outcomes: {summary}")
    print(f"coverage: {len(exercised)}/{len(SERVICE_POINTS)} service fault "
          f"points fired" + (f" (missing: {', '.join(missing)})"
                             if missing else ""))

    ok = (not garbage and not unclassified and not warm_failures
          and not (args.require_coverage and missing))
    for run in garbage + unclassified:
        print(f"repro-wpa chaos: FAIL: {run.describe()}", file=sys.stderr)
    for analysis, ids in warm_failures:
        print(f"repro-wpa chaos: FAIL: daemon/{analysis} warm restart "
              f"diverged from the cold baseline: {', '.join(ids)}",
              file=sys.stderr)
    if ok:
        print("chaos daemon soak passed: no garbage outcomes, "
              "warm restarts bit-identical")
    elif not garbage and not unclassified and not warm_failures:
        print("repro-wpa chaos: FAIL: coverage incomplete "
              "(--require-coverage)", file=sys.stderr)

    if args.output:
        from repro.store.atomic import atomic_write_json

        atomic_write_json(args.output, {
            "mode": "daemon",
            "seeds": args.seeds,
            "seed_base": args.seed_base,
            "runs": [run.to_dict() for run in runs],
            "outcomes": counts,
            "warm_restart": {"failures": [
                {"analysis": analysis, "responses": ids}
                for analysis, ids in warm_failures]},
            "coverage": {"applicable": sorted(SERVICE_POINTS),
                         "exercised": sorted(exercised),
                         "missing": missing},
            "ok": ok,
        })
        print(f"chaos record written to {args.output}")
    return 0 if ok else 3


# ------------------------------------------------------------------ driver

def _default_source() -> str:
    from repro.bench.workloads import SUITE, generate_source

    return generate_source(SUITE["du"])


def chaos_main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-wpa chaos``; returns the exit code."""
    parser = argparse.ArgumentParser(
        prog="repro-wpa chaos",
        description="Seeded fault-injection soak: every run must end "
                    "bit-identical, verifiably degraded, or typed-failed "
                    "- never garbage.")
    parser.add_argument("--daemon", action="store_true",
                        help="soak the always-on analysis service "
                             "(service fault domain: per-point daemon "
                             "boots, mixed query bursts, warm-restart "
                             "bit-identity) instead of the batch pipeline")
    parser.add_argument("--seeds", type=int, default=8, metavar="N",
                        help="seeds per configuration (default 8)")
    parser.add_argument("--seed-base", type=int, default=0, metavar="B",
                        help="first seed value (default 0)")
    parser.add_argument("--analyses", default="sfs,vsfs", metavar="LIST",
                        help="comma-separated staged analyses "
                             "(default sfs,vsfs)")
    parser.add_argument("--jobs", default="1,2", metavar="LIST",
                        help="comma-separated worker counts; 1 = serial "
                             "(default 1,2).  Only sfs shards; vsfs runs "
                             "serially with a warning")
    parser.add_argument("--parallel-mode", choices=("fork", "inline"),
                        help="parallel transport override (default: the "
                             "driver's choice)")
    parser.add_argument("--program", metavar="FILE",
                        help="mini-C source to soak (default: the "
                             "generated 'du' suite workload)")
    parser.add_argument("--list", action="store_true",
                        help="print the deterministic run schedule and "
                             "exit without executing")
    parser.add_argument("--require-coverage", action="store_true",
                        help="fail (exit 3) unless every applicable fault "
                             "point fired in at least one run")
    parser.add_argument("--output", metavar="FILE",
                        help="write the full soak record as JSON")
    args = parser.parse_args(argv)

    analyses = [a.strip() for a in args.analyses.split(",") if a.strip()]
    for analysis in analyses:
        if analysis not in ("sfs", "vsfs"):
            print(f"repro-wpa chaos: error: unknown analysis {analysis!r} "
                  f"(want sfs/vsfs)", file=sys.stderr)
            return 1
    if args.daemon:
        if args.program is not None and not args.list:
            try:
                with open(args.program) as handle:
                    daemon_source = handle.read()
            except OSError as err:
                print(f"repro-wpa chaos: error: {err}", file=sys.stderr)
                return 1
        else:
            daemon_source = "" if args.list else _default_source()
        return _daemon_soak(args, analyses, daemon_source)
    try:
        jobs_list = sorted({max(1, int(j)) for j in args.jobs.split(",") if j})
    except ValueError:
        print(f"repro-wpa chaos: error: --jobs wants integers, got "
              f"{args.jobs!r}", file=sys.stderr)
        return 1

    if any(jobs > 1 for jobs in jobs_list) and analyses != ["sfs"]:
        print("repro-wpa chaos: warning: --jobs applies to sfs only; "
              "vsfs runs serially", file=sys.stderr)
    runs = build_schedule(analyses, jobs_list, max(1, args.seeds),
                          args.seed_base)
    if args.list:
        print(f"--- chaos schedule: {len(runs)} runs ---")
        for run in runs:
            print(f"  {run.config:<9} seed={run.seed:<3} "
                  f"{run.point:<18} [{run.trigger}]")
        return 0

    if args.program is not None:
        try:
            with open(args.program) as handle:
                source = handle.read()
        except OSError as err:
            print(f"repro-wpa chaos: error: {err}", file=sys.stderr)
            return 1
    else:
        source = _default_source()

    configs = build_configs(analyses, jobs_list)
    print(f"--- chaos soak: {len(configs)} configs x {args.seeds} seeds "
          f"= {len(runs)} runs ---")
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as root:
        for analysis, jobs in configs:
            config_dir = os.path.join(root, f"{analysis}-j{jobs}")
            os.makedirs(config_dir, exist_ok=True)
            try:
                baseline = _baseline(source, analysis, jobs,
                                     args.parallel_mode, config_dir)
            except ReproError as err:
                print(f"repro-wpa chaos: error: {err}", file=sys.stderr)
                return 3
            config_runs = [r for r in runs
                           if r.analysis == analysis and r.jobs == jobs]
            for run in config_runs:
                execute_run(run, source, args.parallel_mode, config_dir,
                            baseline)
                print(f"  {run.describe()}")

    return _report(runs, configs, args)


def _report(runs: List[ChaosRun], configs: List[Tuple[str, int]],
            args: argparse.Namespace) -> int:
    counts: Dict[str, int] = {}
    for run in runs:
        counts[run.outcome] = counts.get(run.outcome, 0) + 1
    garbage = [run for run in runs if run.outcome == "garbage"]

    applicable = set()
    for __, jobs in configs:
        applicable.update(PARALLEL_POINTS if jobs > 1 else SERIAL_POINTS)
    exercised = {run.point for run in runs if run.fired}
    missing = sorted(applicable - exercised)

    summary = ", ".join(f"{kind}: {counts[kind]}" for kind in
                        ("identical", "collapsed", "degraded",
                         "typed-failure", "garbage") if kind in counts)
    print(f"outcomes: {summary}")
    print(f"coverage: {len(exercised)}/{len(applicable)} applicable fault "
          f"points fired" + (f" (missing: {', '.join(missing)})"
                             if missing else ""))

    ok = not garbage and not (args.require_coverage and missing)
    if garbage:
        print(f"repro-wpa chaos: FAIL: {len(garbage)} garbage outcome(s):",
              file=sys.stderr)
        for run in garbage:
            print(f"  {run.describe()}", file=sys.stderr)
    elif not ok:
        print("repro-wpa chaos: FAIL: coverage incomplete "
              "(--require-coverage)", file=sys.stderr)
    else:
        print("chaos soak passed: no garbage outcomes")

    if args.output:
        from repro.store.atomic import atomic_write_json

        atomic_write_json(args.output, {
            "seeds": args.seeds,
            "seed_base": args.seed_base,
            "runs": [run.to_dict() for run in runs],
            "outcomes": counts,
            "coverage": {"applicable": sorted(applicable),
                         "exercised": sorted(exercised),
                         "missing": missing},
            "ok": ok,
        })
        print(f"chaos record written to {args.output}")
    return 0 if ok else 3


if __name__ == "__main__":
    sys.exit(chaos_main())

"""End-to-end benchmark of the points-to analysis, one workload per run.

    python3 benchmarks/e2e/run.py --workload vsfs-cold --seed 0 \\
        --seconds 25 --trace 0 [--json OUT] [--smoke]

Run from the repository root.  Without ``--workload`` every workload
runs in turn.  The last stdout line is one JSON object::

    {"correct": true, "attempted": 4, "failed": 0,
     "metrics": {"analysis_s": {"value": 9.61, "unit": "s"}, ...}}

with the end-to-end metrics under ``--trace 0`` and the per-layer
metrics of a traced run under ``--trace 1``.  The lines before it print
the same numbers, and more, for a reader; ``--json`` writes everything.

The program is driven only through its user-facing entry points, each in
a fresh child process, one child at a time: batch workloads run the
``repro-wpa`` path (``AnalysisPipeline.from_source`` → ``svfg()`` →
``solve_with_ladder``) in ``child.py``; the daemon workload talks JSONL
to ``python -m repro.cli serve --store <fresh dir> --workers 1``.  Every
answer is checked against a reference computed, untimed, by a different
code path (see README.md).  The benchmark generates its inputs from
``--seed`` (``programs.py``), builds the program's bytecode first, and
keeps its scratch files under ``.bench_build/e2e``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
CHILD = HERE / "child.py"
WORK = ROOT / ".bench_build" / "e2e"
REFS = WORK / "refs"
sys.path.insert(0, str(HERE))

from child import points_to_digest  # noqa: E402
from programs import batch_source, edit_script, seed_prefix  # noqa: E402
from spans import SPANS  # noqa: E402

PY = sys.executable
ENV = dict(os.environ, PYTHONPATH=str(SRC))
#: Children not yet reaped; killed if the run is interrupted.
_LIVE: Set[subprocess.Popen] = set()

#: A workload run must end well inside three minutes; a stuck child is
#: killed when this alarm fires.
RUN_DEADLINE_S = 170

#: Bump when the digest format changes, to retire cached references.
REFS_VERSION = 1


@dataclass(frozen=True)
class Batch:
    """A batch workload: *programs* analysed cold, one child each.

    ``round_s`` is what one round (every program once) takes on a 2-CPU
    host; ``--seconds`` divided by it gives the repetitions, so that the
    parent and a change measure the same number of them.
    """

    analysis: str
    jobs: int
    reference: str
    programs: Tuple[str, ...]
    round_s: float


BATCH: Dict[str, Batch] = {
    "vsfs-cold": Batch("vsfs", 1, "sfs", ("lynx", "hyriseConsole"), 8.3),
    "sfs-cold": Batch("sfs", 1, "vsfs", ("astyle", "tmux", "mruby"), 6.2),
    "sfs-jobs2": Batch("sfs", 2, "sfs", ("astyle", "tmux", "mruby"), 5.6),
}
WORKLOADS = (*BATCH, "edit-mix")

SMOKE_PROGRAM = "du"
EDITS, SMOKE_EDITS = 48, 6
#: One 48-edit daemon session on a 2-CPU host.
EDIT_SESSION_S = 30.0
#: Extra daemons per run that only start and analyse the base program, so
#: that set-up time is a median.
SETUP_PROBES = 4

END_TO_END = {"setup_s": "s", "analysis_s": "s", "peak_rss_mib": "MiB"}
TAIL_PERCENTILES = (99, 95, 90, 75)

#: Per-layer counters -> unit (spans add ``.self_share`` and ``.calls``).
COUNTERS = {
    "analysis.andersen.processed_nodes": "count",
    "svfg.nodes": "count",
    "svfg.indirect_edges": "count",
    "core.versions": "count",
    "core.meld_steps": "count",
    **{f"{solver}.{counter}": "count"
       for solver in ("core.vsfs_run", "solvers.sfs_run")
       for counter in ("nodes_processed", "propagations", "unions")},
    "datastructs.batch_memo_hit_ratio": "ratio",
    "datastructs.union_cache_hit_ratio": "ratio",
    "parallel.rounds": "count",
    "parallel.frontier_entries": "count",
    "parallel.worker_busy_share": "ratio",
    "parallel.workers_peak_rss_mib": "MiB",
    "incremental.regions_reused_ratio": "ratio",
    "incremental.nodes_dirty_ratio": "ratio",
    "incremental.steps_saved": "count",
    "store.stage_cache_hit_ratio": "ratio",
    "service.execute_share": "ratio",
    "service.queue_wait_share": "ratio",
    "host_calib_s": "s",
}


def per_layer_units() -> Dict[str, str]:
    units: Dict[str, str] = {}
    for span in SPANS:
        units[f"{span}.self_share"] = "ratio"
        units[f"{span}.calls"] = "count"
    units.update({"unattributed.self_share": "ratio",
                  "unattributed.self_s": "s",
                  "trace.wall_s": "s",
                  "trace.overhead_ratio": "ratio",
                  **COUNTERS})
    return units


class GuardError(RuntimeError):
    """The traced run could not account for a layer or for its time."""


class Interrupted(Exception):
    """SIGALRM (the run's deadline) or SIGTERM arrived."""


# ---------------------------------------------------------------- statistics

def percentile(values: Sequence[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def tail_percentile(samples: int) -> Optional[int]:
    """The highest tail percentile with at least ten samples beyond it."""
    for pct in TAIL_PERCENTILES:
        if samples * (100 - pct) / 100 >= 10:
            return pct
    return None


def latency_summary(name: str, values: Sequence[float]) -> Dict[str, float]:
    """Median plus the highest tail percentile the sample count allows."""
    summary = {f"{name}_p50": statistics.median(values)} if values else {}
    pct = tail_percentile(len(values))
    if pct is not None:
        summary[f"{name}_p{pct}"] = percentile(values, pct)
    return summary


# ----------------------------------------------------------------- processes

def _reap(proc: subprocess.Popen, timeout: float = 30.0):
    """Wait for *proc* (killing it after *timeout*); returns its rusage."""
    if proc.stdin is not None and not proc.stdin.closed:
        try:
            proc.stdin.close()
        except BrokenPipeError:
            pass
    end = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > end:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.005)
    proc.returncode = os.waitstatus_to_exitcode(status)
    _LIVE.discard(proc)
    if proc.stdout is not None:
        proc.stdout.close()
    return usage


def _spawn(args: List[str]) -> subprocess.Popen:
    proc = subprocess.Popen([PY, *args], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True, env=ENV,
                            cwd=ROOT)
    _LIVE.add(proc)
    return proc


def _read(proc: subprocess.Popen) -> Optional[Dict[str, Any]]:
    line = proc.stdout.readline()
    return json.loads(line) if line else None


def build() -> None:
    """Compile the program's bytecode, as an install would."""
    done = subprocess.run([PY, "-m", "compileall", "-q", str(SRC / "repro")],
                          cwd=ROOT, env=ENV, stdout=subprocess.DEVNULL,
                          timeout=120)
    if done.returncode:
        raise RuntimeError("compiling the program's bytecode failed")


def _cache_path(job: Dict[str, Any]) -> Path:
    text = json.dumps([REFS_VERSION, job["analysis"],
                       job["source"].replace(job["strip"], "")])
    return REFS / (hashlib.sha256(text.encode("utf-8")).hexdigest() + ".json")


def references(jobs: List[Dict[str, Any]], record: Record,
               cache: bool) -> List[Dict[str, Any]]:
    """Reference answers for *jobs*, from one untimed child.

    With *cache*, answers are kept under ``.bench_build/e2e/refs`` by
    program text with the seed prefix removed: a seed only renames
    identifiers and the digests strip the prefix, so every seed of a
    program shares one reference.
    """
    paths = [_cache_path(job) if cache else None for job in jobs]
    replies: List[Optional[Dict[str, Any]]] = [
        json.loads(path.read_text()) if path and path.is_file() else None
        for path in paths]
    todo = [i for i, reply in enumerate(replies) if reply is None]
    if todo:
        proc = _spawn([str(CHILD), "reference"])
        try:
            if _read(proc) is None:
                raise RuntimeError("reference child failed to start")
            proc.stdin.write(json.dumps([jobs[i] for i in todo]) + "\n")
            proc.stdin.flush()
            reply = _read(proc)
        finally:
            _reap(proc)
        if reply is None:
            raise RuntimeError("reference child failed")
        record.host_calib_s.append(reply["host_calib_s"])
        for i, ref in zip(todo, reply["replies"]):
            if ref["precision_level"] != ref["requested"]:
                raise RuntimeError(f"reference solve degraded to "
                                   f"{ref['precision_level']}")
            replies[i] = ref
            if paths[i] is not None:
                REFS.mkdir(parents=True, exist_ok=True)
                partial = paths[i].with_suffix(".tmp")
                partial.write_text(json.dumps(ref))
                partial.replace(paths[i])
    return replies


# ------------------------------------------------------------------- records

@dataclass
class Record:
    """Everything one workload run measured."""

    attempted: int = 0
    failed: int = 0
    mismatches: int = 0
    setup_s: List[float] = field(default_factory=list)
    host_calib_s: List[float] = field(default_factory=list)
    traces: List[Dict[str, Any]] = field(default_factory=list)
    info: Dict[str, Any] = field(default_factory=dict)

    def check(self, ok: bool, same: bool) -> None:
        """Count one attempted operation: *ok* if it ran at the requested
        precision, *same* if its answer equals the reference."""
        self.attempted += 1
        if not ok:
            self.failed += 1
        elif not same:
            self.mismatches += 1


# ----------------------------------------------------------- batch workloads

def analyse_once(job: Dict[str, Any], record: Record
                 ) -> Optional[Dict[str, Any]]:
    """One cold analysis in a fresh child; records its set-up time."""
    start = time.perf_counter()
    proc = _spawn([str(CHILD), "batch"])
    try:
        if _read(proc) is None:
            return None
        record.setup_s.append(time.perf_counter() - start)
        proc.stdin.write(json.dumps(job) + "\n")
        proc.stdin.flush()
        return _read(proc)
    finally:
        _reap(proc, timeout=60.0)


def batch_pass(spec: Batch, programs: Sequence[str], sources: Dict[str, str],
               strip: str, expected: Dict[str, str], reps: int, trace: bool,
               record: Record) -> Dict[str, List[Dict[str, Any]]]:
    samples: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
    for __ in range(reps):
        for program in programs:
            job = {"source": sources[program], "analysis": spec.analysis,
                   "jobs": spec.jobs, "strip": strip, "trace": trace}
            reply = analyse_once(job, record)
            ok = reply is not None \
                and reply["precision_level"] == reply["requested"]
            record.check(ok, ok and reply["digest"] == expected[program])
            if reply is None:
                continue
            samples[program].append(reply)
            record.host_calib_s.append(reply["host_calib_s"])
            if trace:
                record.traces.append(reply["trace"])
    return samples


def batch_totals(samples: Dict[str, List[Dict[str, Any]]]
                 ) -> Dict[str, float]:
    """Per-program medians over repetitions, summed (times) or maxed."""
    def med(program: str, key: str) -> float:
        return statistics.median(s[key] for s in samples[program])

    return {
        "analysis_s": sum(med(p, "analysis_s") for p in samples),
        "solve_s": sum(med(p, "solve_s") for p in samples),
        "peak_rss_mib": max(med(p, "rss_mib") for p in samples),
    }


def run_batch(name: str, seed: int, seconds: int, trace: bool, smoke: bool,
              record: Record) -> Dict[str, float]:
    spec = BATCH[name]
    programs = (SMOKE_PROGRAM,) if smoke else spec.programs
    sources = {program: batch_source(program, seed) for program in programs}
    strip = seed_prefix(seed)
    refs = references([{"source": sources[p], "analysis": spec.reference,
                        "strip": strip} for p in programs], record, cache=True)
    expected = {p: ref["digest"] for p, ref in zip(programs, refs)}
    if trace:
        plain = batch_pass(spec, programs, sources, strip, expected, 1, False,
                           record)
        traced = batch_pass(spec, programs, sources, strip, expected, 1, True,
                            record)
        totals = batch_totals(traced)
        totals["untraced_analysis_s"] = batch_totals(plain)["analysis_s"]
        totals["workers_peak_rss_mib"] = max(
            s["workers_rss_mib"] for runs in traced.values() for s in runs)
        return totals
    reps = 1 if smoke else max(1, int(seconds // spec.round_s))
    begun = time.perf_counter()
    samples = batch_pass(spec, programs, sources, strip, expected, reps, False,
                         record)
    record.info["measure_s"] = time.perf_counter() - begun
    record.info["reps"] = reps
    record.info["programs"] = {
        p: {key: [s[key] for s in runs]
            for key in ("analysis_s", "solve_s", "rss_mib")}
        for p, runs in samples.items()}
    return batch_totals(samples)


# ---------------------------------------------------------- daemon workload

class Daemon:
    """One ``repro-wpa serve`` process over stdio, with a fresh store.

    It runs one worker: the single closed-loop client never has two
    requests in flight, and with the default two workers requests
    alternate between threads, whose separate malloc arenas made the
    same session's peak RSS vary from 121 to 127 MiB (116-117 MiB with
    one worker).
    """

    def __init__(self, trace_out: Optional[str] = None):
        self.store = tempfile.mkdtemp(prefix="store-", dir=WORK)
        serve = ["--store", self.store, "--workers", "1"]
        self.start = time.perf_counter()
        self.proc = _spawn([str(CHILD), "serve", trace_out, *serve]
                           if trace_out else ["-m", "repro.cli", "serve",
                                              *serve])

    def request(self, payload: Dict[str, Any]
                ) -> Tuple[float, Optional[Dict[str, Any]]]:
        start = time.perf_counter()
        self.proc.stdin.write(json.dumps(payload) + "\n")
        self.proc.stdin.flush()
        response = _read(self.proc)
        return time.perf_counter() - start, response

    def close(self) -> float:
        """Stop the daemon; returns its peak RSS in MiB."""
        try:
            usage = _reap(self.proc)
        finally:
            shutil.rmtree(self.store, ignore_errors=True)
        return usage.ru_maxrss / 1024.0


def _answer_ok(response: Optional[Dict[str, Any]]) -> bool:
    return bool(response and response.get("ok")
                and response.get("precision_level") == "vsfs"
                and not response.get("precision_lost"))


def _digest_of(response: Dict[str, Any]) -> str:
    result = response["result"]
    return points_to_digest(result["variables"],
                            [int(mask, 16) for mask in result["masks"]],
                            result["objects"])


def daemon_session(base: str, script: Sequence[Any],
                   refs: List[Dict[str, Any]], record: Record,
                   full: bool, trace_out: Optional[str] = None
                   ) -> Dict[str, Any]:
    """Start a daemon, analyse *base*, then (if *full*) run the edits,
    each followed by its three queries."""
    out: Dict[str, Any] = {"updates": [], "queries": [], "incremental": [],
                           "client_s": 0.0}
    daemon = Daemon(trace_out)
    try:
        __, pong = daemon.request({"op": "ping"})
        if pong is None:
            raise RuntimeError("daemon did not answer ping")
        out["setup_s"] = time.perf_counter() - daemon.start
        record.setup_s.append(out["setup_s"])

        def ask(payload: Dict[str, Any]) -> Tuple[float, Optional[dict]]:
            latency, response = daemon.request(
                dict(payload, analysis="vsfs"))
            out["client_s"] += latency
            return latency, response

        latency, response = ask({"op": "analyze", "program": base})
        ok = _answer_ok(response)
        record.check(ok, ok and _digest_of(response) == refs[0]["digest"])
        out["base_s"] = latency
        if not full:
            return out
        for edit, ref in zip(script, refs[1:]):
            latency, response = ask({"op": "update_source",
                                     "program": edit.source})
            ok = _answer_ok(response)
            record.check(ok, ok and _digest_of(response) == ref["digest"])
            out["updates"].append(latency)
            if ok:
                out["incremental"].append(response["result"]["incremental"])
            for query in ref["queries"]:
                latency, response = ask({"op": query["op"],
                                         "program": edit.source,
                                         "params": query["params"]})
                ok = _answer_ok(response)
                same = ok and all(response["result"].get(key) == value
                                  for key, value in query["answer"].items())
                record.check(ok, same)
                out["queries"].append(latency)
    finally:
        out["rss_mib"] = daemon.close()
    return out


def session_analysis_s(session: Dict[str, Any]) -> float:
    return session["base_s"] + sum(session["updates"])


def run_edit_mix(seed: int, seconds: int, trace: bool, smoke: bool,
                 record: Record) -> Dict[str, float]:
    base, script = edit_script(seed, SMOKE_EDITS if smoke else EDITS)
    jobs = [{"source": base, "analysis": "vsfs"}]
    jobs += [{"source": edit.source, "analysis": "vsfs",
              "function": edit.function, "pick_seed": seed * 1000 + edit.index}
             for edit in script]
    begun = time.perf_counter()
    refs = references(jobs, record, cache=False)
    record.info["reference_s"] = time.perf_counter() - begun
    if trace:
        plain = daemon_session(base, script, refs, record, True)
        trace_out = str(WORK / f"trace-{os.getpid()}.json")
        traced = daemon_session(base, script, refs, record, True, trace_out)
        with open(trace_out) as handle:
            summary = json.load(handle)
        os.unlink(trace_out)
        record.traces.append(summary)
        totals = {"analysis_s": session_analysis_s(traced),
                  "untraced_analysis_s": session_analysis_s(plain),
                  "peak_rss_mib": traced["rss_mib"]}
        totals["session"] = traced
        return totals
    sessions = 1 if smoke else max(1, int(seconds // EDIT_SESSION_S))
    full = [daemon_session(base, script, refs, record, True)
            for __ in range(sessions)]
    probes = [daemon_session(base, script, refs, record, False)
              for __ in range(0 if smoke else SETUP_PROBES)]
    updates = [statistics.median(s["updates"][i] for s in full)
               for i in range(len(script))]
    base_s = statistics.median(s["base_s"] for s in full + probes)
    pooled_updates = [x for s in full for x in s["updates"]]
    pooled_queries = [x for s in full for x in s["queries"]]
    record.info.update(latency_summary("update_s", pooled_updates))
    record.info.update(latency_summary("query_s", pooled_queries))
    record.info["base_analyze_s"] = base_s
    record.info["update_samples"] = len(pooled_updates)
    record.info["query_samples"] = len(pooled_queries)
    return {"analysis_s": base_s + sum(updates),
            "peak_rss_mib": statistics.median(s["rss_mib"] for s in full)}


# ---------------------------------------------------------------- per layer

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(name: str, totals: Dict[str, Any], record: Record
              ) -> Dict[str, float]:
    """Fold the traced children's summaries; enforce the coverage guard."""
    self_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    counters: Dict[str, float] = defaultdict(int)
    wall = unattributed = 0.0
    for summary in record.traces:
        if summary["coverage_error"] > 0.01:
            raise GuardError(
                f"span self times plus unattributed miss the traced wall "
                f"time by {summary['coverage_error']:.2%}")
        for span, (seconds, count) in summary["spans"].items():
            self_s[span] += seconds
            calls[span] += count
        for key, value in summary["counters"].items():
            counters[key] += value
        wall += summary["wall_s"]
        unattributed += summary["unattributed_s"]
    silent = [span for span, (__, workloads) in SPANS.items()
              if name in workloads and not calls[span]]
    if silent:
        raise GuardError(f"declared spans never fired on {name}: "
                         f"{', '.join(silent)}")
    metrics: Dict[str, float] = {}
    for span in SPANS:
        metrics[f"{span}.self_share"] = _ratio(self_s[span], wall)
        metrics[f"{span}.calls"] = calls[span]
    metrics["unattributed.self_s"] = unattributed
    metrics["unattributed.self_share"] = _ratio(unattributed, wall)
    metrics["trace.wall_s"] = wall
    metrics["trace.overhead_ratio"] = _ratio(totals["analysis_s"],
                                             totals["untraced_analysis_s"])
    for key in COUNTERS:
        metrics[key] = counters.get(key, 0)
    metrics["datastructs.batch_memo_hit_ratio"] = _ratio(
        counters["ladder.batch_memo_hits"],
        counters["ladder.batch_memo_hits"]
        + counters["ladder.batch_memo_misses"])
    metrics["datastructs.union_cache_hit_ratio"] = _ratio(
        counters["ladder.union_cache_hits"],
        counters["ladder.union_cache_hits"]
        + counters["ladder.union_cache_misses"])
    metrics["parallel.worker_busy_share"] = _ratio(
        counters["parallel.worker_busy_s"], counters["parallel.wall_x_jobs_s"])
    metrics["parallel.workers_peak_rss_mib"] = totals.get(
        "workers_peak_rss_mib", 0.0)
    metrics["store.stage_cache_hit_ratio"] = _ratio(
        counters["store.stage_cache_hits"],
        counters["store.stage_cache_lookups"])
    session = totals.get("session", {})
    blocks = session.get("incremental", [])
    metrics["incremental.regions_reused_ratio"] = _ratio(
        sum(b["regions_reused"] for b in blocks),
        sum(b["regions_total"] for b in blocks))
    metrics["incremental.nodes_dirty_ratio"] = _ratio(
        sum(b["nodes_dirty"] for b in blocks),
        sum(b["nodes_total"] for b in blocks))
    metrics["incremental.steps_saved"] = sum(b["steps_saved"] for b in blocks)
    client_s = session.get("client_s", 0.0)
    metrics["service.execute_share"] = _ratio(
        counters["service.execute_s"], client_s)
    metrics["service.queue_wait_share"] = _ratio(
        counters["service.queue_wait_s"], client_s)
    metrics["host_calib_s"] = statistics.median(record.host_calib_s)
    return metrics


# --------------------------------------------------------------------- main

def run_workload(name: str, seed: int, seconds: int, trace: bool,
                 smoke: bool) -> Tuple[Dict[str, Any], Record]:
    record = Record()
    if name in BATCH:
        totals = run_batch(name, seed, seconds, trace, smoke, record)
    else:
        totals = run_edit_mix(seed, seconds, trace, smoke, record)
    if trace:
        values = per_layer(name, totals, record)
        units = per_layer_units()
    else:
        values = {"setup_s": statistics.median(record.setup_s),
                  "analysis_s": totals["analysis_s"],
                  "peak_rss_mib": totals["peak_rss_mib"]}
        units = END_TO_END
        if "solve_s" in totals:
            record.info["solve_s"] = totals["solve_s"]
        record.info["host_calib_s"] = statistics.median(record.host_calib_s)
    line = {
        "correct": record.mismatches == 0 and record.failed == 0,
        "attempted": record.attempted,
        "failed": record.failed,
        "metrics": {key: {"value": values[key], "unit": units[key]}
                    for key in units},
    }
    return line, record


def _report(name: str, line: Dict[str, Any], record: Record) -> None:
    print(f"# {name}: attempted {record.attempted}, failed {record.failed}, "
          f"mismatches {record.mismatches}, cpus {os.cpu_count()}")
    for key, metric in line["metrics"].items():
        print(f"{key:44s} {metric['value']:.6g} {metric['unit']}")
    for key, value in record.info.items():
        if isinstance(value, float):
            print(f"{key:44s} {value:.6g} (not compared)")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25,
                        help="measured time per workload, which sets the "
                             "repetitions (default 25)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: one traced pass reporting per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="one small program, one repetition, 6 edits")
    parser.add_argument("--json", metavar="OUT",
                        help="also write every measurement to OUT")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: error: no program sources under {SRC}",
              file=sys.stderr)
        return 2

    def interrupt(signum, frame):  # noqa: ARG001 — signal API
        raise Interrupted(signal.Signals(signum).name)

    signal.signal(signal.SIGALRM, interrupt)
    signal.signal(signal.SIGTERM, interrupt)
    WORK.mkdir(parents=True, exist_ok=True)
    names = [args.workload] if args.workload else list(WORKLOADS)
    lines: Dict[str, Dict[str, Any]] = {}
    detail: Dict[str, Any] = {}
    try:
        build()
        for name in names:
            signal.alarm(RUN_DEADLINE_S)
            line, record = run_workload(name, args.seed, args.seconds,
                                        bool(args.trace), args.smoke)
            signal.alarm(0)
            _report(name, line, record)
            lines[name] = line
            detail[name] = {"result": line, "mismatches": record.mismatches,
                            "setup_s": record.setup_s, "info": record.info}
    except Interrupted as why:
        print(f"run.py: error: stopped by {why} (the deadline is "
              f"{RUN_DEADLINE_S} s per workload)", file=sys.stderr)
        return 4
    except GuardError as err:
        print(f"run.py: error: traced run: {err}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
        for proc in list(_LIVE):
            proc.kill()
            _reap(proc)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump({"seed": args.seed, "seconds": args.seconds,
                       "trace": args.trace, "smoke": args.smoke,
                       "cpus": os.cpu_count(), "workloads": detail},
                      handle, indent=1)
    if len(lines) == 1:
        print(json.dumps(next(iter(lines.values()))))
    else:
        print(json.dumps({
            "correct": all(line["correct"] for line in lines.values()),
            "attempted": sum(line["attempted"] for line in lines.values()),
            "failed": sum(line["failed"] for line in lines.values()),
            "metrics": {f"{name}.{key}": metric
                        for name, line in lines.items()
                        for key, metric in line["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

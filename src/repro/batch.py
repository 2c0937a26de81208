"""``repro-wpa batch`` — supervised multi-program batch driver.

Runs one ``repro-wpa`` subprocess per program so a crash (OOM kill,
segfault, interpreter abort) takes down only that program's attempt, never
the batch.  The supervisor enforces a per-attempt wall-clock timeout,
kills overrunning workers, and retries on the shared
:class:`~repro.runtime.resilience.RetryPolicy` — exponential backoff
with deterministic jitter seeded per program file, so ``--jobs N``
workers that failed together spread their wakeups apart instead of
retrying in lockstep (and two runs of the same batch still sleep the
same schedule).  Each retry passes ``--resume`` so the worker continues
from the last checkpoint instead of starting over.  Non-final attempts run with
``--no-fallback``: a budget trip then checkpoints and exits 3 rather than
silently degrading, keeping the precise answer reachable across retries.
Only the final attempt may walk the degradation ladder (unless the batch
itself was invoked with ``--no-fallback``) — degradation is the last
resort, after every resume-and-retry has been spent.

The aggregate JSON (``--output``) records every attempt's exit code,
duration and timeout/kill disposition plus each worker's own run report
(collected via ``--report-json``, including its per-stage trace, which
is summed into batch-wide ``stage_totals``), and is written atomically.

Exit code: 0 when every program produced a result, 1 otherwise.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional

from repro.runtime.resilience import RetryPolicy
from repro.store.atomic import atomic_write_json

#: CLI mode flag per analysis name.
_ANALYSIS_FLAGS = {
    "ander": "-ander",
    "sfs": "-fspta",
    "vsfs": "-vfspta",
    "icfg-fs": "-icfg-fspta",
}


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-wpa batch",
        description="Supervised batch analysis with timeouts, "
                    "checkpoint/resume retries and backoff",
    )
    parser.add_argument("files", nargs="+",
                        help="mini-C source files to analyse")
    parser.add_argument("--analysis", default="vsfs",
                        choices=tuple(_ANALYSIS_FLAGS),
                        help="analysis to run on every program (default vsfs)")
    parser.add_argument("--ir", action="store_true",
                        help="inputs are textual IR")
    parser.add_argument("--budget-seconds", type=float, metavar="S",
                        help="per-attempt solver wall-clock budget")
    parser.add_argument("--budget-mb", type=float, metavar="MB",
                        help="per-attempt traced-memory budget")
    parser.add_argument("--max-steps", type=int, metavar="N",
                        help="per-attempt solver step budget")
    parser.add_argument("--timeout", type=float, default=None, metavar="S",
                        help="per-attempt subprocess wall-clock timeout; "
                             "overrunning workers are killed and retried")
    parser.add_argument("--retries", type=int, default=2, metavar="N",
                        help="retries after the first attempt (default 2)")
    parser.add_argument("--backoff", type=float, default=0.5, metavar="S",
                        help="base retry delay, doubled per retry with "
                             "deterministic per-file jitter (default 0.5s)")
    parser.add_argument("--backoff-jitter", type=float, default=0.25,
                        metavar="F",
                        help="fraction of each retry delay randomised away, "
                             "seeded per program file (default 0.25; 0 "
                             "restores the fixed schedule)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="programs analysed concurrently (default 1)")
    parser.add_argument("--solve-jobs", type=int, default=1, metavar="N",
                        help="sharded workers per solve (repro-wpa --jobs: "
                             "SFS only, other analyses run serially); "
                             "resume-on-retry attempts drop to serial, as "
                             "checkpoints are serial-only")
    parser.add_argument("--checkpoint-dir", metavar="DIR",
                        help="checkpoint root; each program gets its own "
                             "subdirectory, enabling resume-on-retry")
    parser.add_argument("--checkpoint-every", type=int, default=1000,
                        metavar="N", help="checkpoint cadence in solver steps")
    parser.add_argument("--checkpoint-seconds", type=float, metavar="S",
                        help="wall-clock checkpoint cadence")
    parser.add_argument("--store", metavar="DIR",
                        help="shared content-addressed result store")
    parser.add_argument("--no-fallback", action="store_true",
                        help="never degrade, even on the final attempt")
    parser.add_argument("--output", metavar="FILE",
                        help="write the aggregate batch report as JSON")
    return parser


def _worker_env() -> Dict[str, str]:
    """Subprocess environment with the repro package importable."""
    import repro

    package_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (package_root if not existing
                         else package_root + os.pathsep + existing)
    return env


def _slug(path: str) -> str:
    stem = os.path.splitext(os.path.basename(path))[0]
    return re.sub(r"[^A-Za-z0-9._-]", "_", stem) or "program"


def _attempt_cmd(args: argparse.Namespace, file: str, ckdir: Optional[str],
                 report_json: Optional[str], resume: bool,
                 final: bool) -> List[str]:
    cmd = [sys.executable, "-m", "repro.cli",
           _ANALYSIS_FLAGS[args.analysis], file]
    if args.ir:
        cmd.append("--ir")
    if args.budget_seconds is not None:
        cmd += ["--budget-seconds", str(args.budget_seconds)]
    if args.budget_mb is not None:
        cmd += ["--budget-mb", str(args.budget_mb)]
    if args.max_steps is not None:
        cmd += ["--max-steps", str(args.max_steps)]
    if args.solve_jobs > 1 and not resume:
        # repro-wpa runs analyses other than SFS serially, with a warning.
        cmd += ["--jobs", str(args.solve_jobs)]
    if ckdir is not None:
        cmd += ["--checkpoint-dir", ckdir,
                "--checkpoint-every", str(args.checkpoint_every)]
        if args.checkpoint_seconds is not None:
            cmd += ["--checkpoint-seconds", str(args.checkpoint_seconds)]
        if resume:
            cmd.append("--resume")
    if args.store is not None:
        cmd += ["--store", args.store]
    if report_json is not None:
        cmd += ["--report-json", report_json]
    # Degradation is the last resort: only the final attempt may fall
    # back down the ladder, and only when the batch allows fallback.
    if args.no_fallback or not final:
        cmd.append("--no-fallback")
    return cmd


def _run_program(args: argparse.Namespace, env: Dict[str, str],
                 file: str) -> Dict[str, Any]:
    import tempfile

    ckdir = (os.path.join(args.checkpoint_dir, _slug(file))
             if args.checkpoint_dir else None)
    if ckdir is not None:
        report_json = os.path.join(ckdir, "report.json")
    else:
        # Workers always report (per-stage trace feeds the aggregate).
        report_json = os.path.join(
            tempfile.mkdtemp(prefix="repro-batch-report-"), "report.json")
    record: Dict[str, Any] = {"file": file, "analysis": args.analysis,
                              "attempts": [], "status": "failed",
                              "resume_count": 0}
    total_attempts = 1 + max(0, args.retries)
    # Deterministic seeded jitter, keyed per file: concurrent programs
    # that failed at the same instant wake apart instead of in lockstep,
    # and re-running the batch reproduces the identical schedule.
    backoff = RetryPolicy(retries=total_attempts, base_delay=args.backoff,
                          multiplier=2.0, max_delay=None,
                          jitter=args.backoff_jitter).seeded_for(file)
    for attempt in range(total_attempts):
        final = attempt == total_attempts - 1
        if attempt:
            time.sleep(backoff.delay(attempt))
            record["resume_count"] += 1 if ckdir is not None else 0
        cmd = _attempt_cmd(args, file, ckdir, report_json,
                           resume=attempt > 0 and ckdir is not None,
                           final=final)
        begun = time.monotonic()
        entry: Dict[str, Any] = {"attempt": attempt, "final": final,
                                 "resumed": attempt > 0 and ckdir is not None}
        try:
            proc = subprocess.run(cmd, env=env, capture_output=True,
                                  text=True, timeout=args.timeout)
            entry["exit_code"] = proc.returncode
            entry["timed_out"] = False
            if proc.returncode != 0:
                entry["stderr_tail"] = proc.stderr.strip().splitlines()[-3:]
        except subprocess.TimeoutExpired:
            # subprocess.run already killed the worker; its last cadence
            # checkpoint (if any) is what the next attempt resumes from.
            entry["exit_code"] = None
            entry["timed_out"] = True
        entry["seconds"] = round(time.monotonic() - begun, 3)
        record["attempts"].append(entry)
        if entry["exit_code"] == 0:
            record["status"] = "ok"
            break
        if entry["exit_code"] == 2:
            # Parse/IR errors are deterministic: retrying cannot help.
            record["status"] = "input-error"
            break
    if report_json is not None and os.path.exists(report_json):
        import json

        try:
            with open(report_json) as handle:
                record["report"] = json.load(handle)
        except (OSError, ValueError):
            record["report"] = None
    return record


def _stage_totals(records: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Aggregate each worker's per-stage trace: total wall, runs, cache
    hits per stage across the batch (substrate stages keep
    ``main_phase: false`` — the paper excludes them from the timed main
    phase)."""
    totals: Dict[str, Dict[str, Any]] = {}
    for record in records:
        payload = record.get("report") or {}
        for stage in payload.get("stages") or []:
            name = stage.get("stage")
            if not isinstance(name, str):
                continue
            entry = totals.setdefault(name, {
                "runs": 0, "wall_seconds": 0.0, "steps": 0, "cache_hits": 0,
                "main_phase": bool(stage.get("main_phase")),
            })
            entry["runs"] += 1
            entry["wall_seconds"] += float(stage.get("wall_s") or 0.0)
            # Trace steps are per attempt (resumed solves report only their
            # own pops), so summing across retries never double-counts.
            entry["steps"] += int(stage.get("steps") or 0)
            if stage.get("cache_hit"):
                entry["cache_hits"] += 1
    for entry in totals.values():
        entry["wall_seconds"] = round(entry["wall_seconds"], 6)
    return totals


def batch_main(argv: Optional[List[str]] = None) -> int:
    args = build_arg_parser().parse_args(argv)
    env = _worker_env()
    begun = time.monotonic()
    if args.jobs > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            records = list(pool.map(
                lambda file: _run_program(args, env, file), args.files))
    else:
        records = [_run_program(args, env, file) for file in args.files]
    failed = [r for r in records if r["status"] != "ok"]
    summary = {
        "analysis": args.analysis,
        "solve_jobs": args.solve_jobs,
        "programs": len(records),
        "ok": len(records) - len(failed),
        "failed": len(failed),
        "wall_seconds": round(time.monotonic() - begun, 3),
        "stage_totals": _stage_totals(records),
        "results": records,
    }
    if args.output:
        atomic_write_json(args.output, summary)
    for record in records:
        marker = "ok" if record["status"] == "ok" else record["status"]
        attempts = len(record["attempts"])
        print(f"[{marker}] {record['file']} "
              f"({attempts} attempt{'s' if attempts != 1 else ''})")
    print(f"batch: {summary['ok']}/{summary['programs']} ok "
          f"in {summary['wall_seconds']}s")
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(batch_main())

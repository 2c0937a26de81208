"""``repro-wpa`` — command-line whole-program analysis driver.

Mirrors SVF's ``wpa`` tool from the paper's artifact::

    repro-wpa -ander  program.c        # Andersen's analysis
    repro-wpa -fspta  program.c        # staged flow-sensitive (SFS)
    repro-wpa -vfspta program.c        # versioned SFS (the paper)
    repro-wpa -vfspta --ir program.ir  # textual IR input
    repro-wpa -vfspta --stats --dump-pts program.c
    repro-wpa -vfspta --budget-seconds 5 --report program.c

Prints timing/memory statistics and, with ``--dump-pts``, the points-to set
of every top-level variable.  Budget flags govern the run: on exhaustion the
analysis degrades down the ladder (``vsfs → sfs → andersen``) unless
``--no-fallback`` is given.

Crash safety: ``--checkpoint-dir`` snapshots the in-flight solver on a
cadence (``--checkpoint-every`` pops and/or ``--checkpoint-seconds``) and
when a budget trips; ``--resume`` picks the work back up bit-identically.
``--store`` caches completed results content-addressed by IR hash ×
analysis, and additionally caches the Andersen result
(``DIR/stages``) so another analysis of the same program skips it, and
the last SFS/VSFS solution (``DIR/incremental``) so a rerun after an
edit re-solves warm; :func:`repro.pipeline.solve_stored` does all of it.
``--trace`` prints the per-stage breakdown (wall/steps/cache), with the
substrate stages marked excluded from the timed main phase.
``repro-wpa batch ...`` runs a supervised multi-program batch (see
:mod:`repro.batch`); ``repro-wpa chaos ...`` runs the seeded
fault-injection soak harness (see :mod:`repro.chaos`);
``repro-wpa serve ...`` starts the always-on analysis daemon (see
:mod:`repro.service`); ``--list-fault-points`` prints the injectable
fault points by domain.

Resilience: corrupt store/cache entries are quarantined and the answer
recomputed (a warning, not a failure), and a store write that keeps
failing is skipped.  A parallel rung that collapses onto its serial
twin reports ``degraded_from`` but keeps full precision, so the result
is still stored and the message is a notice, not a warning.

Exit codes: 0 success, 1 I/O error, 2 parse/IR error, 3 analysis error
(including an exhausted budget under ``--no-fallback`` and a rejected
``--resume`` checkpoint), 4 parallel worker-crash budget spent under
``--no-fallback`` (with fallback the run collapses onto the serial twin
instead).  The full table lives in README.md §Exit codes.
"""

from __future__ import annotations

import argparse
import resource
import sys
from typing import List, Optional

from repro.errors import (
    IRError,
    ParseError,
    ReproError,
    WorkerCrash,
)

#: CLI exit codes (documented in README.md §Exit codes).  ``batch``
#: treats EXIT_INPUT as a permanent input problem (no retry); every
#: other nonzero code is retried up to its attempt budget.
EXIT_OK = 0
EXIT_IO = 1
EXIT_INPUT = 2
EXIT_ANALYSIS = 3
EXIT_WORKER_CRASH = 4
from repro.pipeline import AnalysisPipeline, solve_stored
from repro.runtime.budget import Budget
from repro.runtime.checkpoint import CheckpointConfig


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-wpa",
        description="Whole-program pointer analysis (VSFS reproduction of CGO'21)",
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("-ander", action="store_const", dest="analysis", const="ander",
                      help="flow-insensitive Andersen's analysis")
    mode.add_argument("-fspta", action="store_const", dest="analysis", const="sfs",
                      help="staged flow-sensitive analysis (SFS)")
    mode.add_argument("-vfspta", action="store_const", dest="analysis", const="vsfs",
                      help="versioned staged flow-sensitive analysis (VSFS)")
    mode.add_argument("-icfg-fspta", action="store_const", dest="analysis", const="icfg-fs",
                      help="dense flow-sensitive analysis on the ICFG (slow)")
    parser.add_argument("file", help="mini-C source file (or textual IR with --ir)")
    parser.add_argument("--ir", action="store_true", help="input is textual IR")
    parser.add_argument("--stats", action="store_true", help="print SVFG statistics")
    parser.add_argument("--dump-pts", action="store_true",
                        help="print points-to sets of top-level variables")
    parser.add_argument("--profile", action="store_true",
                        help="print a solver work/dedup report (propagations, "
                             "unions, unique vs referenced sets)")
    parser.add_argument("--budget-seconds", type=float, metavar="S",
                        help="wall-clock budget for the solve phase")
    parser.add_argument("--budget-mb", type=float, metavar="MB",
                        help="traced-memory budget for the solve phase")
    parser.add_argument("--max-steps", type=int, metavar="N",
                        help="solver step (worklist pop) budget")
    parser.add_argument("--no-fallback", action="store_true",
                        help="fail with exit code 3 instead of degrading "
                             "down the ladder when the budget is exhausted")
    parser.add_argument("--list-fault-points", action="store_true",
                        help="list the injectable fault points by domain "
                             "and exit (see also `repro-wpa chaos`)")
    parser.add_argument("--report", action="store_true",
                        help="print the run report (attempts, budget "
                             "consumed, degradation)")
    parser.add_argument("--trace", action="store_true",
                        help="print the per-stage trace (wall/steps/cache "
                             "per stage; substrate stages are excluded "
                             "from the main phase)")
    parser.add_argument("--report-json", metavar="FILE",
                        help="write the run report as JSON (atomically)")
    parser.add_argument("--checkpoint-dir", metavar="DIR",
                        help="write crash-safe solver checkpoints to DIR")
    parser.add_argument("--checkpoint-every", type=int, default=1000,
                        metavar="N",
                        help="checkpoint cadence in solver steps "
                             "(default 1000; 0 disables the step cadence)")
    parser.add_argument("--checkpoint-seconds", type=float, metavar="S",
                        help="additional wall-clock checkpoint cadence")
    parser.add_argument("--resume", nargs="?", const=True, default=None,
                        metavar="PATH",
                        help="resume from a checkpoint: PATH names a file "
                             "or directory; bare --resume searches "
                             "--checkpoint-dir (fresh start if none found)")
    parser.add_argument("--store", metavar="DIR",
                        help="content-addressed result store: reuse a "
                             "cached result when present, save the result "
                             "on completion; also caches the Andersen "
                             "result (DIR/stages) for later analyses of "
                             "the same program")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="solve -fspta on N sharded workers "
                             "(repro.parallel); results are bit-identical "
                             "to the serial solve.  Other analyses run "
                             "serially with a warning")
    parser.add_argument("--parallel-mode", choices=("fork", "inline"),
                        help="parallel transport override (default: fork "
                             "when available on a multicore host, else "
                             "in-process workers)")
    parser.add_argument("--check-null", action="store_true",
                        help="report dereferences through possibly-null pointers")
    parser.add_argument("--dead-stores", action="store_true",
                        help="report stores no load can observe")
    parser.add_argument("--dot-svfg", metavar="FILE",
                        help="write the SVFG as Graphviz DOT")
    parser.add_argument("--dot-callgraph", metavar="FILE",
                        help="write the resolved call graph as Graphviz DOT")
    parser.set_defaults(analysis="vsfs")
    return parser


def _budget_from(args: argparse.Namespace) -> Optional[Budget]:
    if args.budget_seconds is None and args.budget_mb is None \
            and args.max_steps is None:
        return None
    max_memory = None
    if args.budget_mb is not None:
        max_memory = int(args.budget_mb * 1024 * 1024)
    return Budget(wall_seconds=args.budget_seconds, max_steps=args.max_steps,
                  max_memory_bytes=max_memory)


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point: I/O errors exit 1, parse/IR errors 2, analysis errors 3."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "batch":
        from repro.batch import batch_main

        return batch_main(argv[1:])
    if argv and argv[0] == "chaos":
        from repro.chaos import chaos_main

        return chaos_main(argv[1:])
    if argv and argv[0] == "serve":
        from repro.service.cli import serve_main

        return serve_main(argv[1:])
    if "--list-fault-points" in argv:
        # Informational: valid without a program file, so intercept
        # before argparse enforces the positional.
        from repro.runtime.faults import describe_fault_points

        print(describe_fault_points())
        return 0
    args = build_arg_parser().parse_args(argv)
    if isinstance(args.resume, str) and args.resume.endswith((".c", ".ir")):
        # argparse greedily binds "--resume prog.c" as the PATH; a source
        # file is never a checkpoint, so reject with guidance instead of
        # resuming from garbage.
        print(f"repro-wpa: error: --resume consumed {args.resume!r} as its "
              f"PATH; use --resume=PATH or place --resume before another "
              f"flag", file=sys.stderr)
        return 1
    try:
        with open(args.file) as handle:
            source = handle.read()
    except OSError as err:
        print(f"repro-wpa: error: {err}", file=sys.stderr)
        return EXIT_IO
    try:
        return _run(args, source)
    except ReproError as err:
        print(f"repro-wpa: error: {err}", file=sys.stderr)
        report = getattr(err, "run_report", None)
        if args.report and report is not None:
            print(report.render(), file=sys.stderr)
        if isinstance(err, (ParseError, IRError)):
            return EXIT_INPUT
        if isinstance(err, WorkerCrash):
            # Distinguishable from analysis errors so supervisors can
            # react (e.g. retry serially) without parsing stderr.
            return EXIT_WORKER_CRASH
        return EXIT_ANALYSIS


def _checkpoint_config(args: argparse.Namespace) -> Optional[CheckpointConfig]:
    if args.checkpoint_dir is None:
        return None
    every_steps = args.checkpoint_every if args.checkpoint_every > 0 else None
    return CheckpointConfig(args.checkpoint_dir, every_steps=every_steps,
                            every_seconds=args.checkpoint_seconds)


#: stderr warning per failure the stored solve absorbed, read off the
#: heal trail by (point, action).
_HEAL_WARNINGS = {
    ("result_store_get", "recompute"):
        "corrupt result-store entry quarantined ({path}); recomputing",
    ("incremental_load", "recompute"):
        "stale incremental solution quarantined ({reason}); solving cold",
    ("result_store_put", "skip-write"):
        "result not stored ({error}: {message}); continuing",
    ("incremental_save", "skip-write"):
        "incremental solution not stored ({error}: {message}); continuing",
}


def _run(args: argparse.Namespace, source: str) -> int:
    store = cache = incremental = None
    if args.store is not None:
        import os

        from repro.engine import StageCache
        from repro.store import ResultStore

        store = ResultStore(args.store)
        cache = StageCache(os.path.join(args.store, "stages"))
        incremental = os.path.join(args.store, "incremental")
    pipeline = AnalysisPipeline.from_source(
        source, language="ir" if args.ir else "c", cache=cache)
    module = pipeline.module

    # --jobs shards SFS only.  The result store stays keyed by the serial
    # analysis name: the parallel solve is bit-identical, so serial and
    # parallel runs share cache entries.
    if args.jobs > 1 and args.analysis != "sfs":
        print("repro-wpa: warning: --jobs applies to -fspta only; "
              "running serially", file=sys.stderr)
    elif args.jobs > 1 and args.resume is not None:
        print("repro-wpa: warning: --resume is serial-only; ignoring "
              "--jobs", file=sys.stderr)

    result, hit = solve_stored(
        pipeline, args.analysis, store=store, incremental=incremental,
        budget=_budget_from(args), fallback=not args.no_fallback,
        checkpoint=_checkpoint_config(args),
        resume_from=args.resume, jobs=args.jobs,
        parallel_mode=args.parallel_mode)
    if hit:
        print(f"repro-wpa: result store hit ({store.last_path})",
              file=sys.stderr)
        _print_result(args, result, run_report=None)
        if args.trace:
            print(pipeline.trace.render())
        if args.report_json:
            _write_report_json(args.report_json, None, store_hit=True,
                               trace=pipeline.trace)
        return _client_flags(args, module, pipeline, result)

    run_report = result.report
    for heal in run_report.self_heal:
        warning = _HEAL_WARNINGS.get((heal.get("point"), heal.get("action")))
        if warning is not None:
            print("repro-wpa: warning: " + warning.format(**heal),
                  file=sys.stderr)
    if run_report.precision_lost:
        print(f"repro-wpa: warning: {run_report.summary()}", file=sys.stderr)
    elif run_report.degraded:
        # A parallel rung collapsed onto its serial twin: bit-identical
        # result at full precision, so a notice rather than a warning.
        print(f"repro-wpa: notice: {run_report.summary()} "
              f"(bit-identical serial result)", file=sys.stderr)
    if run_report.resumed:
        print(f"repro-wpa: resumed from step {run_report.resumed_from_step}",
              file=sys.stderr)
    if store is not None and store.last_path is not None:
        print(f"repro-wpa: result stored at {store.last_path}",
              file=sys.stderr)
    incr = run_report.incremental
    if incr and incr.get("fallback_reason"):
        print(f"repro-wpa: notice: incremental plan fell back "
              f"({incr['fallback_reason']}); solving cold", file=sys.stderr)
    elif incr:
        print(f"repro-wpa: incremental: {incr['regions_reused']}/"
              f"{incr['regions_total']} regions reused, "
              f"{len(incr['dirty_functions'])} dirty function(s), "
              f"{incr['steps_saved']} solver steps saved", file=sys.stderr)
    _print_result(args, result, run_report)
    # ru_maxrss is in KiB on Linux: the whole process's peak, untraced.
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"peak RSS: {peak_kib / 1024:.1f} MiB")

    if args.report:
        print(run_report.render())
    if args.trace:
        print(pipeline.trace.render())
    if args.report_json:
        _write_report_json(args.report_json, run_report,
                           trace=pipeline.trace)
    return _client_flags(args, module, pipeline, result)


def _print_result(args: argparse.Namespace, result, run_report) -> None:
    stats = result.stats
    label = getattr(stats, "analysis", "ander")
    if args.analysis == "ander":
        print(f"[ander] solve time: {result.stats.solve_time:.4f}s, "
              f"processed nodes: {result.stats.processed_nodes}, "
              f"copy edges: {result.stats.copy_edges}")
    elif label == "icfg-fs":
        print(f"[icfg-fs] solve time: {stats.solve_time:.4f}s, "
              f"propagations: {stats.propagations}, stored sets: {stats.stored_ptsets}")
    elif label == "andersen":
        # Degraded: Andersen floor repackaged as a flow-sensitive result.
        degraded_from = run_report.degraded_from if run_report else None
        print(f"[andersen] fallback result (degraded from "
              f"{degraded_from}): "
              f"call edges: {stats.callgraph_edges}, "
              f"top-level bits: {stats.top_level_bits}")
    else:
        print(f"[{label}] main phase: {stats.solve_time:.4f}s"
              + (f", versioning: {stats.pre_time:.4f}s" if label == "vsfs" else ""))
        print(f"[{label}] propagations: {stats.propagations}, unions: {stats.unions}, "
              f"stored points-to sets: {stats.stored_ptsets}")
        print(f"[{label}] strong updates: {stats.strong_updates}, "
              f"call edges: {stats.callgraph_edges}")
        parallel = getattr(result, "parallel", None)
        if parallel is not None:
            per_worker = ", ".join(
                f"w{w['worker']}: {w['pops']} pops/{w['solve_s']:.3f}s"
                for w in parallel.workers)
            print(f"[{label}] parallel: {parallel.jobs} workers "
                  f"({parallel.mode}), {parallel.shards} shards over "
                  f"{parallel.components} SCCs, {parallel.rounds} rounds, "
                  f"{parallel.frontier_entries} frontier entries")
            print(f"[{label}] per-worker: {per_worker}")


def _write_report_json(path: str, run_report, store_hit: bool = False,
                       trace=None) -> None:
    from repro.store.atomic import atomic_write_json

    payload = {"store_hit": store_hit,
               "report": run_report.to_dict() if run_report else None,
               # Lifted out of the report for one-line CI assertions.
               "incremental": (run_report.incremental
                               if run_report is not None else None),
               "stages": trace.to_dict() if trace is not None else None,
               "self_heal": list(getattr(trace, "heals", []) or [])}
    atomic_write_json(path, payload)


def _client_flags(args: argparse.Namespace, module, pipeline, result) -> int:
    """The post-solve flags; shared by the solve and store-hit paths."""
    if args.profile:
        from repro.solvers.base import SolverStats

        stats = getattr(result, "stats", None)
        if not isinstance(stats, SolverStats):
            print("--profile needs a staged analysis (-fspta or -vfspta)",
                  file=sys.stderr)
            return 1
        print("--- solver profile ---")
        print(f"nodes processed: {stats.nodes_processed}, "
              f"propagations: {stats.propagations}, unions applied: {stats.unions}")
        print(f"stored points-to sets: {stats.stored_ptsets} "
              f"({stats.stored_ptset_bits} bits)")
        print(f"unique points-to sets: {stats.unique_ptsets} "
              f"({stats.unique_ptset_bits} bits), "
              f"dedup ratio: {stats.dedup_ratio():.2f}x")
        incr = getattr(result, "incremental", None)
        if incr is not None:
            entry = incr.to_dict()
            if entry.get("fallback_reason"):
                print(f"incremental: cold solve "
                      f"(fallback={entry['fallback_reason']})")
            else:
                print(f"incremental: {entry['regions_reused']}/"
                      f"{entry['regions_total']} regions reused, "
                      f"{entry['regions_recomputed']} recomputed; "
                      f"{entry['nodes_dirty']}/{entry['nodes_total']} "
                      f"nodes dirty")
                print(f"incremental: dirty functions: "
                      f"{', '.join(entry['dirty_functions']) or '(none)'}")
                print(f"incremental: warm steps: {entry['warm_steps']} "
                      f"(cold baseline {entry['cold_steps_baseline']}, "
                      f"saved {entry['steps_saved']})")

    if args.stats:
        svfg_stats = pipeline.svfg().stats()
        print(f"SVFG: {svfg_stats.num_nodes} nodes, "
              f"{svfg_stats.num_direct_edges} direct edges, "
              f"{svfg_stats.num_indirect_edges} indirect edges, "
              f"{svfg_stats.num_top_level_vars} top-level vars, "
              f"{svfg_stats.num_address_taken_vars} address-taken vars, "
              f"{svfg_stats.num_delta_nodes} delta nodes")

    if args.dump_pts:
        for var in module.variables:
            pts = result.points_to(var) if hasattr(result, "points_to") else set()
            if pts:
                names = ", ".join(sorted(obj.name for obj in pts))
                print(f"pt({var!r}) = {{{names}}}")

    if args.check_null:
        from repro.clients.nullderef import find_null_derefs
        from repro.solvers.base import FlowSensitiveResult

        if not isinstance(result, FlowSensitiveResult):
            print("--check-null needs a flow-sensitive analysis", file=sys.stderr)
            return 1
        report = find_null_derefs(module, result, pipeline.andersen())
        print(f"null-dereference warnings: {len(report)} "
              f"({len(report.flow_sensitive_only())} invisible to Andersen)")
        for warning in report:
            print(f"  {warning.describe()}")

    if args.dead_stores:
        from repro.clients.deadstore import find_dead_stores

        report = find_dead_stores(module, pipeline.svfg())
        print(f"dead stores: {len(report)} (observable: {report.observable})")
        for dead in report:
            print(f"  {dead.describe()}")

    if args.dot_svfg:
        from repro.core.versioning import ObjectVersioning
        from repro.store.atomic import atomic_write_text
        from repro.viz.dot import svfg_to_dot

        svfg = pipeline.svfg()
        versioning = ObjectVersioning(svfg, keep_all_versions=True).run()
        atomic_write_text(args.dot_svfg, svfg_to_dot(svfg,
                                                     versioning=versioning))
        print(f"SVFG written to {args.dot_svfg}")

    if args.dot_callgraph:
        from repro.store.atomic import atomic_write_text
        from repro.viz.dot import callgraph_to_dot

        graph = result.callgraph if hasattr(result, "callgraph") else pipeline.andersen().callgraph
        atomic_write_text(args.dot_callgraph, callgraph_to_dot(graph))
        print(f"call graph written to {args.dot_callgraph}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Timing wrappers for the traced run.

:func:`install` wraps the public callables of each layer in a span and
patches every binding the program calls through: a function is replaced
in every loaded ``repro`` module that holds it (so
``repro.engine.stages.build_memssa`` is traced as well as
``repro.memssa.builder.build_memssa``), a method is replaced on its
class.  A target that no longer exists raises, so a renamed binding
fails the traced run instead of silently dropping a layer.

Spans nest: a span's parent is the innermost span open on the same
thread.  They are kept in memory and summarised once, when the traced
process is done.  A span's self time is its duration minus its direct
children's durations; ``unattributed`` is the traced wall time that no
top-level span covers.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

ALL = ("vsfs-cold", "sfs-cold", "sfs-jobs2", "edit-mix")

#: span name -> (targets as "module:attribute[.method]", workloads on which
#: the span must fire).  The workload column is the coverage guard.
SPANS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "frontend.compile_c": (("repro.frontend.compile:compile_c",), ALL),
    "passes.prepare_module": (("repro.passes.prepare:prepare_module",), ALL),
    "analysis.andersen": (("repro.analysis.andersen:AndersenAnalysis.run",),
                          ALL),
    "analysis.modref": (("repro.analysis.modref:compute_modref",), ALL),
    "memssa.build": (("repro.memssa.builder:build_memssa",), ALL),
    "svfg.build": (("repro.svfg.builder:build_svfg",), ALL),
    "svfg.copy": (("repro.svfg.builder:SVFG.copy",),
                  ("vsfs-cold", "sfs-cold")),
    "core.versioning": (("repro.core.versioning:version_objects",),
                        ("vsfs-cold", "edit-mix")),
    "core.vsfs_run": (("repro.core.vsfs:VSFSAnalysis.run",),
                      ("vsfs-cold", "edit-mix")),
    "solvers.sfs_run": (("repro.solvers.sfs:SFSAnalysis.run",),
                        ("sfs-cold",)),
    "parallel.solve": (("repro.parallel.driver:solve_parallel",),
                       ("sfs-jobs2",)),
    "engine.ensure": (("repro.engine.engine:Engine.ensure",), ALL),
    "engine.solve": (("repro.engine.engine:Engine.solve",), ALL),
    "runtime.ladder": (("repro.runtime.degrade:solve_with_ladder",), ALL),
    "incremental.plan_warm": (("repro.incremental.solution:plan_warm",),
                              ("edit-mix",)),
    "incremental.build_payload": (
        ("repro.incremental.solution:build_payload",), ("edit-mix",)),
    "incremental.slot_io": (
        ("repro.incremental.solution:IncrementalStore.load",
         "repro.incremental.solution:IncrementalStore.save"), ("edit-mix",)),
    "store.result_store": (("repro.store:ResultStore.get",
                            "repro.store:ResultStore.put"), ("edit-mix",)),
    "store.stage_cache": (("repro.engine.cache:StageCache.lookup",
                           "repro.engine.cache:StageCache.store"),
                          ("edit-mix",)),
    "clients.alias": (("repro.clients.aliases:AliasOracle.may_alias",
                       "repro.clients.aliases:AliasOracle.pointees"),
                      ("edit-mix",)),
    "clients.nullderef": (("repro.clients.nullderef:find_null_derefs",),
                          ("edit-mix",)),
    "clients.slice": (("repro.clients.slicer:ValueFlowSlicer.backward_slice",
                       "repro.clients.slicer:ValueFlowSlicer.forward_slice",
                       "repro.clients.slicer:ValueFlowSlicer.describe"),
                      ("edit-mix",)),
}


def _count_andersen(counters, result) -> None:
    counters["analysis.andersen.processed_nodes"] += \
        result.stats.processed_nodes


def _count_svfg(counters, svfg) -> None:
    counters["svfg.nodes"] += len(svfg.nodes)
    counters["svfg.indirect_edges"] += svfg.num_indirect_edges()


def _count_versioning(counters, versioning) -> None:
    counters["core.versions"] += versioning.stats.versions
    counters["core.meld_steps"] += versioning.stats.meld_steps


def _count_solver(prefix: str) -> Callable[[Any, Any], None]:
    def count(counters, result) -> None:
        for field in ("nodes_processed", "propagations", "unions"):
            counters[f"{prefix}.{field}"] += getattr(result.stats, field)
    return count


def _count_ladder(counters, result) -> None:
    stats = result.stats
    for field in ("batch_memo_hits", "batch_memo_misses",
                  "union_cache_hits", "union_cache_misses"):
        counters[f"ladder.{field}"] += getattr(stats, field, 0)


def _count_parallel(counters, result) -> None:
    pstats = result.parallel
    counters["parallel.rounds"] += pstats.rounds
    counters["parallel.frontier_entries"] += pstats.frontier_entries
    counters["parallel.worker_busy_s"] += sum(
        worker["solve_s"] for worker in pstats.workers)
    counters["parallel.wall_x_jobs_s"] += pstats.wall_s * pstats.jobs


def _count_cache_probe(counters, probe) -> None:
    counters["store.stage_cache_lookups"] += 1
    counters["store.stage_cache_hits"] += probe.mode != "miss"


#: target -> counter hook over the callable's return value.
HOOKS: Dict[str, Callable[[Any, Any], None]] = {
    "repro.analysis.andersen:AndersenAnalysis.run": _count_andersen,
    "repro.svfg.builder:build_svfg": _count_svfg,
    "repro.core.versioning:version_objects": _count_versioning,
    "repro.core.vsfs:VSFSAnalysis.run": _count_solver("core.vsfs_run"),
    "repro.solvers.sfs:SFSAnalysis.run": _count_solver("solvers.sfs_run"),
    "repro.runtime.degrade:solve_with_ladder": _count_ladder,
    "repro.parallel.driver:solve_parallel": _count_parallel,
    "repro.engine.cache:StageCache.lookup": _count_cache_probe,
}


class Tracer:
    """In-memory span recorder shared by every thread of one process."""

    def __init__(self):
        #: [name, start, end, parent index or None]
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(int)
        #: Wall-time windows the spans are attributed against.
        self.windows: List[Tuple[float, float]] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable,
             hook: Optional[Callable[[Any, Any], None]] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            record = [name, 0.0, None, stack[-1] if stack else None]
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(record)
            stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(tracer.counters, result)
            return result

        return traced

    def window(self, fn: Callable) -> Callable:
        """Wrap *fn* so that each call's interval is a wall-time window."""
        tracer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.windows.append((start, time.perf_counter()))

        return timed

    def summary(self) -> Dict[str, Any]:
        """Self time and calls per span, checked against the windows."""
        children = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                children[parent] += end - start
        self_s: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        top: List[Tuple[float, float]] = []
        for index, (name, start, end, parent) in enumerate(self.spans):
            self_s[name] += end - start - children[index]
            calls[name] += 1
            if parent is None:
                top.append((start, end))
        wall = sum(end - start for start, end in self.windows)
        covered = sum(_overlap(_union(top), window)
                      for window in self.windows)
        unattributed = wall - covered
        attributed = sum(self_s.values()) + unattributed
        return {
            "spans": {name: [self_s[name], calls[name]] for name in calls},
            "counters": dict(self.counters),
            "wall_s": wall,
            "unattributed_s": unattributed,
            "coverage_error": abs(attributed - wall) / wall if wall else 1.0,
        }


def _union(intervals: Sequence[Tuple[float, float]]) -> List[Tuple[float, float]]:
    merged: List[List[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(start, end) for start, end in merged]


def _overlap(intervals: Sequence[Tuple[float, float]],
             window: Tuple[float, float]) -> float:
    lo, hi = window
    return sum(max(0.0, min(end, hi) - max(start, lo))
               for start, end in intervals)


def _resolve(target: str) -> Tuple[Any, str, Any]:
    """``module:attr[.method]`` -> (owner, attribute name, current value)."""
    module_name, __, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    if not hasattr(owner, parts[-1]):
        raise AttributeError(f"span target {target!r} does not exist")
    return owner, parts[-1], getattr(owner, parts[-1])


def install(tracer: Tracer) -> None:
    """Wrap every span target; raises when a target is missing."""
    for name, (targets, __) in SPANS.items():
        for target in targets:
            owner, attr, original = _resolve(target)
            wrapped = tracer.wrap(name, original, HOOKS.get(target))
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
                continue
            for module_name, module in list(sys.modules.items()):
                if module is None or not (module_name == "repro"
                                          or module_name.startswith("repro.")):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)


def install_service_probes(tracer: Tracer) -> None:
    """Time the daemon's requests (the windows) and each request's queue
    wait and execute time on the worker thread."""
    from repro.service.server import AnalysisService

    AnalysisService.handle_line = tracer.window(AnalysisService.handle_line)
    handle_ticket = AnalysisService._handle_ticket

    @functools.wraps(handle_ticket)
    def probed(self, ticket):
        start = time.monotonic()
        tracer.counters["service.queue_wait_s"] += start - ticket.created_at
        try:
            return handle_ticket(self, ticket)
        finally:
            tracer.counters["service.execute_s"] += time.monotonic() - start

    AnalysisService._handle_ticket = probed

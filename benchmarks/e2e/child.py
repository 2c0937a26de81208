"""One analysis process of the benchmark, driven by ``run.py``.

Modes (``PYTHONPATH`` must name the program's ``src``)::

    child.py batch        import repro, print a ready line, then analyse
                          the one job read from stdin through the
                          repro-wpa path and print one reply line
    child.py reference    answer reference jobs from stdin (untimed)
    child.py serve OUT ARGS...
                          run ``repro-wpa serve ARGS`` with the span
                          wrappers installed; write the span summary to
                          OUT when the daemon exits

Protocol lines are JSON on the original stdout; anything the program
prints goes to stderr.  Only the standard library is imported at module
level, so ``run.py`` can import :func:`points_to_digest` from here.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import sys
import time
from collections import Counter
from typing import Any, Dict, List, Sequence, TextIO


def points_to_digest(names: Sequence[str], masks: Sequence[int],
                     objects: Sequence[str], strip: str = "") -> str:
    """SHA-256 of the canonical points-to map: every variable (its name
    plus occurrence number, since names repeat across functions) to the
    sorted names of its pointees.  *strip* (a seed's identifier prefix)
    is removed from every name, so all seeds of a program share one
    digest."""
    seen: Counter = Counter()
    rows = []
    for index, name in enumerate(names):
        name = name.replace(strip, "") if strip else name
        seen[name] += 1
        mask = masks[index] if index < len(masks) else 0
        pointees = sorted(
            objects[bit].replace(strip, "") if strip else objects[bit]
            for bit in range(mask.bit_length()) if mask >> bit & 1)
        rows.append([f"{name}#{seen[name]}", pointees])
    text = json.dumps(rows, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def host_calibration() -> float:
    """Seconds a fixed pure-Python loop takes: tracks host speed drift."""
    start = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - start


def _rss_mib(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _result_digest(result, strip: str) -> str:
    module = result.module
    return points_to_digest([var.name for var in module.variables],
                            [result.pts_mask(var) for var in module.variables],
                            [obj.name for obj in module.objects], strip)


def _solve(source: str, analysis: str, jobs: int = 1):
    """The repro-wpa path: source → substrate → governed solve."""
    from repro.pipeline import AnalysisPipeline
    from repro.runtime.degrade import solve_with_ladder

    t0 = time.perf_counter()
    pipeline = AnalysisPipeline.from_source(source)
    pipeline.svfg()
    t1 = time.perf_counter()
    level = f"{analysis}-par" if jobs > 1 else analysis
    result = solve_with_ladder(pipeline, analysis=level, jobs=jobs)
    t2 = time.perf_counter()
    return pipeline, result, level, (t0, t1, t2)


def batch(out: TextIO) -> None:
    import repro.pipeline  # noqa: F401 — the imports every run pays
    import repro.runtime.degrade  # noqa: F401

    _send(out, {"ready": True})
    job = json.loads(sys.stdin.readline())
    tracer = None
    if job.get("trace"):
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    __, result, level, (t0, t1, t2) = _solve(
        job["source"], job["analysis"], job["jobs"])
    reply: Dict[str, Any] = {
        "analysis_s": t2 - t0,
        "solve_s": t2 - t1,
        "rss_mib": _rss_mib(resource.RUSAGE_SELF),
        "workers_rss_mib": _rss_mib(resource.RUSAGE_CHILDREN),
        "requested": level,
        "precision_level": result.precision_level,
        "digest": _result_digest(result, job["strip"]),
        "host_calib_s": host_calibration(),
    }
    if tracer is not None:
        tracer.windows.append((t0, t2))
        reply["trace"] = tracer.summary()
    _send(out, reply)


def _unique_defs(module, function: str, svfg) -> List[str]:
    """Names of variables defined in *function* that name one variable
    only and have a defining SVFG node (so alias and slice resolve)."""
    counts = Counter(var.name for var in module.variables)
    names = []
    for inst in module.functions[function].instructions():
        var = inst.result()
        if var is not None and counts[var.name] == 1 \
                and svfg.var_def_node.get(var.id) is not None:
            names.append(var.name)
    return names


def _query_answers(pipeline, result, function: str, pick_seed: int
                   ) -> List[Dict[str, Any]]:
    """Pick the three queries on *function* and answer them in-process."""
    from repro.clients.aliases import AliasOracle
    from repro.clients.nullderef import find_null_derefs
    from repro.clients.slicer import ValueFlowSlicer

    module = result.module
    svfg = pipeline.svfg()
    candidates = _unique_defs(module, function, svfg)
    if not candidates:
        raise RuntimeError(f"no queryable variable in {function}")
    rng = random.Random(pick_seed)
    a, b = rng.choice(candidates), rng.choice(candidates)
    var = rng.choice(candidates)
    by_name = {v.name: v for v in module.variables}
    oracle = AliasOracle(module, result)
    nulls = find_null_derefs(module, result, pipeline.andersen())
    slicer = ValueFlowSlicer(svfg)
    nodes = slicer.backward_slice(slicer.node_for_variable(by_name[var]))
    return [
        {"op": "alias", "params": {"a": a, "b": b}, "answer": {
            "may_alias": bool(oracle.may_alias(by_name[a], by_name[b])),
            "pointees_a": sorted(o.name for o in oracle.pointees(by_name[a])),
            "pointees_b": sorted(o.name for o in oracle.pointees(by_name[b])),
        }},
        {"op": "nullderef", "params": {}, "answer": {
            "count": len(nulls),
            "warnings": [w.describe() for w in nulls],
        }},
        {"op": "slice", "params": {"var": var, "direction": "backward"},
         "answer": {
             "nodes": sorted(nodes),
             "instructions": slicer.describe(nodes).splitlines(),
         }},
    ]


def reference(out: TextIO) -> None:
    """Answers from a different code path than the measured one: a cold
    in-process solve per program, with the analysis the job names."""
    _send(out, {"ready": True})
    replies = []
    for job in json.loads(sys.stdin.readline()):
        pipeline, result, level, __ = _solve(job["source"], job["analysis"])
        reply: Dict[str, Any] = {
            "precision_level": result.precision_level, "requested": level,
            "digest": _result_digest(result, job.get("strip", ""))}
        if job.get("function"):
            reply["queries"] = _query_answers(pipeline, result,
                                              job["function"],
                                              job["pick_seed"])
        replies.append(reply)
    _send(out, {"replies": replies, "host_calib_s": host_calibration()})


def serve(out_path: str, argv: List[str]) -> int:
    import spans

    tracer = spans.Tracer()
    spans.install(tracer)
    spans.install_service_probes(tracer)
    from repro.cli import main

    try:
        return main(["serve", *argv])
    finally:
        with open(out_path, "w") as handle:
            json.dump(tracer.summary(), handle)


def _send(out: TextIO, payload: Dict[str, Any]) -> None:
    out.write(json.dumps(payload) + "\n")
    out.flush()


def main() -> int:
    mode = sys.argv[1]
    if mode == "serve":
        return serve(sys.argv[2], sys.argv[3:])
    # Keep the protocol channel to ourselves: the program's own prints
    # go to stderr.
    out = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    sys.stdout = sys.stderr
    {"batch": batch, "reference": reference}[mode](out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

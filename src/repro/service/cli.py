"""``repro-wpa serve`` — the always-on analysis daemon's front door.

Starts an :class:`~repro.service.server.AnalysisService` and speaks one
of the two transports (:mod:`repro.service.transport`)::

    repro-wpa serve --store cache/                 # stdio JSONL
    repro-wpa serve --store cache/ --http --port 8377

    echo '{"op": "analyze", "program": "int g; int main() { int *p; \\
          p = &g; return 0; }"}' | repro-wpa serve --store cache/

Every durable artifact lives under ``--store`` (results, stage cache,
incremental slots), which is the same layout the batch CLI uses — so a daemon
restarted onto a warm store answers bit-identically to a cold
``repro-wpa --store`` run, and the two can share one directory.

SIGTERM (and stdin EOF) triggers a graceful drain: in-flight requests
finish, queued ones are answered with a typed draining rejection and a
retry-after hint, then the process exits 0.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional

from repro.errors import ReproError
from repro.service.admission import TenantPolicy
from repro.service.server import AnalysisService, ServiceConfig
from repro.service.transport import (
    install_sigterm_drain,
    serve_http,
    serve_stdio,
)


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-wpa serve",
        description="Run the supervised always-on analysis daemon",
    )
    parser.add_argument("--store", metavar="DIR",
                        help="durable substrate directory (results, stage "
                             "cache); omitting it serves purely "
                             "in-memory — no warm restart")
    parser.add_argument("--http", action="store_true",
                        help="serve localhost HTTP instead of stdio JSONL")
    parser.add_argument("--host", default="127.0.0.1",
                        help="HTTP bind host (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=0,
                        help="HTTP port (default 0 = pick a free one)")
    parser.add_argument("--workers", type=int, default=2, metavar="N",
                        help="supervised worker threads (default 2)")
    parser.add_argument("--queue-depth", type=int, default=64, metavar="N",
                        help="admission queue bound; excess load is shed "
                             "with typed retry-after responses (default 64)")
    parser.add_argument("--max-programs", type=int, default=8, metavar="N",
                        help="warm program sessions kept (LRU, default 8)")
    parser.add_argument("--default-deadline", type=float, default=30.0,
                        metavar="S",
                        help="deadline for requests that carry none "
                             "(default 30s; 0 = unlimited)")
    parser.add_argument("--tenant", action="append", default=[],
                        metavar="NAME=QUEUED[:WALL_S]",
                        help="per-tenant policy: max queued requests and an "
                             "optional wall-clock clamp, e.g. ci=4:10")
    parser.add_argument("--breaker-threshold", type=int, default=3,
                        metavar="N",
                        help="consecutive failures before a (tenant, "
                             "program) breaker opens (default 3)")
    parser.add_argument("--breaker-cooldown", type=float, default=30.0,
                        metavar="S",
                        help="seconds an open breaker waits before its "
                             "half-open probe (default 30)")
    return parser


def _parse_tenants(specs: List[str]) -> Dict[str, TenantPolicy]:
    tenants: Dict[str, TenantPolicy] = {}
    for spec in specs:
        name, sep, rest = spec.partition("=")
        if not sep or not name:
            raise ReproError(f"bad --tenant spec {spec!r}; "
                             f"want NAME=QUEUED[:WALL_S]")
        queued, __, wall = rest.partition(":")
        try:
            max_queued = int(queued)
            max_wall = float(wall) if wall else None
        except ValueError as err:
            raise ReproError(f"bad --tenant spec {spec!r}: {err}") from err
        tenants[name] = TenantPolicy(max_queued=max_queued,
                                     max_wall_s=max_wall)
    return tenants


def service_from_args(args: argparse.Namespace,
                      faults=None) -> AnalysisService:
    deadline = args.default_deadline if args.default_deadline > 0 else None
    config = ServiceConfig(
        store_dir=args.store,
        queue_depth=args.queue_depth,
        workers=args.workers,
        max_programs=args.max_programs,
        default_deadline_s=deadline,
        tenants=_parse_tenants(args.tenant),
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown_s=args.breaker_cooldown,
        faults=faults,
    )
    return AnalysisService(config)


def serve_main(argv: Optional[List[str]] = None) -> int:
    args = build_serve_parser().parse_args(argv)
    try:
        service = service_from_args(args)
    except ReproError as err:
        print(f"repro-wpa serve: error: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"repro-wpa serve: error: {err}", file=sys.stderr)
        return 1
    service.start()
    install_sigterm_drain(service)
    try:
        if args.http:
            return serve_http(service, host=args.host, port=args.port)
        return serve_stdio(service)
    except KeyboardInterrupt:
        service.drain()
        return 0
    finally:
        if not service.draining:
            service.drain(reply_grace_s=5.0)

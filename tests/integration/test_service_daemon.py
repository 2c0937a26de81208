"""The always-on analysis daemon, end to end (DESIGN.md §13).

The service contract: every wire response is a typed JSON envelope —
overload sheds, deadline misses, injected faults and worker crashes all
classify; a warm restart answers bit-identically to a cold boot; drain
is graceful (in-flight finish, queued requests get a typed retry hint).
"""

import glob
import io
import json
import os
import threading
import urllib.request

import pytest

from repro.chaos import (
    DaemonRun,
    _classify_response,
    _daemon_sound,
    _normalize_response,
    _sound_superset,
    execute_daemon_run,
)
from repro.runtime.faults import FaultPlan
from repro.service.protocol import Response
from repro.service.server import AnalysisService, ServiceConfig
from repro.service.transport import serve_http, serve_stdio

SOURCE = """
int x; int y; int z;
int *sel(int *a, int *b, int c) { if (c) { return a; } return b; }
int main(int c) {
    int *p = sel(&x, &y, c);
    int *q = p;
    if (c) { q = &z; }
    int v = *q;
    return v;
}
"""


def _service(**overrides) -> AnalysisService:
    config = ServiceConfig(default_deadline_s=None, workers=2, **overrides)
    return AnalysisService(config).start()


def _ask(service, payload):
    return service.handle_line(json.dumps(payload))


@pytest.fixture
def service():
    svc = _service()
    yield svc
    svc.drain(reply_grace_s=10.0)


class TestQueryOps:
    def test_mixed_burst_all_typed_and_ok(self, service):
        analyze = _ask(service, {"op": "analyze", "id": "a",
                                 "program": SOURCE, "analysis": "vsfs"})
        assert analyze.ok, analyze.error
        assert analyze.result["masks"]
        variables = analyze.result["variables"]
        assert variables

        alias = _ask(service, {"op": "alias", "program": SOURCE,
                               "params": {"a": variables[0],
                                          "b": variables[-1]}})
        assert alias.ok, alias.error
        assert isinstance(alias.result["may_alias"], bool)

        nullderef = _ask(service, {"op": "nullderef", "program": SOURCE})
        assert nullderef.ok, nullderef.error
        assert "warnings" in nullderef.result

        sliced = None
        for name in variables:
            candidate = _ask(service, {"op": "slice", "program": SOURCE,
                                       "params": {"var": name}})
            if candidate.ok:
                sliced = candidate
                break
        assert sliced is not None, "no variable produced a slice"
        assert sliced.result["nodes"]

    def test_second_analyze_is_memoised(self, service):
        first = _ask(service, {"op": "analyze", "program": SOURCE})
        second = _ask(service, {"op": "analyze", "program": SOURCE})
        assert first.ok and second.ok
        assert second.cached is True
        assert second.result["masks"] == first.result["masks"]

    def test_ssa_prefix_variable_resolution(self, service):
        """User-facing names resolve to their post-SSA versions; unknown
        names get a typed InvalidRequest listing what exists."""
        analyze = _ask(service, {"op": "analyze", "program": SOURCE})
        versioned = [v for v in analyze.result["variables"] if "." in v]
        if versioned:
            bare = versioned[0].split(".")[0]
            response = _ask(service, {"op": "alias", "program": SOURCE,
                                      "params": {"a": bare, "b": bare}})
            assert response.ok, response.error
        bogus = _ask(service, {"op": "alias", "program": SOURCE,
                               "params": {"a": "no_such_var", "b": "x"}})
        assert not bogus.ok
        assert bogus.error["type"] == "InvalidRequest"
        assert "known" in bogus.error["message"]

    def test_ping_and_stats_inline(self, service):
        assert _ask(service, {"op": "ping"}).ok
        stats = _ask(service, {"op": "stats"})
        assert stats.ok
        assert stats.result["queue"]["depth"] >= 0
        assert stats.result["workers"]["workers"] == 2

    def test_decode_error_is_typed_on_the_wire(self, service):
        response = service.handle_line("this is not json")
        assert not response.ok
        assert response.error["type"] == "InvalidRequest"


class TestAdmissionControl:
    def test_expired_deadline_is_typed_queue_rejection(self, service):
        response = _ask(service, {"op": "analyze", "program": SOURCE,
                                  "deadline_s": 1e-6})
        assert not response.ok
        assert response.error["type"] == "DeadlineExceeded"
        assert response.error["phase"] in ("queue", "execute")

    def test_overload_sheds_with_retry_hint(self):
        # A pool that never starts: the queue fills and the bound bites.
        service = AnalysisService(ServiceConfig(queue_depth=1,
                                                default_deadline_s=None))
        first = service.submit(json.dumps({"op": "analyze",
                                           "program": SOURCE}))
        assert not isinstance(first, Response)  # admitted ticket
        shed = service.submit(json.dumps({"op": "analyze",
                                          "program": SOURCE}))
        assert isinstance(shed, Response) and not shed.ok
        assert shed.error["type"] == "ServiceOverloaded"
        assert shed.error["retry_after_s"] > 0
        service.drain(reply_grace_s=1.0)
        assert not first.wait(timeout=1.0).ok  # evicted with a typed reply

    def test_tenant_quota_isolates_noisy_neighbour(self):
        from repro.service.admission import TenantPolicy

        service = AnalysisService(ServiceConfig(
            queue_depth=16, default_deadline_s=None,
            tenants={"noisy": TenantPolicy(max_queued=1)}))
        admitted = service.submit(json.dumps(
            {"op": "analyze", "program": SOURCE, "tenant": "noisy"}))
        shed = service.submit(json.dumps(
            {"op": "analyze", "program": SOURCE, "tenant": "noisy"}))
        assert isinstance(shed, Response)
        assert shed.error["type"] == "ServiceOverloaded"
        quiet = service.submit(json.dumps(
            {"op": "analyze", "program": SOURCE, "tenant": "quiet"}))
        assert not isinstance(quiet, Response)
        service.drain(reply_grace_s=1.0)
        admitted.wait(timeout=1.0)
        quiet.wait(timeout=1.0)


class TestFaultAbsorption:
    def test_worker_exec_fault_heals_on_retry(self):
        plan = FaultPlan(point="worker_exec")  # once=True
        service = _service(faults=plan)
        try:
            response = _ask(service, {"op": "analyze", "program": SOURCE})
            assert response.ok, response.error
            assert response.retries >= 1
            assert plan.fired
        finally:
            service.drain(reply_grace_s=10.0)

    def test_cache_attach_fault_serves_cacheless(self, tmp_path):
        plan = FaultPlan(point="cache_attach")
        service = _service(store_dir=str(tmp_path / "store"), faults=plan)
        try:
            response = _ask(service, {"op": "analyze", "program": SOURCE})
            assert response.ok, response.error
            assert response.heals >= 1
            assert plan.fired
        finally:
            service.drain(reply_grace_s=10.0)

    @staticmethod
    def _analyze_with_put_fault(tmp_path, plan):
        store = str(tmp_path / "store")
        service = _service(store_dir=store, faults=plan)
        try:
            response = _ask(service, {"op": "analyze", "program": SOURCE})
        finally:
            service.drain(reply_grace_s=10.0)
        return response, glob.glob(os.path.join(store, "result-*.json"))

    def test_result_store_put_fault_skips_the_write(self, service,
                                                    tmp_path):
        clean = _ask(service, {"op": "analyze", "program": SOURCE})
        plan = FaultPlan(point="result_store_put", probability=1.0,
                         once=False)
        response, entries = self._analyze_with_put_fault(tmp_path, plan)
        assert response.ok, response.error
        assert response.result == clean.result
        assert not response.precision_lost
        assert response.heals >= 1 and plan.fired
        assert entries == []

    def test_result_store_put_fault_heals_on_retry(self, tmp_path):
        plan = FaultPlan(point="result_store_put")  # once=True
        response, entries = self._analyze_with_put_fault(tmp_path, plan)
        assert response.ok, response.error
        assert response.heals == 1 and len(plan.fired) == 1
        assert len(entries) == 1

    def test_queue_admit_fault_is_a_shed(self):
        plan = FaultPlan(point="queue_admit")
        service = _service(faults=plan)
        try:
            shed = _ask(service, {"op": "analyze", "program": SOURCE})
            assert not shed.ok
            assert shed.error["type"] == "ServiceOverloaded"
            retry = _ask(service, {"op": "analyze", "program": SOURCE})
            assert retry.ok, retry.error  # disarmed: service still alive
        finally:
            service.drain(reply_grace_s=10.0)


class TestBreakerIntegration:
    def test_repeat_precision_loss_trips_and_pins(self):
        # A solver fault that keeps firing: every solve degrades to the
        # Andersen floor (sound but precision-lost), which the breaker
        # counts as a failure and eventually pins the program down-rung.
        plan = FaultPlan(point="pre_meld", probability=1.0, once=False)
        service = _service(faults=plan, breaker_threshold=2,
                           breaker_cooldown_s=3600.0)
        try:
            for _ in range(2):
                response = _ask(service, {"op": "analyze",
                                          "program": SOURCE,
                                          "analysis": "vsfs"})
                assert response.ok, response.error
                assert response.precision_lost is True
            assert service.breakers.stats()["open"] == 1
            pinned = _ask(service, {"op": "analyze", "program": SOURCE,
                                    "analysis": "vsfs"})
            assert pinned.ok and pinned.degraded_from == "vsfs"
        finally:
            service.drain(reply_grace_s=10.0)

    def test_pinned_request_is_sound_and_marked_degraded(self):
        service = _service(breaker_threshold=1, breaker_cooldown_s=3600.0)
        try:
            clean = _ask(service, {"op": "analyze", "program": SOURCE,
                                   "analysis": "vsfs"})
            from repro.service.server import program_key

            breaker = service.breakers.breaker("default",
                                               program_key(SOURCE, "c"))
            breaker.record(False)  # trip it by hand
            pinned = _ask(service, {"op": "analyze", "program": SOURCE,
                                    "analysis": "vsfs"})
            assert pinned.ok, pinned.error
            assert pinned.precision_level == "sfs"
            assert pinned.degraded_from == "vsfs"
            assert pinned.precision_lost is True
            assert _daemon_sound("analyze", clean.result, pinned.result)
        finally:
            service.drain(reply_grace_s=10.0)


class TestDrain:
    def test_drain_is_graceful_and_idempotent(self, service):
        assert _ask(service, {"op": "analyze", "program": SOURCE}).ok
        service.drain(reply_grace_s=5.0)
        service.drain(reply_grace_s=5.0)  # second call is a no-op
        response = _ask(service, {"op": "analyze", "program": SOURCE})
        assert not response.ok
        assert response.error["type"] == "ServiceOverloaded"
        assert response.error["draining"] is True

    def test_drain_op_on_the_wire(self, service):
        response = _ask(service, {"op": "drain"})
        assert response.ok
        service._drained.wait(timeout=10.0)
        assert service.draining


class TestWarmRestart:
    def test_warm_answers_bit_identical_to_cold(self, tmp_path):
        store = str(tmp_path / "store")
        burst = [
            {"op": "analyze", "id": "q1", "program": SOURCE,
             "analysis": "sfs"},
            {"op": "nullderef", "id": "q2", "program": SOURCE,
             "analysis": "sfs"},
        ]
        cold_service = _service(store_dir=store)
        try:
            cold = [_ask(cold_service, q) for q in burst]
        finally:
            cold_service.drain(reply_grace_s=10.0)
        assert all(r.ok for r in cold)

        warm_service = _service(store_dir=store)
        try:
            warm = [_ask(warm_service, q) for q in burst]
        finally:
            warm_service.drain(reply_grace_s=10.0)
        assert warm[0].cached  # served from the result store
        for before, after in zip(cold, warm):
            assert _normalize_response(after) == _normalize_response(before)


class TestTransports:
    def test_stdio_jsonl_roundtrip(self):
        service = _service()
        lines = "\n".join([
            json.dumps({"op": "ping", "id": "p1"}),
            "",  # blank lines are skipped
            json.dumps({"op": "analyze", "id": "a1", "program": SOURCE}),
            "not json",
        ]) + "\n"
        stdout = io.StringIO()
        assert serve_stdio(service, stdin=io.StringIO(lines),
                           stdout=stdout) == 0
        replies = [json.loads(line) for line in
                   stdout.getvalue().splitlines()]
        assert [r["id"] for r in replies[:2]] == ["p1", "a1"]
        assert replies[1]["ok"] is True
        assert replies[2]["error"]["type"] == "InvalidRequest"
        assert service.draining  # EOF drained the service

    def test_http_roundtrip_and_drain_503(self):
        service = _service()
        ready = threading.Event()
        thread = threading.Thread(target=serve_http,
                                  args=(service, "127.0.0.1", 0, ready),
                                  daemon=True)
        thread.start()
        assert ready.wait(timeout=10.0)
        host, port = service.http_server.server_address
        base = f"http://{host}:{port}"

        with urllib.request.urlopen(f"{base}/health", timeout=10) as reply:
            assert reply.status == 200

        body = json.dumps({"op": "analyze", "id": "h1",
                           "program": SOURCE}).encode()
        request = urllib.request.Request(f"{base}/query", data=body,
                                         method="POST")
        with urllib.request.urlopen(request, timeout=60) as reply:
            payload = json.loads(reply.read())
        assert payload["ok"] is True and payload["id"] == "h1"

        service.drain(reply_grace_s=10.0)
        thread.join(timeout=10.0)
        assert not thread.is_alive()  # drain stopped the server


class TestServeCli:
    def test_tenant_spec_parsing(self):
        from repro.service.cli import _parse_tenants

        tenants = _parse_tenants(["team-a=4", "team-b=8:2.5"])
        assert tenants["team-a"].max_queued == 4
        assert tenants["team-b"].max_wall_s == 2.5
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            _parse_tenants(["bad spec"])

    def test_service_from_args(self, tmp_path):
        from repro.service.cli import build_serve_parser, service_from_args

        args = build_serve_parser().parse_args(
            ["--store", str(tmp_path / "s"), "--workers", "3",
             "--queue-depth", "9", "--default-deadline", "0",
             "--tenant", "t=2"])
        service = service_from_args(args)
        assert service.config.workers == 3
        assert service.config.queue_depth == 9
        assert service.config.default_deadline_s is None
        assert service.config.tenants["t"].max_queued == 2

    def test_cli_dispatches_serve(self, capsys):
        from repro.cli import main

        # --help exits 0 through the serve parser, proving the dispatch.
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--help"])
        assert excinfo.value.code == 0
        assert "stdio" in capsys.readouterr().out


class TestWorkerCrashExitCode:
    def test_worker_crash_maps_to_exit_4(self, tmp_path, monkeypatch):
        from repro import cli as cli_module
        from repro.errors import WorkerCrash

        def _boom(*args, **kwargs):
            raise WorkerCrash("supervisor gave up", worker=1, failures=3,
                              incident="test")

        monkeypatch.setattr(cli_module, "solve_stored", _boom)
        path = tmp_path / "p.c"
        path.write_text("int x; int main() { return x; }")
        assert cli_module.main(["-fspta", str(path)]) == \
            cli_module.EXIT_WORKER_CRASH == 4


class TestChaosClassificationEdges:
    """Satellite: the classifier itself must be fault-tolerant — a
    soundness check fed malformed data classifies, never crashes."""

    def _response(self, **overrides):
        base = dict(id="q", op="analyze", ok=True, precision_level="sfs",
                    degraded_from="vsfs", precision_lost=True,
                    result={"masks": ["0x3", "0x5"]})
        base.update(overrides)
        return Response(**base)

    def test_mask_length_mismatch_is_unsound_not_a_crash(self):
        assert _sound_superset([1, 2, 3], [1, 2]) is False
        base = {"result": {"masks": ["0x3", "0x5", "0x1"]}}
        assert _daemon_sound("analyze", base["result"],
                             {"masks": ["0x3"]}) is False
        klass, detail = _classify_response(base, self._response(
            result={"masks": ["0x3"]}))
        assert klass == "garbage"
        assert "unsound" in detail

    def test_superset_check_under_faulted_degrade_classifies_garbage(self):
        """A degraded run whose own superset evidence is corrupt (e.g. a
        fault hit the mask encode path) must land in 'garbage', not
        raise out of the harness."""
        base = {"result": {"masks": ["0x3", "0x5"]}}
        corrupt = self._response(result={"masks": ["0x3", "0x1"]})  # drops
        klass, _ = _classify_response(base, corrupt)
        assert klass == "garbage"
        sound = self._response(result={"masks": ["0x7", "0xf"]})  # adds
        klass, detail = _classify_response(base, sound)
        assert klass == "degraded" and detail == "to sfs"

    def test_internal_error_always_classifies_garbage(self):
        response = self._response(
            ok=False, precision_lost=False,
            error={"type": "InternalError", "exception": "KeyError"})
        klass, detail = _classify_response({}, response)
        assert klass == "garbage" and "KeyError" in detail

    def test_no_fallback_on_final_rung_is_typed_failure(self, tmp_path):
        """With fallback disabled the attempted rung IS the final rung —
        there is nowhere to fall, so the fault must surface as a typed
        failure (never an untyped traceback = garbage)."""
        from repro.chaos import ChaosRun, execute_run

        run = ChaosRun(analysis="sfs", jobs=1, seed=1,
                       point="pre_meld", trigger="no-fallback")
        execute_run(run, SOURCE, None, str(tmp_path), baseline_masks=[])
        assert run.outcome == "typed-failure"
        assert run.detail == "InjectedFault"
        assert run.fired >= 1

    def test_daemon_run_verdict_is_worst_response_class(self, tmp_path):
        """End-to-end daemon classification: a repeat worker_exec fault
        yields typed-failure (retry lane exhausted), never garbage."""
        from repro.chaos import _daemon_baseline

        store = str(tmp_path / "store")
        baseline, probes = _daemon_baseline(SOURCE, "sfs", store)
        run = DaemonRun("sfs", seed=5, point="worker_exec",
                        trigger="repeat")
        execute_daemon_run(run, SOURCE, store, baseline, probes)
        assert run.outcome == "typed-failure"
        assert "garbage" not in run.classes
        assert run.fired >= 1

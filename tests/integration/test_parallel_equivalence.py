"""Parallel sharded solving must be result-invisible (DESIGN.md §10).

The sharded driver partitions the SVFG across workers and exchanges only
frontier deltas, but SFS is confluent: any fair schedule reaches the
identical least fixpoint.  These tests pin that down bit-for-bit —
parallel SFS against its serial twin across worker counts and
transports, including a worker that is hard-killed mid-solve and revived
from its last seal.  (VSFS is not sharded.)  Serial solves on one
pipeline must not leak state into each other either: each owns its
hash-consing table, and a degradation-ladder fallback equals a plain
solve of its rung.
"""

import pytest

from repro.bench.workloads import suite_program
from repro.parallel.driver import solve_parallel
from repro.pipeline import AnalysisPipeline

SOURCE_NAME = "du"  # smallest suite benchmark: real call/heap structure


@pytest.fixture(scope="module")
def pipeline():
    return AnalysisPipeline(module=suite_program(SOURCE_NAME))


@pytest.fixture(scope="module")
def serial_sfs(pipeline):
    return pipeline.sfs()


@pytest.fixture(scope="module")
def serial_vsfs(pipeline):
    return pipeline.vsfs()


def assert_identical(parallel, serial):
    """Bit-identical points-to results and call graphs."""
    assert parallel._pt == serial._pt
    assert ({(call.id, callee.name)
             for call, callee in parallel.callgraph.call_edges()}
            == {(call.id, callee.name)
                for call, callee in serial.callgraph.call_edges()})


class TestParallelEquivalence:
    @pytest.mark.parametrize("jobs", [2, 3])
    def test_sfs_matches_serial(self, pipeline, serial_sfs, jobs):
        result = pipeline.sfs_par(jobs=jobs)
        assert_identical(result, serial_sfs)
        assert result.parallel.jobs == jobs
        assert result.parallel.rounds >= jobs  # topological stagger

    def test_fork_transport_matches_inline(self, pipeline, serial_sfs):
        from repro.parallel.driver import fork_available

        if not fork_available():
            pytest.skip("no fork start method on this platform")
        result = pipeline.sfs_par(jobs=2, mode="fork")
        assert_identical(result, serial_sfs)
        assert result.parallel.mode == "fork"

    def test_merged_stats_account_all_workers(self, pipeline, serial_sfs):
        result = pipeline.sfs_par(jobs=2)
        workers = result.parallel.workers
        assert len(workers) == 2
        assert sum(w["pops"] for w in workers) == result.stats.nodes_processed
        assert sum(w["nodes"] for w in workers) == len(
            pipeline.svfg().nodes)
        # Gauges are recomputed globally, identical to serial.
        assert result.stats.top_level_bits == serial_sfs.stats.top_level_bits
        assert result.stats.callgraph_edges == serial_sfs.stats.callgraph_edges


class TestSerialSolvesShareNothing:
    """Solves on one pipeline share the substrate, never solver state."""

    def test_each_solve_owns_its_repo(self, serial_sfs, serial_vsfs):
        """A vsfs solve then an sfs solve on one pipeline (the ladder's
        fallback shape) match solves on fresh pipelines, storage counts
        included: no hash-consing table outlives its solve."""
        module = suite_program(SOURCE_NAME)
        shared = AnalysisPipeline(module=module)
        vsfs = shared.vsfs()
        sfs = shared.sfs()
        assert_identical(vsfs, serial_vsfs)
        assert_identical(sfs, serial_sfs)
        fresh = AnalysisPipeline(module=module).sfs()
        assert (sfs.stats.stored_ptsets, sfs.stats.unique_ptsets) \
            == (fresh.stats.stored_ptsets, fresh.stats.unique_ptsets)

    def test_ladder_fallback_matches_plain_sfs(self, serial_sfs,
                                               serial_vsfs):
        """Force vsfs to degrade to sfs under a step budget: the fallback
        rung must equal a plain sfs solve."""
        from repro.pipeline import analyze
        from repro.runtime.budget import Budget

        result = analyze(suite_program(SOURCE_NAME), analysis="vsfs",
                         budget=Budget(max_steps=3), fallback=True)
        if result.precision_level == "sfs":
            assert_identical(result, serial_sfs)
        elif result.precision_level == "vsfs":  # pragma: no cover - tiny input
            assert_identical(result, serial_vsfs)

    def test_memory_surface_is_populated(self, serial_vsfs):
        stats = serial_vsfs.stats
        assert 0 < stats.unique_ptsets <= stats.stored_ptsets
        assert 0 < stats.unique_ptset_bits <= stats.stored_ptset_bits


class TestKillAndResume:
    @pytest.mark.parametrize("kill_worker", [0, 1])
    def test_killed_worker_revives_from_seal(self, pipeline, serial_sfs,
                                             kill_worker):
        result = solve_parallel(
            pipeline.svfg(), "sfs", jobs=2,
            seal_every=1, kill_after_round=1, kill_worker=kill_worker)
        assert_identical(result, serial_sfs)
        assert result.parallel.revivals >= 1
        assert result.parallel.workers[kill_worker]["incarnation"] >= 1

    def test_kill_without_seal_replays_from_scratch(self, pipeline,
                                                    serial_sfs):
        result = solve_parallel(
            pipeline.svfg(), "sfs", jobs=2,
            seal_every=0, kill_after_round=1, kill_worker=0)
        assert_identical(result, serial_sfs)
        assert result.parallel.revivals >= 1


class TestWatchdog:
    """Driver-side worker supervision (DESIGN.md §12): hung and lost
    workers are killed and revived from their last seal; a slot that
    spends its failure budget raises a typed WorkerCrash the ladder
    collapses onto the bit-identical serial rung."""

    def test_hung_worker_times_out_and_revives(self, pipeline, serial_sfs):
        from repro.parallel.driver import fork_available

        if not fork_available():
            pytest.skip("no fork start method on this platform")
        result = solve_parallel(
            pipeline.svfg(), "sfs", jobs=2, mode="fork",
            seal_every=1, hang_after_round=1, hang_worker=1,
            heartbeat_seconds=0.5)
        assert_identical(result, serial_sfs)
        assert result.parallel.heartbeat_timeouts >= 1
        assert result.parallel.revivals >= 1
        assert result.parallel.workers[1]["incarnation"] >= 1

    def test_injected_heartbeat_fault_revives(self, pipeline, serial_sfs):
        from repro.runtime.faults import FaultPlan

        plan = FaultPlan(point="worker_heartbeat")  # once=True
        result = solve_parallel(pipeline.svfg(), "sfs", jobs=2,
                                mode="inline", seal_every=1, faults=plan)
        assert_identical(result, serial_sfs)
        assert result.parallel.heartbeat_timeouts >= 1
        assert plan.fired

    def test_spawn_fault_respawns_within_budget(self, pipeline, serial_sfs):
        from repro.runtime.faults import FaultPlan

        plan = FaultPlan(point="worker_spawn")
        result = solve_parallel(pipeline.svfg(), "sfs", jobs=2,
                                mode="inline", faults=plan)
        assert_identical(result, serial_sfs)
        assert result.parallel.worker_failures >= 1

    def test_budget_exhaustion_is_typed_worker_crash(self, pipeline):
        from repro.errors import SolverError, WorkerCrash
        from repro.runtime.faults import FaultPlan

        plan = FaultPlan(point="frontier_send", probability=1.0, once=False)
        with pytest.raises(WorkerCrash) as info:
            solve_parallel(pipeline.svfg(), "sfs", jobs=2,
                           mode="inline", faults=plan)
        err = info.value
        assert isinstance(err, SolverError)  # ladder-catchable by type
        assert err.incident == "frontier-send"
        assert err.failures >= 1

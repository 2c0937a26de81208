"""Unit tests for the sharded-parallel building blocks (repro.parallel).

Covers the pieces below the driver: SolverStats merging, SVFG
partitioning (SCC condensation → topological shards → workers), the
frontier id-delta codec with its peer mirrors, and the shard-staged
worklists — each small enough to exercise exhaustively without spinning
up workers.
"""

import pytest

from repro.frontend import compile_c
from repro.parallel.frontier import FrontierBatch, FrontierEncoder, PeerMirrors
from repro.parallel.partition import build_dependency_graph, partition_svfg
from repro.parallel.shard import OwnedFIFOWorkList
from repro.pipeline import AnalysisPipeline
from repro.solvers.base import SolverStats


# --------------------------------------------------------------------------
# SolverStats.merge
# --------------------------------------------------------------------------

class TestSolverStatsMerge:
    def test_additive_fields_sum(self):
        a = SolverStats(analysis="sfs", solve_time=1.0, nodes_processed=10,
                        propagations=5, unions=3)
        b = SolverStats(analysis="sfs", solve_time=0.5, nodes_processed=7,
                        propagations=2, unions=1)
        merged = SolverStats.merge([a, b])
        assert merged.analysis == "sfs"
        assert merged.solve_time == pytest.approx(1.5)
        assert merged.nodes_processed == 17
        assert merged.propagations == 7
        assert merged.unions == 4

    def test_every_additive_field_is_summed(self):
        parts = []
        for scale in (1, 10):
            stats = SolverStats()
            for name in SolverStats.ADDITIVE_FIELDS:
                setattr(stats, name, scale if "time" not in name
                        else float(scale))
            parts.append(stats)
        merged = SolverStats.merge(parts)
        for name in SolverStats.ADDITIVE_FIELDS:
            assert getattr(merged, name) == 11, name

    def test_gauges_take_max_not_sum(self):
        # Workers converge on the *same* global call graph and share the
        # top-level table; summing would multiply shared state by the
        # worker count.
        a = SolverStats(top_level_bits=40, callgraph_edges=7)
        b = SolverStats(top_level_bits=38, callgraph_edges=7)
        merged = SolverStats.merge([a, b])
        assert merged.top_level_bits == 40
        assert merged.callgraph_edges == 7

    def test_empty_merge_is_zero(self):
        merged = SolverStats.merge([])
        assert merged.nodes_processed == 0
        assert merged.solve_time == 0.0

    def test_own_steps_excludes_resumed_work(self):
        # The double-counting trap: a resumed attempt's nodes_processed
        # includes everything replayed from the checkpoint, so the work
        # this attempt did itself is own_steps(), not nodes_processed.
        resumed = SolverStats(nodes_processed=100, resumed_steps=60)
        assert resumed.own_steps() == 40

    def test_merge_preserves_own_steps_decomposition(self):
        a = SolverStats(nodes_processed=100, resumed_steps=60)
        b = SolverStats(nodes_processed=30)
        merged = SolverStats.merge([a, b])
        assert merged.nodes_processed == 130
        assert merged.resumed_steps == 60
        assert merged.own_steps() == 70  # 40 + 30


# --------------------------------------------------------------------------
# Partitioning
# --------------------------------------------------------------------------

PARTITION_SOURCE = """
    int a; int b; int *p; int *q;
    int pick(int which) { if (which) { return a; } return b; }
    int flow() { p = &a; q = p; *q = 1; return *p; }
    int main() { int r; r = pick(1); r = flow(); return r; }
"""


@pytest.fixture(scope="module")
def svfg():
    pipeline = AnalysisPipeline(compile_c(PARTITION_SOURCE))
    return pipeline.svfg()


class TestPartition:
    @pytest.mark.parametrize("jobs", [1, 2, 3, 4])
    def test_shards_cover_nodes_exactly_once(self, svfg, jobs):
        part = partition_svfg(svfg, jobs)
        seen = [node for shard in part.shards for node in shard]
        assert sorted(seen) == list(range(len(svfg.nodes)))
        for sid, members in enumerate(part.shards):
            for node in members:
                assert part.shard_of[node] == sid

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_owner_monotone_over_shards(self, svfg, jobs):
        # Workers take contiguous shard ranges, so ownership is monotone
        # along the condensation's topological order.
        part = partition_svfg(svfg, jobs)
        owners = [part.owner_of[part.shards[sid][0]]
                  for sid in range(len(part.shards))]
        assert owners == sorted(owners)

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_worker_shards_partition_the_shard_range(self, svfg, jobs):
        part = partition_svfg(svfg, jobs)
        assert len(part.worker_shards) == jobs
        expected_start = 0
        for worker, (start, end) in enumerate(part.worker_shards):
            assert start == expected_start
            assert end >= start
            expected_start = end
            for sid in range(start, end):
                for node in part.shards[sid]:
                    assert part.owner_of[node] == worker
        assert expected_start == len(part.shards)

    def test_every_worker_owns_something(self, svfg):
        part = partition_svfg(svfg, 3)
        sizes = part.worker_sizes()
        assert len(sizes) == 3
        assert all(size > 0 for size in sizes)
        assert sum(sizes) == len(svfg.nodes)

    def test_owned_mask_matches_owner_of(self, svfg):
        part = partition_svfg(svfg, 2)
        for worker in range(2):
            mask = part.owned_mask(worker)
            assert all(mask[n] == (part.owner_of[n] == worker)
                       for n in range(len(svfg.nodes)))

    def test_topo_order_respects_dependency_dag(self, svfg):
        # topo_of is the SCC component's topological index: every
        # dependency edge goes to an equal-or-later component.
        part = partition_svfg(svfg, 2)
        graph = build_dependency_graph(svfg)
        for src in graph.nodes():
            for dst in graph.successors(src):
                assert part.topo_of[src] <= part.topo_of[dst]

    def test_deterministic_for_same_svfg(self, svfg):
        first = partition_svfg(svfg, 2)
        second = partition_svfg(svfg, 2)
        assert first.shard_of == second.shard_of
        assert first.owner_of == second.owner_of
        assert first.shards == second.shards

    def test_empty_graph(self):
        pipeline = AnalysisPipeline(compile_c("int main() { return 0; }"))
        part = partition_svfg(pipeline.svfg(), 2)
        assert part.num_workers == 2
        assert len(part.worker_shards) == 2


# --------------------------------------------------------------------------
# Frontier codec
# --------------------------------------------------------------------------

class TestFrontierCodec:
    def test_round_trip_resolves_masks(self):
        enc = FrontierEncoder(sender=0)
        mirrors = PeerMirrors()
        batch = enc.encode(0, {3: 0b101, 7: 0b11}, {(2, 1): 0b1000},
                           [(9, "callee")])
        mirrors.import_batch(batch)
        assert mirrors.resolve(batch, batch.vars[3]) == 0b101
        assert mirrors.resolve(batch, batch.vars[7]) == 0b11
        assert mirrors.resolve(batch, batch.mem[(2, 1)]) == 0b1000
        assert batch.calls == [(9, "callee")]

    def test_repeated_set_crosses_wire_once(self):
        enc = FrontierEncoder(sender=0)
        mirrors = PeerMirrors()
        first = enc.encode(0, {1: 0b101}, {}, [])
        second = enc.encode(1, {2: 0b101, 3: 0b101}, {}, [])
        mirrors.import_batch(first)
        mirrors.import_batch(second)
        # The second batch references an already-shipped set: no new rows.
        assert second.table == []
        assert mirrors.resolve(second, second.vars[2]) == 0b101
        assert mirrors.resolve(second, second.vars[3]) == 0b101

    def test_out_of_order_import_raises(self):
        enc = FrontierEncoder(sender=0)
        mirrors = PeerMirrors()
        enc.encode(0, {1: 0b1}, {}, [])  # first batch never delivered
        later = enc.encode(1, {2: 0b10}, {}, [])
        with pytest.raises(ValueError, match="out of sync"):
            mirrors.import_batch(later)

    def test_stale_redelivery_is_skipped(self):
        # After a seal restore the driver re-delivers retained batches;
        # a mirror that already holds their rows must skip, not re-append.
        enc = FrontierEncoder(sender=0)
        mirrors = PeerMirrors()
        batch = enc.encode(0, {1: 0b11}, {}, [])
        mirrors.import_batch(batch)
        size_before = mirrors.mirror(0).size
        mirrors.import_batch(batch)  # re-delivery
        assert mirrors.mirror(0).size == size_before
        assert mirrors.resolve(batch, batch.vars[1]) == 0b11

    def test_incarnation_bump_resets_mirror(self):
        old = FrontierEncoder(sender=0, incarnation=0)
        mirrors = PeerMirrors()
        mirrors.import_batch(old.encode(0, {1: 0b1, 2: 0b10}, {}, []))
        # Worker 0 is revived: fresh wire repo, bumped incarnation.
        revived = FrontierEncoder(sender=0, incarnation=1)
        batch = revived.encode(1, {1: 0b100}, {}, [])
        mirrors.import_batch(batch)
        assert mirrors.resolve(batch, batch.vars[1]) == 0b100
        # The mirror was rebuilt from scratch for the new incarnation.
        assert mirrors.mirror(0).size == 2  # empty set + 0b100

    def test_seal_restore_round_trip(self):
        enc = FrontierEncoder(sender=1)
        mirrors = PeerMirrors()
        batch = enc.encode(0, {4: 0b1101}, {}, [])
        mirrors.import_batch(batch)
        restored = PeerMirrors()
        restored.restore(mirrors.seal())
        assert restored.resolve(batch, batch.vars[4]) == 0b1101
        # And the restored mirror keeps accepting the stream in order.
        follow = enc.encode(1, {5: 0b10}, {}, [])
        restored.import_batch(follow)
        assert restored.resolve(follow, follow.vars[5]) == 0b10

    def test_empty_batch_detection(self):
        enc = FrontierEncoder(sender=0)
        batch = enc.encode(0, {}, {}, [])
        assert batch.is_empty()
        assert batch.payload_entries() == 0
        full = enc.encode(1, {1: 0b1}, {}, [(2, "f")])
        assert not full.is_empty()
        assert full.payload_entries() == 2


# --------------------------------------------------------------------------
# Shard-staged worklists
# --------------------------------------------------------------------------

def _layout():
    """Six nodes, three shards of two; the worker owns shards 0-1."""
    owned = [True, True, True, True, False, False]
    shard_of = [0, 0, 1, 1, 2, 2]
    return owned, shard_of, 3


class TestOwnedWorklists:
    @pytest.mark.parametrize("cls", [OwnedFIFOWorkList])
    def test_unowned_pushes_dropped(self, cls):
        owned, shard_of, num = _layout()
        wl = cls(owned, shard_of, num)
        assert not wl.push(4)
        assert not wl.push(5)
        assert len(wl) == 0 and not wl

    @pytest.mark.parametrize("cls", [OwnedFIFOWorkList])
    def test_pop_is_shard_staged_fifo(self, cls):
        owned, shard_of, num = _layout()
        wl = cls(owned, shard_of, num)
        for node in (3, 1, 2, 0):  # interleave shards, reverse order
            assert wl.push(node)
        # Earliest shard first; FIFO within a shard.
        assert [wl.pop() for _ in range(4)] == [1, 0, 3, 2]

    @pytest.mark.parametrize("cls", [OwnedFIFOWorkList])
    def test_push_during_drain_reactivates_earlier_shard(self, cls):
        owned, shard_of, num = _layout()
        wl = cls(owned, shard_of, num)
        wl.push(2)
        assert wl.pop() == 2
        wl.push(0)  # upstream shard becomes non-empty again
        wl.push(3)
        assert wl.pop() == 0  # earlier shard wins over the pending 3

    @pytest.mark.parametrize("cls", [OwnedFIFOWorkList])
    def test_duplicate_push_is_noop(self, cls):
        owned, shard_of, num = _layout()
        wl = cls(owned, shard_of, num)
        assert wl.push(1)
        assert not wl.push(1)
        assert len(wl) == 1
        assert wl.pop() == 1
        assert not wl

    def test_snapshot_restore_preserves_order(self):
        owned, shard_of, num = _layout()
        wl = OwnedFIFOWorkList(owned, shard_of, num)
        for node in (3, 0, 2):
            wl.push(node)
        clone = OwnedFIFOWorkList(owned, shard_of, num)
        clone.restore(wl.snapshot())
        assert len(clone) == 3
        assert not clone.push(2)  # membership restored with the queue
        # Shard 0 first; FIFO within shard 1 (3 was pushed before 2).
        assert [clone.pop() for _ in range(3)] == [0, 3, 2]
        assert not clone

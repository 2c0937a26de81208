"""Unit tests for the on-disk stage cache (repro.engine.cache)."""

import glob
import json
import os

import pytest

from repro.engine import STAGE_CACHE_SCHEMA, Engine, StageCache, StageContext
from repro.errors import CheckpointError

SRC = """
int *g; int x; int y;
int main() { g = &x; int *a; a = g; g = &y; return 0; }
"""

OTHER_SRC = "int *p; int z; int main() { p = &z; return 0; }"

#: Every substrate stage the cache covers, with its storage mode.
CACHED_STAGES = {
    "andersen": "codec",
    "modref": "replay",
    "memssa": "replay",
    "svfg": "replay",
    "versioning": "replay",
}


def engine_with_cache(tmp_path, source=SRC, **ctx_kwargs):
    cache = StageCache(str(tmp_path / "stages"))
    ctx = StageContext(module=None, source=source, language="c",
                       cache=cache, **ctx_kwargs)
    return Engine(ctx), cache


class TestColdRun:
    def test_populates_every_cached_stage(self, tmp_path):
        engine, cache = engine_with_cache(tmp_path)
        engine.ensure("versioning")
        assert cache.hits == 0
        assert cache.misses == len(CACHED_STAGES)
        for name in CACHED_STAGES:
            path = cache.entry_path(name, engine.fingerprint(name))
            assert os.path.exists(path), name

    def test_entries_record_mode_and_fingerprint(self, tmp_path):
        engine, cache = engine_with_cache(tmp_path)
        engine.ensure("versioning")
        for name, mode in CACHED_STAGES.items():
            path = cache.entry_path(name, engine.fingerprint(name))
            with open(path) as handle:
                doc = json.load(handle)
            assert doc["meta"]["stage"] == name
            assert doc["meta"]["mode"] == mode
            assert doc["meta"]["fingerprint"] == engine.fingerprint(name)


class TestWarmRun:
    def test_hits_every_cached_stage(self, tmp_path):
        cold, _ = engine_with_cache(tmp_path)
        cold.ensure("versioning")
        warm, cache = engine_with_cache(tmp_path)
        warm.ensure("versioning")
        assert cache.hits == len(CACHED_STAGES)
        assert cache.misses == 0
        records = {r.stage: r for r in warm.trace.records}
        for name, mode in CACHED_STAGES.items():
            assert records[name].cache == mode, name
            assert records[name].cache_hit

    def test_result_bit_identical_to_cold(self, tmp_path):
        cold, _ = engine_with_cache(tmp_path)
        cold_snapshot = cold.solve("vsfs").snapshot()
        warm, cache = engine_with_cache(tmp_path)
        warm_snapshot = warm.solve("vsfs").snapshot()
        # solve("vsfs") ensures through the versioning stage, which the
        # solver reads instead of versioning again: every cached stage hits.
        assert cache.hits == len(CACHED_STAGES)
        assert warm_snapshot == cold_snapshot

    def test_codec_hit_skips_andersen_solve(self, tmp_path):
        cold, _ = engine_with_cache(tmp_path)
        cold.ensure("andersen")
        warm, _ = engine_with_cache(tmp_path)
        warm.ensure("andersen")
        record = warm.trace.record_for("andersen")
        # A codec hit decodes the stored result instead of re-solving.
        assert record.cache == "codec"
        assert record.artifact_bytes and record.artifact_bytes > 0

    def test_governed_andersen_bypasses_cache(self, tmp_path):
        from repro.runtime.budget import Budget

        cold, _ = engine_with_cache(tmp_path)
        cold.ensure("versioning")
        warm, cache = engine_with_cache(tmp_path)
        warm.ensure("prepare")
        hits_before = cache.hits
        meter = Budget(wall_seconds=300.0).meter()
        meter.start()
        try:
            warm.solve("andersen", meter=meter)
        finally:
            meter.stop()
        assert cache.hits == hits_before  # governed run never loads cache


class TestInvalidation:
    def test_source_change_misses(self, tmp_path):
        cold, _ = engine_with_cache(tmp_path)
        cold.ensure("versioning")
        other, cache = engine_with_cache(tmp_path, source=OTHER_SRC)
        other.ensure("versioning")
        assert cache.hits == 0
        assert cache.misses == len(CACHED_STAGES)

    def test_ablation_flags_do_not_invalidate_substrate(self, tmp_path):
        cold, _ = engine_with_cache(tmp_path)
        cold.ensure("versioning")
        ablated, cache = engine_with_cache(tmp_path, ptrepo=False)
        ablated.ensure("versioning")
        assert cache.hits == len(CACHED_STAGES)


class TestCorruption:
    """Strict mode: corruption raises (the pre-resilience contract the
    engine-level self-healing defaults away from; see TestSelfHealing)."""

    def _cold_entry(self, tmp_path, stage):
        engine, cache = engine_with_cache(tmp_path)
        engine.ensure("versioning")
        return cache.entry_path(stage, engine.fingerprint(stage))

    def test_garbage_entry_quarantined(self, tmp_path):
        path = self._cold_entry(tmp_path, "svfg")
        with open(path, "w") as handle:
            handle.write("not json {")
        warm, cache = engine_with_cache(tmp_path, strict_cache=True)
        with pytest.raises(CheckpointError):
            warm.ensure("svfg")
        assert not os.path.exists(path)
        assert cache.quarantined
        assert glob.glob(path + "*.quarantined")

    def test_flipped_checksum_quarantined(self, tmp_path):
        path = self._cold_entry(tmp_path, "memssa")
        with open(path) as handle:
            doc = json.load(handle)
        doc["payload"]["digest"] = "0" * 64  # wrong digest, checksum stale
        with open(path, "w") as handle:
            json.dump(doc, handle)
        warm, cache = engine_with_cache(tmp_path, strict_cache=True)
        with pytest.raises(CheckpointError):
            warm.ensure("memssa")
        assert cache.quarantined

    def test_wrong_replay_digest_is_corrupt(self, tmp_path):
        # Re-seal a valid entry with a wrong digest: the lookup succeeds,
        # the rebuild runs, and the digest comparison rejects the entry.
        from repro.store.atomic import read_sealed_json, write_sealed_json

        path = self._cold_entry(tmp_path, "svfg")
        meta, _ = read_sealed_json(path, StageCache.KIND, STAGE_CACHE_SCHEMA)
        write_sealed_json(path, StageCache.KIND, STAGE_CACHE_SCHEMA, meta,
                          {"digest": "0" * 64})
        warm, cache = engine_with_cache(tmp_path, strict_cache=True)
        with pytest.raises(CheckpointError) as excinfo:
            warm.ensure("svfg")
        assert excinfo.value.reason == "corrupt"
        assert cache.quarantined
        assert not os.path.exists(path)

    def test_quarantined_entry_never_loaded_twice(self, tmp_path):
        path = self._cold_entry(tmp_path, "svfg")
        with open(path, "w") as handle:
            handle.write("garbage")
        broken, _ = engine_with_cache(tmp_path, strict_cache=True)
        with pytest.raises(CheckpointError):
            broken.ensure("svfg")
        # The bad entry is gone, so the next run is a clean miss+rebuild.
        recovered, cache = engine_with_cache(tmp_path)
        recovered.ensure("svfg")
        assert cache.hits >= 1  # upstream stages still hit
        assert os.path.exists(path)  # entry rewritten from the fresh build


class TestSelfHealing:
    """Default mode: corruption quarantines, recomputes, and re-stores —
    the run completes and the incident lands on the trace (DESIGN.md §12)."""

    def _cold_entry(self, tmp_path, stage):
        engine, cache = engine_with_cache(tmp_path)
        engine.ensure("versioning")
        return cache.entry_path(stage, engine.fingerprint(stage))

    def test_garbage_entry_recomputes_and_restores(self, tmp_path):
        path = self._cold_entry(tmp_path, "svfg")
        with open(path, "w") as handle:
            handle.write("not json {")
        warm, cache = engine_with_cache(tmp_path)
        artifact = warm.ensure("svfg")  # completes instead of raising
        assert artifact is not None
        assert cache.quarantined and glob.glob(path + "*.quarantined")
        assert os.path.exists(path)  # healed entry rewritten in place
        heals = warm.trace.heals
        assert any(h.get("action") == "recompute"
                   and h.get("point") == "stage_cache_read" for h in heals)
        record = warm.trace.record_for("svfg")
        assert record.cache == "miss" and record.outcome == "ok"

    def test_wrong_replay_digest_heals_to_rebuild(self, tmp_path):
        from repro.store.atomic import read_sealed_json, write_sealed_json

        path = self._cold_entry(tmp_path, "svfg")
        meta, _ = read_sealed_json(path, StageCache.KIND, STAGE_CACHE_SCHEMA)
        write_sealed_json(path, StageCache.KIND, STAGE_CACHE_SCHEMA, meta,
                          {"digest": "0" * 64})
        warm, cache = engine_with_cache(tmp_path)
        warm.ensure("svfg")
        assert cache.quarantined
        assert any(h.get("reason") == "digest-mismatch"
                   for h in warm.trace.heals)
        # The healed entry carries the *rebuild's* digest: a third run
        # is a clean replay hit again.
        third, cache3 = engine_with_cache(tmp_path)
        third.ensure("svfg")
        assert third.trace.record_for("svfg").cache == "replay"
        assert not third.trace.heals

    def test_healed_run_matches_clean_run(self, tmp_path):
        path = self._cold_entry(tmp_path, "svfg")
        clean, _ = engine_with_cache(tmp_path)
        clean_snapshot = clean.solve("vsfs").snapshot()
        with open(path, "w") as handle:
            handle.write("garbage")
        healed, _ = engine_with_cache(tmp_path)
        assert healed.solve("vsfs").snapshot() == clean_snapshot

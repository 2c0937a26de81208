"""Unit tests for the on-disk stage cache (repro.engine.cache).

Only Andersen's result is cached (``codec``: a hit skips the stage); the
rest of the substrate is rebuilt from it and never written to the cache.
"""

import glob
import json
import os

from repro.engine import STAGE_CACHE_SCHEMA, Engine, StageCache, StageContext
from repro.store import result_key

SRC = """
int *g; int x; int y;
int main() { g = &x; int *a; a = g; g = &y; return 0; }
"""

OTHER_SRC = "int *p; int z; int main() { p = &z; return 0; }"

#: Every substrate stage the cache covers, with its storage mode.
CACHED_STAGES = {"andersen": "codec"}

#: Substrate stages rebuilt on every run: they write no cache entry.
REBUILT_STAGES = ("modref", "memssa", "svfg", "versioning")


def _reseal_undecodable(path):
    """Seal *path* again around a payload that is no Andersen result."""
    from repro.store.atomic import read_sealed_json, write_sealed_json

    meta, _ = read_sealed_json(path, StageCache.KIND, STAGE_CACHE_SCHEMA)
    write_sealed_json(path, StageCache.KIND, STAGE_CACHE_SCHEMA, meta,
                      {"result_type": "andersen"})
    return path


def engine_with_cache(tmp_path, source=SRC):
    cache = StageCache(str(tmp_path / "stages"))
    ctx = StageContext(module=None, source=source, language="c",
                       cache=cache)
    return Engine(ctx), cache


class TestColdRun:
    def test_populates_every_cached_stage(self, tmp_path):
        engine, cache = engine_with_cache(tmp_path)
        engine.ensure("versioning")
        assert cache.hits == 0
        assert cache.misses == len(CACHED_STAGES)
        for name in CACHED_STAGES:
            path = cache.entry_path(name, engine.ir_hash())
            assert os.path.exists(path), name
        entries = sorted(os.listdir(cache.directory))
        assert len(entries) == len(CACHED_STAGES)
        assert all(name.startswith("stage-andersen-") for name in entries)

    def test_rebuilt_stages_write_no_entry(self, tmp_path):
        engine, cache = engine_with_cache(tmp_path)
        engine.ensure("versioning")
        for name in REBUILT_STAGES:
            assert engine.stages[name].cache_mode is None, name
            assert engine.trace.record_for(name).cache is None, name
            path = cache.entry_path(name, engine.ir_hash())
            assert not os.path.exists(path), name

    def test_entries_record_mode_and_fingerprint(self, tmp_path):
        engine, cache = engine_with_cache(tmp_path)
        engine.ensure("versioning")
        for name, mode in CACHED_STAGES.items():
            path = cache.entry_path(name, engine.ir_hash())
            assert os.path.basename(path).startswith(
                f"stage-{name}-{result_key(engine.ir_hash(), name)[:40]}")
            with open(path) as handle:
                doc = json.load(handle)
            assert doc["meta"]["stage"] == name
            assert doc["meta"]["mode"] == mode
            assert doc["meta"]["ir_hash"] == engine.ir_hash()


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
        for name in REBUILT_STAGES:
            assert not records[name].cache_hit, name

    def test_result_bit_identical_to_cold(self, tmp_path):
        cold, _ = engine_with_cache(tmp_path)
        cold_snapshot = cold.solve("vsfs").snapshot()
        warm, cache = engine_with_cache(tmp_path)
        warm_snapshot = warm.solve("vsfs").snapshot()
        # solve("vsfs") rebuilds the substrate from the cached Andersen
        # result: the one cached stage hits.
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
        ablated, cache = engine_with_cache(tmp_path)
        ablated.solve("sfs-par", jobs=2, parallel_mode="inline")
        assert cache.hits == len(CACHED_STAGES)

    def test_same_ir_from_different_text_hits(self, tmp_path):
        cold, _ = engine_with_cache(tmp_path)
        cold.ensure("andersen")
        respaced, cache = engine_with_cache(
            tmp_path, source=SRC + "\n/* same program */\n")
        respaced.ensure("andersen")
        assert cache.hits == len(CACHED_STAGES)
        assert respaced.trace.record_for("andersen").cache == "codec"


class TestCorruption:
    """A damaged entry is quarantined, never loaded, and named on the heal
    trail with its rejection's ``reason`` (the stage then rebuilds; see
    TestSelfHealing)."""

    def _cold_entry(self, tmp_path, stage):
        engine, cache = engine_with_cache(tmp_path)
        engine.ensure("versioning")
        return cache.entry_path(stage, engine.ir_hash())

    @staticmethod
    def _read_heal(engine):
        heals = [h for h in engine.trace.heals
                 if h.get("point") == "stage_cache_read"]
        assert len(heals) == 1, engine.trace.heals
        assert heals[0]["action"] == "recompute"
        assert heals[0]["error"] == "CheckpointError"
        return heals[0]

    def test_garbage_entry_quarantined(self, tmp_path):
        path = self._cold_entry(tmp_path, "andersen")
        with open(path, "w") as handle:
            handle.write("not json {")
        warm, cache = engine_with_cache(tmp_path)
        warm.ensure("andersen")
        assert cache.quarantined
        assert glob.glob(path + "*.quarantined")
        heal = self._read_heal(warm)
        assert heal["reason"] == "corrupt"
        assert heal["path"] in cache.quarantined

    def test_flipped_checksum_quarantined(self, tmp_path):
        path = self._cold_entry(tmp_path, "andersen")
        with open(path) as handle:
            doc = json.load(handle)
        doc["payload"]["var_pts"] = []  # tampered payload, checksum stale
        with open(path, "w") as handle:
            json.dump(doc, handle)
        warm, cache = engine_with_cache(tmp_path)
        warm.ensure("andersen")
        assert cache.quarantined
        assert self._read_heal(warm)["reason"] == "corrupt"

    def test_undecodable_payload_is_corrupt(self, tmp_path):
        # Re-seal a valid entry around a payload that is not an Andersen
        # result: the seal verifies, decoding fails, the entry is corrupt.
        path = _reseal_undecodable(self._cold_entry(tmp_path, "andersen"))
        warm, cache = engine_with_cache(tmp_path)
        warm.ensure("andersen")
        assert self._read_heal(warm)["reason"] == "corrupt"
        assert cache.quarantined
        assert glob.glob(path + "*.quarantined")

    def test_quarantined_entry_never_loaded_twice(self, tmp_path):
        path = self._cold_entry(tmp_path, "andersen")
        with open(path, "w") as handle:
            handle.write("garbage")
        broken, _ = engine_with_cache(tmp_path)
        broken.ensure("andersen")
        assert self._read_heal(broken)["reason"] == "corrupt"
        # The bad entry is gone and the rebuild was stored, so the next
        # run is a clean hit.
        recovered, cache = engine_with_cache(tmp_path)
        recovered.ensure("andersen")
        assert cache.hits == 1 and not cache.quarantined
        assert not recovered.trace.heals


class TestSelfHealing:
    """Default mode: corruption quarantines, recomputes, and re-stores —
    the run completes and the incident lands on the trace (DESIGN.md §12)."""

    def _cold_entry(self, tmp_path, stage):
        engine, cache = engine_with_cache(tmp_path)
        engine.ensure("versioning")
        return cache.entry_path(stage, engine.ir_hash())

    def test_garbage_entry_recomputes_and_restores(self, tmp_path):
        path = self._cold_entry(tmp_path, "andersen")
        with open(path, "w") as handle:
            handle.write("not json {")
        warm, cache = engine_with_cache(tmp_path)
        artifact = warm.ensure("andersen")  # completes instead of raising
        assert artifact is not None
        assert cache.quarantined and glob.glob(path + "*.quarantined")
        assert os.path.exists(path)  # healed entry rewritten in place
        heals = warm.trace.heals
        assert any(h.get("action") == "recompute"
                   and h.get("point") == "stage_cache_read" for h in heals)
        record = warm.trace.record_for("andersen")
        assert record.cache == "miss" and record.outcome == "ok"

    def test_undecodable_payload_heals_to_rebuild(self, tmp_path):
        _reseal_undecodable(self._cold_entry(tmp_path, "andersen"))
        warm, cache = engine_with_cache(tmp_path)
        warm.ensure("andersen")
        assert cache.quarantined
        assert any(h.get("point") == "stage_cache_read"
                   and h.get("error") == "CheckpointError"
                   and h.get("reason") == "corrupt"
                   for h in warm.trace.heals)
        # The healed entry holds the rebuild: a third run is a clean
        # codec hit again.
        third, _ = engine_with_cache(tmp_path)
        third.ensure("andersen")
        assert third.trace.record_for("andersen").cache == "codec"
        assert not third.trace.heals

    def test_healed_run_matches_clean_run(self, tmp_path):
        path = self._cold_entry(tmp_path, "andersen")
        clean, _ = engine_with_cache(tmp_path)
        clean_snapshot = clean.solve("vsfs").snapshot()
        with open(path, "w") as handle:
            handle.write("garbage")
        healed, _ = engine_with_cache(tmp_path)
        assert healed.solve("vsfs").snapshot() == clean_snapshot

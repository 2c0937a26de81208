"""Unit tests for the content-addressed result store."""

import json
import os

import pytest

from repro.errors import CheckpointError
from repro.frontend import compile_c
from repro.pipeline import AnalysisPipeline
from repro.store import ResultStore, ir_fingerprint, result_key

SRC = """
    int *g; int x; int y;
    int main(int c) { if (c) { g = &x; } else { g = &y; } return 0; }
"""

OTHER_SRC = "int *p; int z; int main() { p = &z; return 0; }"


@pytest.fixture
def module():
    return compile_c(SRC)


@pytest.fixture
def result(module):
    return AnalysisPipeline(module).vsfs()


class TestKeying:
    def test_key_is_deterministic(self, module):
        h = ir_fingerprint(module)
        assert result_key(h, "vsfs") == result_key(h, "vsfs")

    def test_key_separates_configs(self, module):
        h = ir_fingerprint(module)
        keys = {result_key(h, a) for a in ("vsfs", "sfs", "icfg-fs", "ander")}
        assert len(keys) == 4

    def test_fingerprint_tracks_ir_content(self):
        assert ir_fingerprint(compile_c(SRC)) == ir_fingerprint(compile_c(SRC))
        assert ir_fingerprint(compile_c(SRC)) != ir_fingerprint(compile_c(OTHER_SRC))


class TestResultStore:
    def test_miss_then_hit(self, tmp_path, module, result):
        store = ResultStore(str(tmp_path))
        assert store.get(module, "vsfs") is None
        assert store.misses == 1
        store.put(module, "vsfs", result)
        # A fresh compile of the same source addresses the same entry.
        fresh = compile_c(SRC)
        loaded = ResultStore(str(tmp_path)).get(fresh, "vsfs")
        assert loaded is not None
        assert loaded.snapshot() == result.snapshot()

    def test_config_isolation(self, tmp_path, module, result):
        store = ResultStore(str(tmp_path))
        store.put(module, "vsfs", result)
        assert store.get(module, "sfs") is None

    def test_edited_program_misses(self, tmp_path, module, result):
        store = ResultStore(str(tmp_path))
        store.put(module, "vsfs", result)
        assert store.get(compile_c(OTHER_SRC), "vsfs") is None

    def test_andersen_round_trip(self, tmp_path, module):
        ander = AnalysisPipeline(module).andersen()
        store = ResultStore(str(tmp_path))
        store.put(module, "ander", ander)
        loaded = store.get(compile_c(SRC), "ander")
        assert loaded is not None
        assert loaded._var_pts == ander._var_pts
        assert loaded._obj_pts == ander._obj_pts
        assert loaded.callgraph.num_edges() == ander.callgraph.num_edges()
        assert loaded.stats.processed_nodes == ander.stats.processed_nodes

    def test_corrupt_entry_quarantined(self, tmp_path, module, result):
        store = ResultStore(str(tmp_path))
        path = store.put(module, "vsfs", result)
        with open(path, "w") as handle:
            handle.write('{"half": ')
        with pytest.raises(CheckpointError) as exc:
            store.get(module, "vsfs")
        assert exc.value.reason == "corrupt"
        assert not os.path.exists(path)
        assert store.quarantined and os.path.exists(store.quarantined[0])
        # The quarantined entry no longer shadows the key: clean miss now.
        assert store.get(module, "vsfs") is None

    def test_tampered_payload_rejected(self, tmp_path, module, result):
        store = ResultStore(str(tmp_path))
        path = store.put(module, "vsfs", result)
        with open(path) as handle:
            document = json.load(handle)
        document["payload"]["pt"] = ["ff"] * len(document["payload"]["pt"])
        with open(path, "w") as handle:
            json.dump(document, handle)
        with pytest.raises(CheckpointError) as exc:
            store.get(module, "vsfs")
        assert exc.value.reason == "corrupt"

    def test_renamed_entry_mismatch_detected(self, tmp_path, module, result):
        """An entry copied under another analysis's key is caught by meta."""
        store = ResultStore(str(tmp_path))
        src = store.put(module, "vsfs", result)
        h = ir_fingerprint(module)
        dst = store.entry_path(result_key(h, "sfs"))
        os.rename(src, dst)
        with pytest.raises(CheckpointError) as exc:
            store.get(module, "sfs")
        assert exc.value.reason == "config-mismatch"

    def test_wrong_program_under_right_key(self, tmp_path, result):
        """An entry for program A moved to program B's key raises ir-mismatch."""
        module = result.module
        other = compile_c(OTHER_SRC)
        store = ResultStore(str(tmp_path))
        src = store.put(module, "vsfs", result)
        dst = store.entry_path(
            result_key(ir_fingerprint(other), "vsfs"))
        os.rename(src, dst)
        with pytest.raises(CheckpointError) as exc:
            store.get(other, "vsfs")
        assert exc.value.reason == "ir-mismatch"

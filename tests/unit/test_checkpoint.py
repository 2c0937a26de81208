"""Unit tests: atomic writes, sealed envelopes, and the Checkpointer."""

import json
import os

import pytest

from repro.errors import CheckpointError
from repro.runtime.checkpoint import (
    CHECKPOINT_KIND,
    CHECKPOINT_SCHEMA,
    CheckpointConfig,
    Checkpointer,
    checkpoint_path,
    find_checkpoint,
    load_checkpoint,
)
from repro.store.atomic import (
    atomic_write_json,
    atomic_write_text,
    read_sealed_json,
    write_sealed_json,
)


class FakeSolver:
    """Stands in for a real solver: snapshot_state is all save() needs."""

    def __init__(self, payload):
        self.payload = payload

    def snapshot_state(self):
        return self.payload


class TestAtomicWrite:
    def test_writes_content(self, tmp_path):
        path = str(tmp_path / "out.txt")
        atomic_write_text(path, "hello")
        with open(path) as handle:
            assert handle.read() == "hello"

    def test_replaces_existing_file(self, tmp_path):
        path = str(tmp_path / "out.txt")
        atomic_write_text(path, "old")
        atomic_write_text(path, "new")
        with open(path) as handle:
            assert handle.read() == "new"

    def test_no_temp_files_left_behind(self, tmp_path):
        path = str(tmp_path / "out.txt")
        atomic_write_text(path, "x")
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_json_round_trips(self, tmp_path):
        path = str(tmp_path / "out.json")
        atomic_write_json(path, {"a": [1, 2], "b": None})
        with open(path) as handle:
            assert json.load(handle) == {"a": [1, 2], "b": None}


class TestSealedEnvelope:
    def _write(self, tmp_path, payload=None, meta=None):
        path = str(tmp_path / "doc.json")
        write_sealed_json(path, "testkind", 1, meta or {"m": 1},
                          payload if payload is not None else {"p": [1, 2]})
        return path

    def test_round_trip(self, tmp_path):
        path = self._write(tmp_path)
        meta, payload = read_sealed_json(path, "testkind", 1)
        assert meta == {"m": 1}
        assert payload == {"p": [1, 2]}

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError) as exc:
            read_sealed_json(str(tmp_path / "absent.json"), "testkind", 1)
        assert exc.value.reason == "missing"

    def test_truncated_file(self, tmp_path):
        path = self._write(tmp_path)
        with open(path) as handle:
            raw = handle.read()
        with open(path, "w") as handle:
            handle.write(raw[: len(raw) // 2])
        with pytest.raises(CheckpointError) as exc:
            read_sealed_json(path, "testkind", 1)
        assert exc.value.reason == "corrupt"

    def test_flipped_payload_byte_fails_checksum(self, tmp_path):
        path = self._write(tmp_path)
        with open(path) as handle:
            document = json.load(handle)
        document["payload"]["p"][0] = 999  # bit-flip without breaking JSON
        with open(path, "w") as handle:
            json.dump(document, handle)
        with pytest.raises(CheckpointError) as exc:
            read_sealed_json(path, "testkind", 1)
        assert exc.value.reason == "corrupt"

    def test_not_json_at_all(self, tmp_path):
        path = str(tmp_path / "doc.json")
        with open(path, "wb") as handle:
            handle.write(b"\x00\xffgarbage")
        with pytest.raises(CheckpointError) as exc:
            read_sealed_json(path, "testkind", 1)
        assert exc.value.reason == "corrupt"

    def test_wrong_kind(self, tmp_path):
        path = self._write(tmp_path)
        with pytest.raises(CheckpointError) as exc:
            read_sealed_json(path, "otherkind", 1)
        assert exc.value.reason == "kind"

    def test_wrong_schema(self, tmp_path):
        path = self._write(tmp_path)
        with pytest.raises(CheckpointError) as exc:
            read_sealed_json(path, "testkind", 2)
        assert exc.value.reason == "schema"


class TestCheckpointer:
    CONFIG = dict(ir_hash="abc123", analysis="vsfs")

    def _checkpointer(self, tmp_path, **overrides):
        config = CheckpointConfig(str(tmp_path), every_steps=10)
        kwargs = dict(self.CONFIG)
        kwargs.update(overrides)
        return Checkpointer(config, **kwargs)

    def test_save_load_round_trip(self, tmp_path):
        ck = self._checkpointer(tmp_path)
        path = ck.save(FakeSolver({"state": [1, 2, 3]}), step=42)
        meta, payload = load_checkpoint(path, **self.CONFIG)
        assert meta["step"] == 42
        assert payload == {"state": [1, 2, 3]}
        assert ck.saves == 1
        assert ck.total_time > 0

    def test_maybe_respects_step_cadence(self, tmp_path):
        ck = self._checkpointer(tmp_path)
        solver = FakeSolver({})
        assert ck.maybe(solver, 5) is None  # below cadence
        assert ck.maybe(solver, 10) is not None
        assert ck.maybe(solver, 12) is None  # cadence restarts after a save

    def test_mark_resumed_resets_cadence(self, tmp_path):
        ck = self._checkpointer(tmp_path)
        ck.mark_resumed(100)
        assert ck.maybe(FakeSolver({}), 105) is None
        assert ck.maybe(FakeSolver({}), 110) is not None

    def test_find_checkpoint(self, tmp_path):
        ck = self._checkpointer(tmp_path)
        assert find_checkpoint(str(tmp_path), **self.CONFIG) is None
        ck.save(FakeSolver({}), step=1)
        assert find_checkpoint(str(tmp_path), **self.CONFIG) == ck.path
        # A different analysis maps to a different file.
        assert find_checkpoint(str(tmp_path), "abc123", "sfs") is None

    def test_discard(self, tmp_path):
        ck = self._checkpointer(tmp_path)
        ck.save(FakeSolver({}), step=1)
        ck.discard()
        assert not os.path.exists(ck.path)
        ck.discard()  # idempotent

    def test_ir_mismatch(self, tmp_path):
        ck = self._checkpointer(tmp_path)
        path = ck.save(FakeSolver({}), step=1)
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(path, ir_hash="different", analysis="vsfs")
        assert exc.value.reason == "ir-mismatch"

    def test_config_mismatch(self, tmp_path):
        ck = self._checkpointer(tmp_path)
        path = ck.save(FakeSolver({}), step=1)
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(path, **dict(self.CONFIG, analysis="sfs"))
        assert exc.value.reason == "config-mismatch"

    def test_corrupt_checkpoint_is_quarantined(self, tmp_path):
        ck = self._checkpointer(tmp_path)
        path = ck.save(FakeSolver({}), step=1)
        with open(path, "w") as handle:
            handle.write("not json")
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(path)
        assert exc.value.reason == "corrupt"
        assert not os.path.exists(path)  # moved aside
        assert ".quarantined" in exc.value.path
        assert os.path.exists(exc.value.path)

    def test_deterministic_paths(self, tmp_path):
        first = checkpoint_path(str(tmp_path), "h", "vsfs")
        second = checkpoint_path(str(tmp_path), "h", "vsfs")
        other = checkpoint_path(str(tmp_path), "h", "sfs")
        program = checkpoint_path(str(tmp_path), "g", "vsfs")
        assert first == second != other != program != first

    def test_schema_constant_in_envelope(self, tmp_path):
        ck = self._checkpointer(tmp_path)
        path = ck.save(FakeSolver({}), step=1)
        with open(path) as handle:
            document = json.load(handle)
        assert document["kind"] == CHECKPOINT_KIND
        assert document["schema"] == CHECKPOINT_SCHEMA

"""Crash-safe file persistence primitives (atomic writes, sealed JSON).

Two layers, both used by checkpoints (:mod:`repro.runtime.checkpoint`), the
result store (:mod:`repro.store`) and the bench/CLI report writers:

- :func:`atomic_write_text` / :func:`atomic_write_json` — the write is
  all-or-nothing: content goes to a temporary file in the *same directory*,
  is flushed and ``fsync``\\ ed, then ``os.replace``\\ d over the target (an
  atomic rename on POSIX), and finally the directory entry itself is synced.
  A reader — or a crash — can observe the old file or the new file, never a
  truncated hybrid.

- :func:`write_sealed_json` / :func:`read_sealed_json` — a *sealed* document
  additionally carries a magic string, an artifact kind, a schema version
  and a SHA-256 checksum over the canonical encoding of its meta + payload.
  :func:`read_sealed_json` re-verifies all of it and converts every failure
  mode (unreadable bytes, truncation, bit flips, wrong kind, unknown
  schema) into a typed :class:`~repro.errors.CheckpointError` — hostile or
  damaged files are rejected, never half-loaded.

All numeric bit masks are serialised as lowercase hex strings (see
:func:`enc_mask_list`): JSON keeps no 53-bit float limit that way, and
decoding sidesteps CPython's ``int_max_str_digits`` guard on huge
decimal literals.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Any, Dict, Iterable, List, Tuple

from repro.errors import CheckpointError

#: Leading marker of every sealed document.
MAGIC = "repro-sealed"

#: Fields the checksum covers, in canonical (sorted, compact) JSON form.
_SEALED_FIELDS = ("kind", "schema", "meta", "payload")


# ------------------------------------------------------------- atomic writes

def atomic_write_text(path: str, text: str) -> None:
    """Write *text* to *path* atomically (tmp file + fsync + rename)."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(prefix=os.path.basename(path) + ".", dir=directory)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    _fsync_directory(directory)


def atomic_write_json(path: str, payload: Any, indent: int = 2,
                      sort_keys: bool = True) -> None:
    """Serialise *payload* and write it atomically (for reports/benchmarks)."""
    atomic_write_text(path, json.dumps(payload, indent=indent,
                                       sort_keys=sort_keys) + "\n")


def _fsync_directory(directory: str) -> None:
    """Persist the rename itself; best-effort (not every OS supports it)."""
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dir_fd)
    except OSError:
        pass
    finally:
        os.close(dir_fd)


# ------------------------------------------------------------ sealed documents

def _seal_digest(document: Dict[str, Any]) -> str:
    body = json.dumps({key: document[key] for key in _SEALED_FIELDS},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def write_sealed_json(path: str, kind: str, schema: int,
                      meta: Dict[str, Any], payload: Any) -> None:
    """Atomically write a checksummed document of *kind* to *path*."""
    document: Dict[str, Any] = {
        "magic": MAGIC,
        "kind": kind,
        "schema": schema,
        "meta": meta,
        "payload": payload,
    }
    document["checksum"] = _seal_digest(document)
    # Compact encoding: checkpoints are written on a cadence, so size and
    # serialisation time matter more than human readability.
    atomic_write_text(path, json.dumps(document, separators=(",", ":")))


def read_sealed_json(path: str, kind: str,
                     schema: int) -> Tuple[Dict[str, Any], Any]:
    """Read and fully verify a sealed document; returns ``(meta, payload)``.

    Raises :class:`CheckpointError` (and nothing else) on any problem.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as err:
        raise CheckpointError(f"cannot read sealed file: {err}",
                              reason="missing", path=path) from err
    try:
        raw = data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise CheckpointError(f"not valid UTF-8 (corrupt bytes): {err}",
                              reason="corrupt", path=path) from err
    try:
        document = json.loads(raw)
    except ValueError as err:
        raise CheckpointError(f"not valid JSON (truncated or corrupt): {err}",
                              reason="corrupt", path=path) from err
    if not isinstance(document, dict) or document.get("magic") != MAGIC:
        raise CheckpointError("missing sealed-document magic",
                              reason="corrupt", path=path)
    missing = [key for key in (*_SEALED_FIELDS, "checksum") if key not in document]
    if missing:
        raise CheckpointError(f"sealed document lacks fields {missing}",
                              reason="corrupt", path=path)
    if _seal_digest(document) != document["checksum"]:
        raise CheckpointError("checksum mismatch (corrupt or tampered file)",
                              reason="corrupt", path=path)
    if document["kind"] != kind:
        raise CheckpointError(
            f"artifact kind {document['kind']!r} where {kind!r} was expected",
            reason="kind", path=path)
    if document["schema"] != schema:
        raise CheckpointError(
            f"schema version {document['schema']!r} is not supported "
            f"(this build reads version {schema})",
            reason="schema", path=path)
    meta = document["meta"]
    if not isinstance(meta, dict):
        raise CheckpointError("sealed meta is not an object",
                              reason="corrupt", path=path)
    return meta, document["payload"]


def quarantine_file(path: str) -> str:
    """Move a rejected file aside (never delete evidence); returns new path.

    The renamed file keeps its bytes for post-mortems while guaranteeing
    that no later lookup can load it again.  Falls back to returning *path*
    unchanged if the rename itself fails (read-only media).
    """
    target = path + ".quarantined"
    index = 0
    while os.path.exists(target):
        index += 1
        target = f"{path}.quarantined.{index}"
    try:
        os.replace(path, target)
    except OSError:
        return path
    return target


# --------------------------------------------------------------- mask codecs

def enc_mask_list(masks: Iterable[int]) -> List[str]:
    return [format(mask, "x") for mask in masks]


def dec_mask_list(texts: Iterable[str]) -> List[int]:
    return [int(text, 16) for text in texts]

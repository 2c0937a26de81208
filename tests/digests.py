"""Canonical content digests of substrate artifacts, for tests.

A digest is the SHA-256 of a sorted JSON form of the artifact, so a test
can pin a structure's layout or prove that solves leave the shared SVFG
and versioning unchanged.
"""

import hashlib
import json


def canonical_digest(payload) -> str:
    """SHA-256 of the canonical JSON form of *payload*."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def svfg_digest(svfg) -> str:
    """Node kinds, direct and indirect edges, and δ nodes of *svfg*."""
    return canonical_digest({
        "nodes": [type(node).__name__ for node in svfg.nodes],
        "direct": sorted(
            [src, dst]
            for src, succs in enumerate(svfg.direct_succs)
            for dst in succs),
        "indirect": sorted(
            [src, dst, oid]
            for src, row in enumerate(svfg.indirect_succs())
            for oid, dsts in row.items()
            for dst in dsts),
        "delta": sorted(svfg.delta_nodes),
    })


def versioning_digest(versioning) -> str:
    """The versioning snapshot without its wall-clock ``time`` entry: the
    artifact's identity is its labelling, not how long it took."""
    snapshot = dict(versioning.snapshot())
    snapshot.pop("time", None)
    return canonical_digest(snapshot)

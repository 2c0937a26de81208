"""Per-function region digests over the analysis substrate.

A function's content hash says its *own text* is unchanged; it cannot say
the analysis substrate under it is unchanged — memory-SSA annotations
depend on callees' mod/ref sets, the SVFG's node sequence depends on
those annotations, and the auxiliary (Andersen) sets feeding indirect
resolution are whole-program.  The region digest closes that gap: it
hashes everything the solvers consult about a function's region —

- the function's own content fingerprint,
- its mod/ref masks,
- its node sequence (kind, instruction kind, annotated object),
- its **incoming** edge structure (direct and indirect),
- the auxiliary points-to sets of its variables,

all expressed in the **stable key spaces** of :mod:`repro.ir.fingerprint`
(never dense ids), so a digest compares meaningfully across rebuilds of
an edited module.  A nominally-clean function whose digest moved is
promoted to dirty — the backstop that catches Andersen/mod-ref ripples a
pure fingerprint diff would miss.

Edges are hashed on the *incoming* side deliberately: a region's values
depend on its inputs, not on who consumes its outputs.  When an edit
adds a new consumer of an untouched producer (say, a sibling starts
reading a global the producer initialises), the producer's region and
values are unaffected — only the consumer must recompute.  Hashing
outgoing edges would dirty the producer, and with it (by forward
closure) everything downstream, destroying selectivity.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List

from repro.datastructs.bitset import iter_bits
from repro.ir.fingerprint import (
    function_fingerprint,
    node_keys,
    object_keys,
    variable_keys,
)
from repro.svfg.nodes import InstNode


def _mask_keys(mask: int, okeys: List[str]) -> List[str]:
    return sorted(okeys[oid] if 0 <= oid < len(okeys) else f"oid:{oid}"
                  for oid in iter_bits(mask))


def region_digests(svfg, modref, andersen=None) -> Dict[str, str]:
    """One substrate digest per function owning SVFG nodes.

    Deterministic (canonical JSON, sorted where order is not content)
    and computed over the *built* substrate graph — never a solver's
    OTF-mutated copy — so capture-time and plan-time digests compare.
    """
    module = svfg.module
    andersen = andersen if andersen is not None else svfg.andersen
    okeys = object_keys(module)
    vkeys = variable_keys(module)
    nkeys = node_keys(svfg)
    nodes = svfg.nodes
    ind_preds = svfg.indirect_preds()

    # Variables owned by each function (locals key as ``v:<fn>:<ord>``).
    vars_by_fn: Dict[str, List[int]] = {}
    for vid, key in enumerate(vkeys):
        if key.startswith("v:"):
            vars_by_fn.setdefault(key.split(":", 2)[1], []).append(vid)

    digests: Dict[str, str] = {}
    for name, nids in svfg.nodes_by_function().items():
        if not name:
            continue
        function = module.functions.get(name)
        if function is None:
            continue
        sequence = []
        edges = []
        for nid in nids:
            node = nodes[nid]
            kind = type(node).__name__
            if isinstance(node, InstNode):
                detail = type(node.inst).__name__
            else:
                obj = getattr(node, "obj", None)
                detail = okeys[obj.id] if obj is not None else ""
            sequence.append([kind, detail])
            edges.append([
                nkeys[nid],
                sorted(nkeys[src] for src in svfg.direct_preds[nid]),
                sorted(
                    [okeys[oid], nkeys[src]]
                    for src, oid in ind_preds[nid]
                ),
            ])
        aux = {
            vkeys[vid]: _mask_keys(andersen.pts_mask(module.variables[vid]),
                                   okeys)
            for vid in vars_by_fn.get(name, ())
        }
        record = {
            "fp": function_fingerprint(function),
            "mod": _mask_keys(modref.mod.get(function, 0), okeys),
            "ref": _mask_keys(modref.ref.get(function, 0), okeys),
            "nodes": sequence,
            "edges": edges,
            "aux": aux,
        }
        text = json.dumps(record, sort_keys=True, separators=(",", ":"))
        digests[name] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return digests

"""The paper's motivating example (Figures 2 and 9) as a runnable program.

Figure 2 shows an SVFG fragment (from GNU ``true``) where one object ``o``
is defined by two stores and read by four loads: two loads before a
conditional weak store see ``{a}``, two loads after the join see ``{a, b}``.
SFS keeps six points-to sets for ``o`` (four INs + two OUTs) and six
propagation constraints; VSFS keeps **three** sets (κ₁, κ₂, κ₁⊙κ₂) and
**two** constraints (κ₁ → κ₁⊙κ₂ and κ₂ → κ₁⊙κ₂).

The mini-C program below compiles to an SVFG containing exactly that
shape for the global slot ``o1``:

- ``o1 = &a``                 — the κ₁-yielding store (ℓ₁);
- ``sink_l2(o1); sink_l3(o1)`` — the two loads consuming κ₁ (ℓ₂, ℓ₃);
- a *may*-store ``*p = &b`` on a branch (p ∈ {&o1, &o2}), weak, yielding κ₂;
- ``sink_l4(o1); sink_l5(o1)`` — the two loads after the join, both
  consuming the meld κ₁⊙κ₂ (ℓ₄, ℓ₅).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro.core.versioning import ObjectVersioning
from repro.frontend import compile_c
from repro.ir.instructions import LoadInst
from repro.pipeline import AnalysisPipeline
from repro.svfg.nodes import InstNode

MOTIVATING_SOURCE = """
int *o1; int *o2;
int a; int b;
void sink_l2(int *v) { }
void sink_l3(int *v) { }
void sink_l4(int *v) { }
void sink_l5(int *v) { }
int main(int c) {
    o1 = &a;
    sink_l2(o1);
    sink_l3(o1);
    if (c) {
        int **p;
        if (c) { p = &o1; } else { p = &o2; }
        *p = &b;
    }
    sink_l4(o1);
    sink_l5(o1);
    return 0;
}
"""


@dataclass
class MotivatingReport:
    """What Figure 2b compares, measured on this implementation."""

    #: pt observed at each sink (ℓ₂..ℓ₅), by sink name.
    observed: Dict[str, Set[str]]
    #: distinct non-ε versions of o1 (the paper's 3: κ₁, κ₂, κ₁⊙κ₂).
    vsfs_ptsets_for_o1: int
    #: deduplicated VSFS propagation constraints for o1 (the paper's 2).
    vsfs_constraints_for_o1: int
    #: SFS points-to set copies held for o1 across IN/OUT maps (≥ 6).
    sfs_ptsets_for_o1: int
    #: SFS propagations performed for o1 (≥ 6).
    sfs_propagations_for_o1: int
    #: version of o1 consumed per sink's load (ℓ₂/ℓ₃ share; ℓ₄/ℓ₅ share).
    consumed_versions: Dict[str, int]


def run_motivating_example() -> MotivatingReport:
    """Compile, analyse, and measure the motivating example."""
    module = compile_c(MOTIVATING_SOURCE)
    pipeline = AnalysisPipeline(module)
    o1 = next(obj for obj in module.objects if obj.name == "o1")

    # --- VSFS side: versions and constraints for o1.
    svfg = pipeline.svfg()
    versioning = ObjectVersioning(svfg, keep_all_versions=True).run()
    vsfs_sets = max(versioning.num_versions(o1.id) - 1, 0)  # minus ε
    vsfs_constraints = sum(
        len(dsts)
        for (oid, __), dsts in versioning.constraints.items()
        if oid == o1.id
    )

    # Which version each sink's load consumes (loads of o1 in main).
    consumed: Dict[str, int] = {}
    main = module.functions["main"]
    o1_var = next(v for v in module.variables if v.name == "o1")
    sink_order = ["sink_l2", "sink_l3", "sink_l4", "sink_l5"]
    loads = [
        node
        for node in svfg.nodes
        if isinstance(node, InstNode)
        and isinstance(node.inst, LoadInst)
        and node.function is main
        and node.inst.ptr is o1_var
    ]
    for sink, node in zip(sink_order, loads):
        consumed[sink] = versioning.consumed_version(node.id, o1.id)

    # --- SFS side: count IN/OUT entries and propagations for o1.
    from repro.solvers.sfs import SFSAnalysis

    sfs = SFSAnalysis(pipeline.svfg())
    sfs_result = sfs.run()
    sfs_svfg = sfs.svfg  # the solver's view, OTF edges included
    sfs_sets = sum(1 for table in sfs.in_sets.values() if table.get(o1.id))
    sfs_sets += sum(1 for table in sfs.out_sets.values() if table.get(o1.id))
    sfs_props = sum(
        len(row.get(o1.id, ())) for row in sfs_svfg.indirect_succs())

    # --- Observed precision at the sinks (from the VSFS run; SFS agrees,
    # asserted by the test suite).
    vsfs_result = pipeline.vsfs()
    observed = {
        sink: {obj.name for obj in vsfs_result.points_to(module.functions[sink].params[0])}
        for sink in sink_order
    }

    return MotivatingReport(
        observed=observed,
        vsfs_ptsets_for_o1=vsfs_sets,
        vsfs_constraints_for_o1=vsfs_constraints,
        sfs_ptsets_for_o1=sfs_sets,
        sfs_propagations_for_o1=sfs_props,
        consumed_versions=consumed,
    )

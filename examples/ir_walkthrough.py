#!/usr/bin/env python3
"""Pipeline walkthrough in the spirit of the paper's Figure 1: C source →
partial-SSA IR → χ/μ annotations → SVFG.

Shows, for a small program, the IR after mem2reg, the memory SSA
annotations the auxiliary analysis induces, and the SVFG's indirect
(value-flow) edges with their object labels.

Run:  python examples/ir_walkthrough.py
"""

from repro import AnalysisPipeline, compile_c
from repro.ir import print_module
from repro.ir.printer import format_instruction
from repro.svfg.nodes import InstNode

SOURCE = r"""
int a;
int *p;

int main(int c) {
    p = &a;          // *p now names a
    int *q;
    q = p;
    *q = 5;          // store through the alias
    int v;
    v = *p;          // reads what *q wrote
    return v;
}
"""


def main() -> None:
    module = compile_c(SOURCE)
    pipeline = AnalysisPipeline(module)
    memssa = pipeline.memssa()
    svfg = pipeline.svfg()

    print("== IR (partial SSA after mem2reg) ==")
    print(print_module(module, show_labels=True))

    print("== memory SSA annotations (chi/mu) ==")
    for inst, chis in memssa.store_chis.items():
        annotations = ", ".join(repr(chi) for chi in chis)
        print(f"  l{inst.id}: {format_instruction(inst)}   [{annotations}]")
    for inst, mus in memssa.load_mus.items():
        annotations = ", ".join(repr(mu) for mu in mus)
        print(f"  l{inst.id}: {format_instruction(inst)}   [{annotations}]")
    print(f"  ({memssa.num_memphis()} MEMPHI nodes inserted)")

    print("\n== SVFG indirect (value-flow) edges ==")
    ind_succs = svfg.indirect_succs()
    for node in svfg.nodes:
        for oid, succs in ind_succs[node.id].items():
            obj = module.objects[oid]
            for succ in succs:
                print(f"  {node.describe():40s} --[{obj.name}]--> "
                      f"{svfg.nodes[succ].describe()}")

    stats = svfg.stats()
    print(f"\nSVFG: {stats.num_nodes} nodes, {stats.num_direct_edges} direct edges, "
          f"{stats.num_indirect_edges} indirect edges")


if __name__ == "__main__":
    main()

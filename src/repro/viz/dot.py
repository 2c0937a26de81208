"""DOT (Graphviz) renderers for CFGs, call graphs, and SVFGs."""

from __future__ import annotations

from typing import List, Optional

from repro.analysis.callgraph import CallGraph
from repro.core.versioning import ObjectVersioning
from repro.ir.function import Function
from repro.ir.instructions import StoreInst
from repro.ir.printer import format_instruction
from repro.svfg.builder import SVFG
from repro.svfg.nodes import InstNode, MemPhiNode


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\l")


def cfg_to_dot(function: Function) -> str:
    """The function's control-flow graph, one record per basic block."""
    lines: List[str] = [f'digraph "cfg_{function.name}" {{', "  node [shape=box];"]
    for block in function.blocks:
        body = "\\l".join(_escape(format_instruction(inst)) for inst in block.instructions)
        lines.append(f'  "{block.name}" [label="{block.name}:\\l{body}\\l"];')
    for block in function.blocks:
        for succ in block.successors():
            lines.append(f'  "{block.name}" -> "{succ.name}";')
    lines.append("}")
    return "\n".join(lines)


def callgraph_to_dot(callgraph: CallGraph) -> str:
    """Function-level call graph; edge labels carry call-site counts."""
    lines = ['digraph "callgraph" {', "  node [shape=ellipse];"]
    functions = set()
    edges = {}
    for call, callee in callgraph.call_edges():
        caller = call.function
        functions.update((caller, callee))
        edges[(caller, callee)] = edges.get((caller, callee), 0) + 1
    for function in sorted(functions, key=lambda f: f.name):
        lines.append(f'  "{function.name}";')
    for (caller, callee), count in sorted(edges.items(), key=lambda e: (e[0][0].name, e[0][1].name)):
        label = f' [label="{count}"]' if count > 1 else ""
        lines.append(f'  "{caller.name}" -> "{callee.name}"{label};')
    lines.append("}")
    return "\n".join(lines)


def svfg_to_dot(
    svfg: SVFG,
    versioning: Optional[ObjectVersioning] = None,
    include_direct: bool = True,
    only_function: Optional[str] = None,
) -> str:
    """The SVFG; indirect edges are labelled with their object (and, when a
    versioning is supplied, source/target versions à la Figure 9)."""

    def wanted(node_id: int) -> bool:
        if only_function is None:
            return True
        function = svfg.nodes[node_id].function
        return function is not None and function.name == only_function

    lines = ['digraph "svfg" {', "  node [shape=box, fontsize=10];"]
    used = set()
    edge_lines: List[str] = []
    ind_succs = svfg.indirect_succs()

    for node in svfg.nodes:
        if not wanted(node.id):
            continue
        for oid, succs in ind_succs[node.id].items():
            obj = svfg.module.objects[oid]
            for succ in succs:
                if not wanted(succ):
                    continue
                label = obj.name
                if versioning is not None:
                    src_ver = versioning.yielded_version(node.id, oid)
                    dst_ver = versioning.consumed_version(succ, oid)
                    label = f"{obj.name}: k{src_ver}->k{dst_ver}"
                edge_lines.append(
                    f'  n{node.id} -> n{succ} [label="{_escape(label)}", color=blue];'
                )
                used.update((node.id, succ))
        if include_direct:
            for succ in svfg.direct_succs[node.id]:
                if wanted(succ):
                    edge_lines.append(f"  n{node.id} -> n{succ};")
                    used.update((node.id, succ))

    for node_id in sorted(used):
        node = svfg.nodes[node_id]
        shape = ""
        if isinstance(node, InstNode) and isinstance(node.inst, StoreInst):
            shape = ", peripheries=2"  # the paper's double-lined store nodes
        elif isinstance(node, MemPhiNode):
            shape = ", shape=diamond"
        lines.append(f'  n{node_id} [label="{_escape(node.describe())}"{shape}];')
    lines.extend(edge_lines)
    lines.append("}")
    return "\n".join(lines)

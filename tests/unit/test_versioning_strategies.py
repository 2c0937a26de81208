"""Cross-validation of the two meld-labelling strategies.

``fixpoint`` (the literal worklist reading of Figure 8) is the oracle for
``scc``: both must induce the *same partition* of (node, side) pairs per
object and the same amount of propagation work.
"""

from typing import Dict, FrozenSet, Tuple

import pytest

from repro.core.versioning import ObjectVersioning
from repro.frontend import compile_c
from repro.pipeline import AnalysisPipeline

PROGRAMS = {
    "straightline": """
        int *g; int x;
        int main() { g = &x; int *a; a = g; int *b; b = g; return 0; }
    """,
    "joins": """
        int *g; int x; int y;
        int main(int c) {
            if (c) { g = &x; } else { g = &y; }
            int *a; a = g;
            if (c) { g = &x; }
            int *b; b = g;
            return 0;
        }
    """,
    "interprocedural": """
        struct node { int v; struct node *f0; };
        struct node *g;
        struct node *cb(struct node *a, struct node *b) { g = a; return b; }
        fnptr h;
        int main(int c) {
            struct node *n = (struct node*)malloc(sizeof(struct node));
            h = cb;
            struct node *r = h(n, g);
            while (c) { r = cb(r, n); c = c - 1; }
            return 0;
        }
    """,
}


def partition(versioning: ObjectVersioning) -> Dict[int, FrozenSet[FrozenSet[Tuple[int, str]]]]:
    """Per object: the partition of (node, side) pairs by version."""
    svfg = versioning.svfg
    num_nodes = len(svfg.nodes)
    oids = set()
    for row in svfg.indirect_succs():
        oids.update(row)
    for row in svfg.indirect_preds():
        oids.update(oid for __, oid in row)
    result: Dict[int, FrozenSet] = {}
    for oid in oids:
        classes: Dict[int, set] = {}
        for node_id in range(num_nodes):
            cv = versioning.consumed_version(node_id, oid)
            yv = versioning.yielded_version(node_id, oid)
            classes.setdefault(cv, set()).add((node_id, "C"))
            classes.setdefault(yv, set()).add((node_id, "Y"))
        result[oid] = frozenset(frozenset(group) for group in classes.values())
    return result


@pytest.mark.parametrize("name", sorted(PROGRAMS))
@pytest.mark.parametrize("strategy", ["fixpoint"])
def test_strategy_partition_matches_scc(name, strategy):
    pipeline = AnalysisPipeline(compile_c(PROGRAMS[name]))
    base = ObjectVersioning(pipeline.svfg(), keep_all_versions=True).run("scc")
    other = ObjectVersioning(pipeline.svfg(), keep_all_versions=True).run(strategy)
    assert partition(base) == partition(other)
    assert base.num_constraints() == other.num_constraints()


@pytest.mark.parametrize("strategy", ["scc", "fixpoint"])
def test_vsfs_correct_under_every_strategy(strategy):
    from repro.core.vsfs import VSFSAnalysis

    pipeline = AnalysisPipeline(compile_c(PROGRAMS["interprocedural"]))
    sfs_snapshot = pipeline.sfs().snapshot()
    svfg = pipeline.svfg()
    versioning = ObjectVersioning(svfg).run(strategy)
    result = VSFSAnalysis(svfg, versioning=versioning).run()
    assert result.snapshot() == sfs_snapshot


def test_fixpoint_on_generated_workload():
    from repro.bench.workloads import WorkloadConfig, generate_program

    module = generate_program(WorkloadConfig(seed=77, num_functions=6,
                                             stmts_per_function=8,
                                             indirect_call_rate=0.2))
    pipeline = AnalysisPipeline(module)
    base = ObjectVersioning(pipeline.svfg(), keep_all_versions=True).run("scc")
    fixpoint = ObjectVersioning(pipeline.svfg(), keep_all_versions=True).run("fixpoint")
    assert partition(base) == partition(fixpoint)
    assert base.num_constraints() == fixpoint.num_constraints()

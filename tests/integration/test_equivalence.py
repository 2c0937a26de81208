"""E9: the paper's correctness claim (§IV-E) — VSFS ≡ SFS — plus the
precision ordering against the other analyses:

    pt_SFS(v) = pt_VSFS(v)  ⊆  pt_ICFG(v)  ⊆  pt_Andersen(v)

The dense ICFG baseline sits *above* SFS interprocedurally because it
propagates the whole memory state through every callee: objects a callee
never touches leak across to other callers' return sites, an imprecision
the staged solvers avoid through mod/ref-filtered χ/μ placement.  On
call-free paths the two coincide, which the intraprocedural scenario
asserts exactly.
"""

import pytest

from repro.analysis.andersen import run_andersen
from repro.bench.workloads import SUITE, WorkloadConfig, generate_program
from repro.frontend import compile_c
from repro.pipeline import AnalysisPipeline

SCENARIOS = {
    "globals": """
        int *g; int x; int y;
        int main(int c) {
            g = &x;
            if (c) { g = &y; }
            int *a; a = g;
            return 0;
        }
    """,
    "linked-list": """
        struct node { int v; struct node *next; };
        struct node *head;
        void push() {
            struct node *n = (struct node*)malloc(sizeof(struct node));
            n->next = head;
            head = n;
        }
        int main() {
            push(); push();
            struct node *p; p = head;
            while (p != null) { p = p->next; }
            return 0;
        }
    """,
    "callbacks": """
        struct node { int v; struct node *f0; };
        struct node *g;
        struct node *cb1(struct node *a, struct node *b) { g = a; return b; }
        struct node *cb2(struct node *a, struct node *b) { g = b; return a; }
        fnptr h;
        int main(int c) {
            struct node *n = (struct node*)malloc(sizeof(struct node));
            if (c) { h = cb1; } else { h = cb2; }
            struct node *r = h(n, g);
            return 0;
        }
    """,
    "fields": """
        struct pair { int *fst; int *snd; };
        struct pair gp;
        int x; int y;
        void set(struct pair *p) { p->fst = &x; p->snd = &y; }
        int main() {
            set(&gp);
            int *a; a = gp.fst;
            int *b; b = gp.snd;
            return 0;
        }
    """,
    "recursion": """
        struct node { int v; struct node *next; };
        struct node *build(int n) {
            struct node *x = (struct node*)malloc(sizeof(struct node));
            if (n) { x->next = build(n - 1); }
            return x;
        }
        int main() { struct node *l = build(3); return 0; }
    """,
}


def masks(module, result):
    return [result.pts_mask(v) for v in module.variables]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_equivalence_chain(name):
    module = compile_c(SCENARIOS[name])
    pipeline = AnalysisPipeline(module)
    andersen = run_andersen(module)
    sfs = pipeline.sfs()
    vsfs = pipeline.vsfs()
    icfg = pipeline.icfg_fs()

    sfs_masks = masks(module, sfs)
    vsfs_masks = masks(module, vsfs)
    icfg_masks = masks(module, icfg)
    ander_masks = [andersen.pts_mask(v) for v in module.variables]

    assert sfs_masks == vsfs_masks, "VSFS must match SFS exactly"
    for vid, (sparse, dense, ander) in enumerate(zip(sfs_masks, icfg_masks, ander_masks)):
        var = module.variables[vid]
        assert sparse | dense == dense, f"SFS ⊄ ICFG at {var!r}"
        assert dense | ander == ander, f"ICFG ⊄ Andersen at {var!r}"


def test_intraprocedural_icfg_matches_sfs_exactly():
    module = compile_c("""
        int *g; int x; int y; int z;
        int main(int c) {
            g = &x;
            int *a; a = g;
            if (c) { g = &y; } else { g = &z; }
            int *b; b = g;
            return 0;
        }
    """)
    # Inline everything into main (no calls besides the implicit
    # __module_init__ -> main): dense and sparse coincide.
    pipeline = AnalysisPipeline(module)
    assert masks(module, pipeline.sfs()) == masks(module, pipeline.icfg_fs())


@pytest.mark.parametrize("name", ["du", "ninja", "bake", "dpkg"])
def test_small_suite_program_equivalence(name):
    module = generate_program(SUITE[name])
    pipeline = AnalysisPipeline(module)
    sfs = pipeline.sfs()
    vsfs = pipeline.vsfs()
    assert masks(module, sfs) == masks(module, vsfs)
    ander = run_andersen(module)
    for v in module.variables:
        assert sfs.pts_mask(v) | ander.pts_mask(v) == ander.pts_mask(v)


def test_small_workload_sfs_within_icfg():
    config = WorkloadConfig(name="tiny", seed=7, num_functions=4,
                            stmts_per_function=6, num_globals=3,
                            num_handlers=1, indirect_call_rate=0.2)
    module = generate_program(config)
    pipeline = AnalysisPipeline(module)
    sfs = pipeline.sfs()
    icfg = pipeline.icfg_fs()
    for v in module.variables:
        assert sfs.pts_mask(v) | icfg.pts_mask(v) == icfg.pts_mask(v), repr(v)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_optimisation_matrix_preserves_precision(name):
    """The version-cycle collapse is result-invisible: VSFS over the
    collapsed versioning and over the paper's meld-only one agree bit for
    bit with SFS."""
    from repro.core.versioning import ObjectVersioning
    from repro.core.vsfs import VSFSAnalysis

    module = compile_c(SCENARIOS[name])
    pipeline = AnalysisPipeline(module)
    baseline = masks(module, pipeline.sfs())
    assert masks(module, pipeline.vsfs()) == baseline, "vsfs diverged"
    # Built after the collapsed solve: both write the single-object
    # nodes' version slots.
    meld_only = ObjectVersioning(pipeline.svfg()).run(collapse=False)
    result = VSFSAnalysis(pipeline.svfg(), meld_only).run()
    assert masks(module, result) == baseline, "meld-only vsfs diverged"


def test_callgraphs_agree_between_sfs_and_vsfs():
    module = compile_c(SCENARIOS["callbacks"])
    pipeline = AnalysisPipeline(module)
    sfs = pipeline.sfs()
    vsfs = pipeline.vsfs()
    sfs_edges = {(c.id, f.name) for c, f in sfs.callgraph.call_edges()}
    vsfs_edges = {(c.id, f.name) for c, f in vsfs.callgraph.call_edges()}
    assert sfs_edges == vsfs_edges

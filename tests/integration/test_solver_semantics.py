"""Integration tests: flow-sensitive solver semantics on targeted programs.

Each scenario checks a behaviour the paper's rules (Figure 10) require —
on *both* SFS and VSFS, which must agree exactly.

Observation pattern: mem2reg erases plain locals, so test programs pass the
value of interest to an empty ``sink_*`` function; the solver binds it to
the sink's formal parameter, which we read back by name.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.andersen import run_andersen
from repro.frontend import compile_c
from repro.pipeline import AnalysisPipeline


def solve_both(src):
    module = compile_c(src)
    pipeline = AnalysisPipeline(module)
    return module, pipeline.sfs(), pipeline.vsfs()


def observed(module, result, sink_name):
    """pt of the first parameter of observation function *sink_name*."""
    param = module.functions[sink_name].params[0]
    return {obj.name for obj in result.points_to(param)}


@pytest.fixture(scope="module")
def flow_sensitivity_case():
    return solve_both("""
        int *g; int x; int y;
        void sink_a(int *p) { }
        void sink_b(int *p) { }
        int main() {
            g = &x;
            sink_a(g);        // sees only {x}
            g = &y;
            sink_b(g);        // sees only {y}: strong update killed x
            return 0;
        }
    """)


class TestFlowSensitivity:
    def test_first_load_sees_only_first_store(self, flow_sensitivity_case):
        module, sfs, vsfs = flow_sensitivity_case
        for result in (sfs, vsfs):
            assert observed(module, result, "sink_a") == {"x"}

    def test_second_load_sees_strong_update(self, flow_sensitivity_case):
        module, sfs, vsfs = flow_sensitivity_case
        for result in (sfs, vsfs):
            assert observed(module, result, "sink_b") == {"y"}

    def test_andersen_is_less_precise_here(self, flow_sensitivity_case):
        module, __, __vsfs = flow_sensitivity_case
        andersen = run_andersen(module)
        param = module.functions["sink_a"].params[0]
        assert {o.name for o in andersen.points_to(param)} == {"x", "y"}

    def test_strong_update_counted(self, flow_sensitivity_case):
        __, sfs, vsfs = flow_sensitivity_case
        assert sfs.stats.strong_updates >= 2
        assert vsfs.stats.strong_updates >= 2

    def test_sfs_vsfs_identical_everywhere(self, flow_sensitivity_case):
        __, sfs, vsfs = flow_sensitivity_case
        assert sfs.snapshot() == vsfs.snapshot()


class TestWeakUpdates:
    def test_heap_store_never_kills(self):
        module, sfs, vsfs = solve_both("""
            struct cell { int *p; };
            int x; int y;
            void sink_b(int *p) { }
            int main() {
                struct cell *c = (struct cell*)malloc(sizeof(struct cell));
                c->p = &x;
                c->p = &y;                 // heap object: weak update only
                sink_b(c->p);
                return 0;
            }
        """)
        for result in (sfs, vsfs):
            assert observed(module, result, "sink_b") == {"x", "y"}

    def test_may_target_store_is_weak(self):
        module, sfs, vsfs = solve_both("""
            int *g1; int *g2; int x; int y;
            void sink_a(int *p) { }
            int main(int c) {
                g1 = &x; g2 = &x;
                int **p;
                if (c) { p = &g1; } else { p = &g2; }
                *p = &y;                   // may write either: weak
                sink_a(g1);
                return 0;
            }
        """)
        for result in (sfs, vsfs):
            assert observed(module, result, "sink_a") == {"x", "y"}

    def test_array_store_is_weak(self):
        module, sfs, vsfs = solve_both("""
            int *arr[4]; int x; int y;
            void sink_a(int *p) { }
            int main() {
                arr[0] = &x;
                arr[1] = &y;               // same abstract object: weak
                sink_a(arr[0]);
                return 0;
            }
        """)
        for result in (sfs, vsfs):
            assert observed(module, result, "sink_a") == {"x", "y"}

    def test_stack_slot_in_loop_not_strong_updated(self):
        module, sfs, vsfs = solve_both("""
            int x; int y;
            int **keep;
            void sink_a(int *p) { }
            int main() {
                int i;
                for (i = 0; i < 2; i = i + 1) {
                    int *slot;
                    keep = &slot;
                    *keep = &x;
                    *keep = &y;             // slot is in a loop: weak
                    sink_a(slot);
                }
                return 0;
            }
        """)
        for result in (sfs, vsfs):
            assert observed(module, result, "sink_a") == {"x", "y"}


class TestFieldSensitivity:
    def test_distinct_fields_do_not_alias(self):
        module, sfs, vsfs = solve_both("""
            struct pair { int *fst; int *snd; };
            struct pair g;
            int x; int y;
            void sink_a(int *p) { }
            void sink_b(int *p) { }
            int main() {
                g.fst = &x;
                g.snd = &y;
                sink_a(g.fst);
                sink_b(g.snd);
                return 0;
            }
        """)
        for result in (sfs, vsfs):
            assert observed(module, result, "sink_a") == {"x"}
            assert observed(module, result, "sink_b") == {"y"}

    def test_field_through_heap_pointer(self):
        module, sfs, vsfs = solve_both("""
            struct pair { int *fst; int *snd; };
            int x;
            void sink_a(int *p) { }
            void sink_b(int *p) { }
            int main() {
                struct pair *p = (struct pair*)malloc(sizeof(struct pair));
                p->snd = &x;
                sink_a(p->snd);
                sink_b(p->fst);
                return 0;
            }
        """)
        for result in (sfs, vsfs):
            assert observed(module, result, "sink_a") == {"x"}
            assert observed(module, result, "sink_b") == set()


class TestInterprocedural:
    def test_value_flows_through_callee(self):
        module, sfs, vsfs = solve_both("""
            int *g; int x;
            void setter() { g = &x; }
            void sink_a(int *p) { }
            int main() {
                setter();
                sink_a(g);
                return 0;
            }
        """)
        for result in (sfs, vsfs):
            assert observed(module, result, "sink_a") == {"x"}

    def test_callee_effect_not_visible_before_call(self):
        module, sfs, vsfs = solve_both("""
            int *g; int x;
            void setter() { g = &x; }
            void sink_a(int *p) { }
            void sink_b(int *p) { }
            int main() {
                sink_a(g);        // before the call: empty
                setter();
                sink_b(g);        // after: {x}
                return 0;
            }
        """)
        for result in (sfs, vsfs):
            assert observed(module, result, "sink_a") == set()
            assert observed(module, result, "sink_b") == {"x"}

    def test_value_survives_non_modifying_call(self):
        module, sfs, vsfs = solve_both("""
            int *g; int h; int x;
            void unrelated() { h = 1; }
            void sink_a(int *p) { }
            int main() {
                g = &x;
                unrelated();
                sink_a(g);
                return 0;
            }
        """)
        for result in (sfs, vsfs):
            assert observed(module, result, "sink_a") == {"x"}

    def test_return_value_binding(self):
        module, sfs, vsfs = solve_both("""
            int x;
            int *give() { return &x; }
            void sink_a(int *p) { }
            int main() { sink_a(give()); return 0; }
        """)
        for result in (sfs, vsfs):
            assert observed(module, result, "sink_a") == {"x"}

    def test_parameter_binding(self):
        module, sfs, vsfs = solve_both("""
            int *g;
            void stash(int *p) { g = p; }
            int x;
            void sink_a(int *p) { }
            int main() { stash(&x); sink_a(g); return 0; }
        """)
        for result in (sfs, vsfs):
            assert observed(module, result, "sink_a") == {"x"}


class TestOnTheFlyCallGraph:
    def test_indirect_call_resolved(self):
        module, sfs, vsfs = solve_both("""
            struct node { int v; struct node *f0; };
            struct node *g;
            struct node *setter(struct node *a, struct node *b) { g = a; return b; }
            fnptr h;
            void sink_got(struct node *p) { }
            void sink_ret(struct node *p) { }
            int main() {
                struct node *n = (struct node*)malloc(sizeof(struct node));
                h = setter;
                struct node *r = h(n, n);
                sink_ret(r);
                sink_got(g);
                return 0;
            }
        """)
        heap = next(o.name for o in module.objects if o.kind.value == "heap")
        for result in (sfs, vsfs):
            assert observed(module, result, "sink_got") == {heap}
            assert observed(module, result, "sink_ret") == {heap}
            assert result.stats.indirect_calls_resolved >= 1

    def test_fs_callgraph_within_andersens(self):
        module, sfs, vsfs = solve_both("""
            struct node { int v; };
            struct node *f1(struct node *a, struct node *b) { return a; }
            struct node *f2(struct node *a, struct node *b) { return b; }
            fnptr h;
            int main(int c) {
                if (c) { h = f1; } else { h = f2; }
                struct node *r = h(null, null);
                return 0;
            }
        """)
        andersen = run_andersen(module)
        assert sfs.callgraph.num_edges() <= andersen.callgraph.num_edges()
        assert vsfs.callgraph.num_edges() == sfs.callgraph.num_edges()

    def test_unreached_handler_not_called(self):
        module, sfs, vsfs = solve_both("""
            struct node { int v; };
            struct node *g;
            struct node *used(struct node *a, struct node *b) { g = a; return a; }
            struct node *unused(struct node *a, struct node *b) { return b; }
            fnptr h;
            int main() {
                h = used;
                struct node *r = h(null, null);
                return 0;
            }
        """)
        unused = module.functions["unused"]
        for result in (sfs, vsfs):
            assert not result.callgraph.callsites_of(unused)


class TestMultiLevelPointers:
    def test_double_indirection(self):
        module, sfs, vsfs = solve_both("""
            int x;
            int **keep;
            void sink_a(int *p) { }
            int main() {
                int *p;
                keep = &p;        // keep p in memory
                *keep = &x;
                sink_a(*keep);
                return 0;
            }
        """)
        for result in (sfs, vsfs):
            assert observed(module, result, "sink_a") == {"x"}

    def test_swap_through_pointers(self):
        module, sfs, vsfs = solve_both("""
            int x; int y;
            void swap(int **a, int **b) {
                int *t;
                t = *a;
                *a = *b;
                *b = t;
            }
            void sink_a(int *p) { }
            void sink_b(int *p) { }
            int main() {
                int *p; int *q;
                p = &x; q = &y;
                swap(&p, &q);
                sink_a(p);
                sink_b(q);
                return 0;
            }
        """)
        for result in (sfs, vsfs):
            # context-insensitive swap: both end up {x, y} at the sinks
            assert "y" in observed(module, result, "sink_a")
            assert "x" in observed(module, result, "sink_b")


class TestDeterminism:
    def test_counters_and_versioning_repeat_across_hash_seeds(self):
        """SFS and VSFS push work in discovery order, and versioning
        numbers versions in it, never in the order of object addresses
        or string hashes: processes with different hash seeds count the
        same work and build the same versioning on one program."""
        script = ("from repro.bench.workloads import suite_program\n"
                  "from repro.pipeline import AnalysisPipeline\n"
                  "from tests.digests import versioning_digest\n"
                  "p = AnalysisPipeline(suite_program('du'))\n"
                  "for s in (p.sfs().stats, p.vsfs().stats):\n"
                  "    print(s.nodes_processed, s.propagations, s.unions)\n"
                  "print(versioning_digest(p.versioning()))\n")
        root = Path(__file__).resolve().parents[2]
        path = os.pathsep.join([str(root / "src"), str(root)])
        counts = []
        for first in range(0, 8, 2):  # two processes at a time
            procs = [subprocess.Popen(
                [sys.executable, "-c", script], stdout=subprocess.PIPE,
                text=True, env={**os.environ, "PYTHONPATH": path,
                                "PYTHONHASHSEED": str(seed)})
                for seed in (first, first + 1)]
            for proc in procs:
                out, __ = proc.communicate(timeout=300)
                assert proc.returncode == 0
                counts.append(out.split())
        assert len(counts) == 8
        assert all(count == counts[0] for count in counts), counts

    #: (nodes_processed, propagations, unions) of the one eager kernel.
    #: A kernel change that alters the work done fails this on purpose;
    #: re-pin only with the measured reason in the change log.
    PINNED = {
        ("du", "sfs"): (27_554, 46_054, 47_591),
        ("du", "vsfs"): (2_205, 466, 1_057),
        ("tmux", "vsfs"): (9_334, 4_793, 6_536),
    }

    @pytest.mark.parametrize("program,analysis", sorted(PINNED))
    def test_default_solve_counters_are_pinned(self, program, analysis):
        from repro.bench.workloads import suite_program
        from repro.core.vsfs import VSFSAnalysis
        from repro.solvers.sfs import SFSAnalysis

        pipeline = AnalysisPipeline(suite_program(program))
        if analysis == "sfs":
            solver = SFSAnalysis(pipeline.svfg())
        else:
            solver = VSFSAnalysis(pipeline.svfg(), pipeline.versioning())
        stats = solver.run().stats
        assert (stats.nodes_processed, stats.propagations, stats.unions) \
            == self.PINNED[(program, analysis)]


class TestHashConsedStorage:
    """Equal stored sets are one int object: every write that grows a set
    goes through the solve's ``canon`` table, and so do a warm preload and
    a checkpoint restore."""

    @staticmethod
    def stored_entries(solver):
        if hasattr(solver, "ptv"):
            return [entry for table in solver.ptv.values() for entry in table]
        return [entry for sets in (solver.in_sets, solver.out_sets)
                for table in sets.values() for entry in table.values()]

    @staticmethod
    def fresh_solver(pipeline, analysis):
        from repro.core.vsfs import VSFSAnalysis
        from repro.solvers.sfs import SFSAnalysis

        if analysis == "sfs":
            return SFSAnalysis(pipeline.svfg())
        return VSFSAnalysis(pipeline.svfg(), pipeline.versioning())

    @pytest.mark.parametrize("analysis", ["sfs", "vsfs"])
    @pytest.mark.parametrize("how", ["fresh", "resumed", "warm"])
    def test_equal_sets_are_one_object(self, how, analysis):
        import json

        from repro.bench.workloads import SUITE, generate_source, suite_program
        from repro.errors import BudgetExceeded
        from repro.runtime import Budget
        from tests.integration.test_incremental_warm import (
            solve_and_capture, warm_solver)

        if how == "warm":
            # An added function: every other region's memory is preloaded.
            source = generate_source(SUITE["du"])
            __, payload = solve_and_capture(source, analysis)
            solver, plan, __ = warm_solver(
                payload, source + "\nint warm_probe() { return 0; }\n",
                analysis)
            assert plan.dirty_functions == {"warm_probe"}
            assert plan.node_in and plan.node_out
        else:
            pipeline = AnalysisPipeline(suite_program("du"))
            solver = self.fresh_solver(pipeline, analysis)
            if how == "resumed":
                solver.meter = Budget(max_steps=500).meter()
                with pytest.raises(BudgetExceeded):
                    solver.run()
                state = json.loads(json.dumps(solver.snapshot_state()))
                solver = self.fresh_solver(pipeline, analysis)
                solver.restore_state(state, 500)
        stats = solver.run().stats
        entries = self.stored_entries(solver)
        assert 0 < stats.unique_ptsets < stats.stored_ptsets
        assert len({id(entry) for entry in entries if entry}) \
            == stats.unique_ptsets

"""Unit tests for the function-granular incremental spine (DESIGN.md §14).

Per-function fingerprints must be *sibling-stable* (editing one function
never perturbs another's hash), the stable entity keys must survive a
sibling edit, the dirty closure must grow an edit into exactly the
regions whose values can change, and the stored-solution layer must
quarantine anything minted under an older fingerprint scheme.
"""

import json

import pytest

from repro.errors import CheckpointError
from repro.incremental import (
    IncrementalStore,
    build_payload,
    node_dirty_closure,
    node_flow_graph,
    plan_warm,
    region_digests,
)
from repro.ir.fingerprint import (
    FINGERPRINT_SCHEME,
    diff_functions,
    module_fingerprint,
    module_function_fingerprints,
    node_keys,
    object_keys,
    variable_keys,
)
from repro.pipeline import AnalysisPipeline
from repro.solvers.sfs import SFSAnalysis

BASE = """
int *g; int x; int y;
void set(int *p) { g = p; }
int probe() { int *a; a = g; return 0; }
int main() { set(&x); probe(); set(&y); return 0; }
"""

#: Same program with one function (probe) edited.
EDITED = """
int *g; int x; int y;
void set(int *p) { g = p; }
int probe() { int *a; a = g; *a = 1; return 0; }
int main() { set(&x); probe(); set(&y); return 0; }
"""

#: Same program, whitespace and comments only.
RESPACED = """
int *g;   int x;  int y;

/* a comment the fingerprint must not see */
void set(int *p) {
    g = p;   // trailing comment
}
int probe() { int *a; a = g; return 0; }
int main() { set(&x); probe(); set(&y); return 0; }
"""


def module_of(src):
    return AnalysisPipeline.from_source(src).module


class TestFingerprints:
    def test_sibling_edit_leaves_other_hashes_alone(self):
        old = module_function_fingerprints(module_of(BASE))
        new = module_function_fingerprints(module_of(EDITED))
        assert set(old) == set(new)
        for name in old:
            if name == "probe":
                assert old[name] != new[name]
            else:
                assert old[name] == new[name], name

    def test_whitespace_and_comments_do_not_change_hashes(self):
        assert (module_function_fingerprints(module_of(BASE))
                == module_function_fingerprints(module_of(RESPACED)))
        assert (module_fingerprint(module_of(BASE))
                == module_fingerprint(module_of(RESPACED)))

    def test_module_fingerprint_sees_the_edit(self):
        assert (module_fingerprint(module_of(BASE))
                != module_fingerprint(module_of(EDITED)))

    def test_diff_functions_classifies(self):
        old = {"f": "1", "g": "2", "h": "3"}
        new = {"f": "1", "g": "9", "k": "4"}
        diff = diff_functions(old, new)
        assert diff == {"changed": ["g"], "added": ["k"], "deleted": ["h"]}


class TestStableKeys:
    def test_variable_keys_of_clean_functions_survive_sibling_edit(self):
        old_mod, new_mod = module_of(BASE), module_of(EDITED)
        old = {key: vid for vid, key in enumerate(variable_keys(old_mod))}
        new = {key: vid for vid, key in enumerate(variable_keys(new_mod))}
        clean = [key for key in old
                 if key.startswith(("g:", "v:set:", "v:main:"))]
        assert clean
        for key in clean:
            assert key in new, key

    def test_object_keys_unique_and_stable(self):
        old_keys = object_keys(module_of(BASE))
        new_keys = object_keys(module_of(EDITED))
        assert len(set(old_keys)) == len(old_keys)
        assert len(set(new_keys)) == len(new_keys)
        # Every old object still exists under the same name after the
        # sibling edit (the edit allocates nothing new).
        assert set(old_keys) <= set(new_keys)

    def test_node_keys_unique(self):
        svfg = AnalysisPipeline.from_source(BASE).svfg()
        keys = node_keys(svfg)
        assert len(keys) == len(svfg.nodes)
        assert len(set(keys)) == len(keys)

    def test_node_keys_of_clean_functions_survive_sibling_edit(self):
        old_svfg = AnalysisPipeline.from_source(BASE).svfg()
        new_svfg = AnalysisPipeline.from_source(EDITED).svfg()
        old = set(node_keys(old_svfg))
        new = set(node_keys(new_svfg))
        clean_old = {key for key in old
                     if key.split("#", 1)[0] in ("set", "main")}
        assert clean_old
        assert clean_old <= new


class TestDirtyClosure:
    def test_node_closure_covers_seed_functions(self):
        pipeline = AnalysisPipeline.from_source(BASE)
        svfg = pipeline.svfg()
        reached, dirty = node_dirty_closure(svfg, {"probe"},
                                            pipeline.andersen())
        assert "probe" in dirty
        regions = svfg.nodes_by_function()
        assert set(regions["probe"]) <= reached

    def test_extra_seed_nodes_grow_the_closure(self):
        pipeline = AnalysisPipeline.from_source(BASE)
        svfg = pipeline.svfg()
        base_reached, _ = node_dirty_closure(svfg, set(),
                                             pipeline.andersen())
        seeded, _ = node_dirty_closure(svfg, set(), pipeline.andersen(),
                                       seed_nodes=[0])
        assert base_reached == set()
        assert 0 in seeded


class TestRegionDigests:
    def test_clean_input_regions_keep_digests(self):
        old_p = AnalysisPipeline.from_source(BASE)
        new_p = AnalysisPipeline.from_source(EDITED)
        old = region_digests(old_p.svfg(), old_p.modref(), old_p.andersen())
        new = region_digests(new_p.svfg(), new_p.modref(), new_p.andersen())
        assert old["set"] == new["set"]
        assert old["probe"] != new["probe"]

    def test_digest_sees_pointer_behaviour_of_callees(self):
        # An edit that changes what set() may store must flip the digest
        # of regions reading g, even though their own code is unchanged.
        base = BASE.replace("int y;", "int y; int z;")
        changed = base.replace("{ g = p; }", "{ g = p; g = &z; }")
        old_p = AnalysisPipeline.from_source(base)
        new_p = AnalysisPipeline.from_source(changed)
        old = region_digests(old_p.svfg(), old_p.modref(), old_p.andersen())
        new = region_digests(new_p.svfg(), new_p.modref(), new_p.andersen())
        assert old["probe"] != new["probe"]


def _solve_payload(src, analysis="sfs"):
    pipeline = AnalysisPipeline.from_source(src)
    svfg = pipeline.svfg()
    solver = SFSAnalysis(svfg)
    result = solver.run()
    node_in, node_out = solver.export_node_memory()
    return build_payload(svfg, pipeline.modref(), result, node_in,
                         node_out, node_flow_graph(solver.svfg),
                         analysis, pipeline.andersen())


class TestIncrementalStore:
    def test_payload_is_json_clean(self):
        json.dumps(_solve_payload(BASE))

    def test_memory_roundtrip(self):
        store = IncrementalStore()
        payload = _solve_payload(BASE)
        assert store.save(payload) is None
        assert store.load("sfs") is payload
        assert store.load("vsfs") is None

    def test_disk_roundtrip(self, tmp_path):
        store = IncrementalStore(str(tmp_path))
        payload = _solve_payload(BASE)
        path = store.save(payload)
        assert path is not None
        loaded = IncrementalStore(str(tmp_path)).load("sfs")
        assert loaded == payload

    def test_stale_scheme_quarantines(self, tmp_path):
        store = IncrementalStore(str(tmp_path))
        payload = _solve_payload(BASE)
        payload["fp_scheme"] = FINGERPRINT_SCHEME - 1  # pre-refactor entry
        path = store.save(payload)
        with pytest.raises(CheckpointError) as err:
            store.load("sfs")
        assert err.value.reason == "schema"
        import os
        assert not os.path.exists(path)
        # The quarantined slot reads as a clean miss afterwards.
        assert store.load("sfs") is None


class TestPlanFallbacks:
    def test_scheme_mismatch_falls_back(self):
        payload = _solve_payload(BASE)
        payload["fp_scheme"] = FINGERPRINT_SCHEME - 1
        pipeline = AnalysisPipeline.from_source(EDITED)
        plan = plan_warm(payload, pipeline.svfg(), pipeline.modref(),
                         "sfs", pipeline.andersen())
        assert not plan.usable
        assert plan.fallback_reason == "scheme"
        assert plan.stats.fallback_reason == "scheme"

    def test_config_mismatch_falls_back(self):
        payload = _solve_payload(BASE)
        pipeline = AnalysisPipeline.from_source(EDITED)
        plan = plan_warm(payload, pipeline.svfg(), pipeline.modref(),
                         "vsfs", pipeline.andersen())
        assert plan.fallback_reason == "config"

    def test_usable_plan_marks_edited_function_dirty(self):
        payload = _solve_payload(BASE)
        pipeline = AnalysisPipeline.from_source(EDITED)
        plan = plan_warm(payload, pipeline.svfg(), pipeline.modref(),
                         "sfs", pipeline.andersen())
        assert plan.usable
        assert "probe" in plan.dirty_functions
        assert "set" not in plan.dirty_functions
        stats = plan.stats
        assert stats.regions_total == stats.regions_reused + \
            stats.regions_recomputed
        assert stats.regions_reused > 0

"""Property-based tests for the function-granular incremental spine.

Pins down the contract everything downstream leans on: **sibling
stability** of per-function fingerprints.  A hash depends only on its
own function's content — whitespace/comment noise changes nothing,
reordering siblings changes nothing, and editing one function changes
exactly that function's hash.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.ir.fingerprint import module_function_fingerprints
from repro.pipeline import AnalysisPipeline

RELAXED = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

# ------------------------------------------------------- program generator

#: Leaf-function body templates; {k} is a small constant that varies the
#: content hash without changing the shape.
BODIES = (
    "int {name}() {{ int a; a = {k}; return a; }}",
    "int {name}() {{ int a; int b; a = {k}; b = a + 1; return b; }}",
    "int {name}() {{ int x; int *p; p = &x; *p = {k}; return x; }}",
    "int {name}() {{ int x; int y; int *p; p = &x; p = &y; "
    "*p = {k}; return y; }}",
)


def leaf(name, body_ix, k):
    return BODIES[body_ix % len(BODIES)].format(name=name, k=k)


def program(leaves):
    """Source with *leaves* (list of (body_ix, k)) and a main calling all."""
    parts = [leaf(f"f{i}", body_ix, k)
             for i, (body_ix, k) in enumerate(leaves)]
    calls = " ".join(f"f{i}();" for i in range(len(leaves)))
    parts.append(f"int main() {{ {calls} return 0; }}")
    return "\n".join(parts)


def fingerprints(src):
    return module_function_fingerprints(
        AnalysisPipeline.from_source(src).module)


leaves_strategy = st.lists(
    st.tuples(st.integers(0, len(BODIES) - 1), st.integers(0, 9)),
    min_size=2, max_size=5)


# ------------------------------------------------------ fingerprint props

class TestFingerprintStability:
    @RELAXED
    @given(leaves_strategy, st.integers(0, 2))
    def test_whitespace_and_comments_are_invisible(self, leaves, mode):
        src = program(leaves)
        if mode == 0:
            noisy = src.replace("; ", ";\n    ")
        elif mode == 1:
            noisy = src.replace("; ", "; /* noise */ ")
        else:
            noisy = src.replace("{ ", "{\n\t// noise\n\t").replace("; ",
                                                                   ";  ")
        assert fingerprints(src) == fingerprints(noisy)

    @RELAXED
    @given(leaves_strategy, st.randoms(use_true_random=False))
    def test_sibling_reorder_keeps_per_function_hashes(self, leaves, rng):
        src = program(leaves)
        order = list(range(len(leaves)))
        rng.shuffle(order)
        reordered_defs = [leaf(f"f{i}", *leaves[i]) for i in order]
        calls = " ".join(f"f{i}();" for i in range(len(leaves)))
        reordered = "\n".join(
            reordered_defs + [f"int main() {{ {calls} return 0; }}"])
        assert fingerprints(src) == fingerprints(reordered)

    @RELAXED
    @given(leaves_strategy, st.integers(0, 4), st.integers(0, 3),
           st.integers(10, 19))
    def test_single_edit_touches_exactly_one_hash(self, leaves, which,
                                                  body_ix, k):
        which %= len(leaves)
        edited = list(leaves)
        edited[which] = (body_ix, k)
        old = fingerprints(program(leaves))
        new = fingerprints(program(edited))
        assert set(old) == set(new)
        for name in old:
            if name == f"f{which}":
                assert (old[name] == new[name]) == (
                    leaves[which] == edited[which])
            else:
                assert old[name] == new[name], name

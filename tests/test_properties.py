"""Property-based checks of the numerical invariants."""
import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import whitneylab as w
from whitneylab.polyspace import design_matrix

finite_floats = st.floats(min_value=-50, max_value=50, allow_nan=False)
p_values = st.sampled_from([0.5, 1.0, 1.7, 2.0, math.inf])


@st.composite
def weighted_vectors(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    vals = draw(st.lists(finite_floats, min_size=n, max_size=n))
    weights = draw(st.lists(st.floats(min_value=1e-3, max_value=5.0,
                                      allow_nan=False), min_size=n, max_size=n))
    return np.array(vals), np.array(weights)


class TestLpNormProperties:
    @given(weighted_vectors(), p_values, st.floats(min_value=-4, max_value=4,
                                                   allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_homogeneity(self, vw, p, c):
        v, weights = vw
        lhs = w.lp_norm(c * v, weights, p)
        rhs = abs(c) * w.lp_norm(v, weights, p)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    @given(weighted_vectors(), p_values)
    @settings(max_examples=100, deadline=None)
    def test_theta_subadditivity(self, vw, p):
        v, weights = vw
        u = np.roll(v, 1)
        theta = min(p, 1.0)
        lhs = w.lp_norm(u + v, weights, p) ** theta
        rhs = w.lp_norm(u, weights, p) ** theta + w.lp_norm(v, weights, p) ** theta
        assert lhs <= rhs * (1 + 1e-10) + 1e-12


class TestFiniteDifferenceProperties:
    @given(st.integers(min_value=1, max_value=4),
           st.floats(min_value=0.01, max_value=0.4, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_annihilates_low_degree(self, r, h):
        rng = np.random.default_rng(0)
        coeffs = rng.standard_normal(r)  # degree r-1 polynomial
        f = w.CallbackFunction(
            lambda X: sum(c * X[:, 0] ** k for k, c in enumerate(coeffs)), 1)
        val = w.finite_difference(f, np.array([0.1]), np.array([h]), r)
        assert abs(val) <= 1e-9 * max(1.0, np.abs(coeffs).max())

    @given(st.integers(min_value=2, max_value=4))
    @settings(max_examples=20, deadline=None)
    def test_factorial_identity_on_power(self, r):
        # the r-th difference of t^r equals r! h^r everywhere
        h = 0.17
        f = w.CallbackFunction(lambda X, r=r: X[:, 0] ** r, 1)
        val = w.finite_difference(f, np.array([0.3]), np.array([h]), r)
        assert val == pytest.approx(math.factorial(r) * h ** r, rel=1e-10)


class TestModulusProperties:
    @pytest.fixture(scope="class")
    def setting(self):
        sq = w.box([0, 0], [1, 1])
        plan = w.sample_plan(sq, 256, seed=0)
        E = w.direction_set([[1, 0], [0, 1]])
        return sq, plan, E

    @given(st.floats(min_value=0.1, max_value=3.0, allow_nan=False),
           st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_homogeneity(self, c, seed):
        sq = w.box([0, 0], [1, 1])
        plan = w.sample_plan(sq, 128, seed=1)
        E = w.direction_set([[1, 0], [0, 1]])
        f = w.random_polynomial(3, seed, 2)
        g = w.CallbackFunction(lambda X, f=f, c=c: c * f(X), 2)
        a = w.set_modulus(f, sq, plan, E, 1, 1.0, 1.0, n_shift=8, refine=False)
        b = w.set_modulus(g, sq, plan, E, 1, 1.0, 1.0, n_shift=8, refine=False)
        assert b.value == pytest.approx(c * a.value, rel=1e-10, abs=1e-12)

    @given(st.integers(min_value=0, max_value=10_000), p_values)
    @settings(max_examples=30, deadline=None)
    def test_direction_monotonicity(self, seed, p):
        sq = w.box([0, 0], [1, 1])
        plan = w.sample_plan(sq, 128, seed=2)
        f = w.random_polynomial(3, seed, 2)
        E_small = w.direction_set([[1, 0], [0, 1]])
        E_big = w.direction_set([[1, 0], [0, 1], [0.6, 0.8]])
        small = w.set_modulus(f, sq, plan, E_small, 2, 1.0, p, n_shift=8,
                              refine=False)
        big = w.set_modulus(f, sq, plan, E_big, 2, 1.0, p, n_shift=8,
                            refine=False)
        assert big.value >= small.value - 1e-12

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_scale_monotonicity_on_nested_grids(self, seed):
        # doubling t with doubled n_shift keeps the shift grid nested
        sq = w.box([0, 0], [1, 1])
        plan = w.sample_plan(sq, 128, seed=3)
        E = w.direction_set([[1, 0], [0, 1]])
        f = w.random_polynomial(4, seed, 2)
        small = w.set_modulus(f, sq, plan, E, 1, 0.5, 2.0, n_shift=16,
                              refine=False)
        big = w.set_modulus(f, sq, plan, E, 1, 1.0, 2.0, n_shift=32,
                            refine=False)
        assert big.value >= small.value - 1e-12

    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=25, deadline=None)
    def test_flat_space_annihilation(self, seed):
        sq = w.box([0, 0], [1, 1])
        plan = w.sample_plan(sq, 128, seed=4)
        E = w.direction_set([[1, 0], [0, 1]])
        basis = w.build_basis(2, 2, E)
        rng = np.random.default_rng(seed)
        coeffs = rng.standard_normal(basis.n_basis)
        f = w.PolynomialFunction(basis.exponents, coeffs @ basis.coeffs)
        res = w.set_modulus(f, sq, plan, E, 2, 1.4, math.inf, n_shift=8,
                            refine=False)
        assert res.value <= 1e-9 * max(1.0, np.abs(coeffs).max())


class TestApproxProperties:
    @given(st.integers(min_value=0, max_value=10_000),
           st.sampled_from([1.0, 2.0, math.inf]))
    @settings(max_examples=25, deadline=None)
    def test_no_random_probe_beats_solver(self, seed, p):
        seg = w.box([0.0], [1.0])
        plan = w.grid_plan(seg, 257)
        basis = w.build_basis(1, 2, w.direction_set([[1.0]]))
        f = w.random_polynomial(4, seed, 1)
        res = w.best_approx(f, seg, plan, basis, p)
        rng = np.random.default_rng(seed + 1)
        fvals = f(plan.points)
        Phi = design_matrix(basis, plan.points)
        for _ in range(100):
            cand = res.coeffs + rng.standard_normal(basis.n_basis)
            assert w.lp_norm(fvals - Phi @ cand, plan.weights, p) \
                >= res.error - 1e-9

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_direction_superset_larger_error(self, seed):
        # more directions shrink the approximating space
        sq = w.box([0, 0], [1, 1])
        plan = w.sample_plan(sq, 512, seed=5)
        E = w.direction_set([[1, 0], [0, 1]])
        E_big = w.direction_set([[1, 0], [0, 1], [0.6, 0.8]])
        b_small_space = w.build_basis(2, 2, E_big)
        b_big_space = w.build_basis(2, 2, E)
        f = w.random_polynomial(4, seed, 2)
        e1 = w.best_approx(f, sq, plan, b_big_space, 2.0).error
        e2 = w.best_approx(f, sq, plan, b_small_space, 2.0).error
        assert e1 <= e2 + 1e-10


class TestGeometryProperties:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_membership_deterministic(self, seed):
        rng = np.random.default_rng(seed)
        dom = w.ball(rng.uniform(-1, 1, 2), rng.uniform(0.5, 2.0))
        pts = rng.uniform(-3, 3, size=(64, 2))
        assert np.array_equal(dom.contains(pts), dom.contains(pts))

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_xray_symmetrization_invariance(self, seed):
        from conftest import random_convex_polygon
        G = random_convex_polygon(seed % 50, normalized=False)
        E = w.direction_set([[1, 0], [0.6, 0.8]])
        sample = G.vertices
        a = w.xray_verifies(G, E, sample)
        b = w.xray_verifies(G, E.symmetrized(), sample)
        assert a[0] == b[0]
        assert len(a[1]) == len(b[1])

    @given(st.integers(min_value=0, max_value=10_000), st.sampled_from([2, 3]))
    @settings(max_examples=30, deadline=None)
    def test_spread_is_at_most_every_sampled_direction(self, seed, d):
        # the spread is the minimum over unit x of max_i |xi_i . x|, so no
        # sampled x may come in below it
        rng = np.random.default_rng(seed)
        E = w.direction_set(rng.standard_normal((int(rng.integers(d, 7)), d)))
        x = rng.standard_normal((20_000, d))
        x /= np.linalg.norm(x, axis=1)[:, None]
        assert E.spread <= np.abs(x @ E.dirs.T).max(axis=1).min()

    @given(st.integers(min_value=0, max_value=100))
    @settings(max_examples=15, deadline=None)
    def test_chain_bound_recursion_matches_closed_form(self, seed):
        from whitneylab.decompose import DecompositionChain
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 11))
        r = int(rng.integers(1, 5))
        p = float(rng.choice([1.0, 0.5, 1.0 / 3.0]))
        w0 = float(rng.choice([0.0, 1.0, 2.0]))
        seg = w.box([0, 0], [1, 1])
        ch = DecompositionChain([seg] * (m + 1), np.tile([[0.5, 0.0]], (m, 1)),
                                r, w.direction_set([[1.0, 0.0]]), "t")
        ch.verified = True
        b = w.chain_upper_bound(ch, w0, p)
        assert b.value == pytest.approx(b.closed_form, rel=1e-12)


# -- malformed configuration files ----------------------------------------------

json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(min_value=-3, max_value=3),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=3),
    st.lists(st.integers(min_value=-1, max_value=1), max_size=3))
finite = st.floats(min_value=-2, max_value=2)
pairs = st.lists(finite, min_size=2, max_size=2)


def _domain_specs():
    """Well-formed planar domain specs (some unbounded, empty or singular)."""
    leaves = st.one_of(
        st.fixed_dictionaries({"type": st.just("polytope"),
                               "A": st.just([[1, 0], [-1, 0], [0, 1], [0, -1]]),
                               "b": st.lists(st.floats(0.2, 2), min_size=4, max_size=4)}),
        st.fixed_dictionaries({"type": st.just("polytope"),
                               "A": st.lists(pairs, min_size=1, max_size=5),
                               "b": st.lists(finite, min_size=1, max_size=5)}),
        st.fixed_dictionaries({"type": st.just("ball"), "center": pairs,
                               "radius": st.floats(0.1, 2)}),
        st.fixed_dictionaries({"type": st.just("cone_body"),
                               "xi": st.sampled_from([[0.0, 1.0], [1.0, 0.0]]),
                               "eps": st.floats(0.05, 0.9)}))

    def extend(children):
        return st.one_of(
            st.fixed_dictionaries({"type": st.sampled_from(["union", "intersection"]),
                                   "parts": st.lists(children, min_size=1, max_size=3)}),
            st.fixed_dictionaries({"type": st.just("affine_image"), "base": children,
                                   "matrix": st.lists(pairs, min_size=2, max_size=2),
                                   "shift": pairs}))
    return st.recursive(leaves, extend, max_leaves=4)


FUNCTION_SPECS = st.one_of(
    st.fixed_dictionaries({"kind": st.just("polynomial"),
                           "exponents": st.lists(st.lists(st.integers(0, 3), min_size=2,
                                                          max_size=2), min_size=1, max_size=4),
                           "coeffs": st.lists(finite, min_size=1, max_size=4)}),
    st.fixed_dictionaries({"kind": st.just("ridge_log"), "n": st.integers(0, 8),
                           "xi": pairs}),
    st.fixed_dictionaries({"kind": st.just("random_poly"), "degree": st.integers(0, 3),
                           "seed": st.integers(0, 9)}))
DIRS_SPECS = st.fixed_dictionaries({"dirs": st.lists(pairs, min_size=1, max_size=3)})


def _slots(node):
    """Every (container, key) inside a JSON value."""
    keys = node.keys() if isinstance(node, dict) else range(len(node)) \
        if isinstance(node, list) else ()
    for key in keys:
        yield node, key
        yield from _slots(node[key])


@st.composite
def malformed(draw, specs):
    """A spec, kept, or with one entry at any depth dropped or replaced by a
    stray JSON value (wrong type, non-finite, wrong shape), or a stray value."""
    spec = copy.deepcopy(draw(specs))  # st.just values are shared between draws
    action = draw(st.sampled_from(["keep", "drop", "retype", "stray"]))
    if action == "stray":
        return draw(json_scalars)
    slots = list(_slots(spec))
    if action != "keep" and slots:
        node, key = draw(st.sampled_from(slots))
        if action == "drop" and isinstance(node, dict):
            del node[key]
        else:
            node[key] = draw(json_scalars)
    return spec


class TestSpecRobustness:
    @given(malformed(_domain_specs()), malformed(DIRS_SPECS), malformed(FUNCTION_SPECS))
    @settings(max_examples=150, deadline=None)
    def test_cli_never_raises_on_spec_files(self, domain, dirs, function):
        import json
        import tempfile
        from pathlib import Path
        from whitneylab.cli import run
        with tempfile.TemporaryDirectory() as tmp:
            paths = {}
            for name, spec in (("domain", domain), ("dirs", dirs), ("function", function)):
                paths[name] = Path(tmp) / f"{name}.json"
                paths[name].write_text(json.dumps(spec))
            code = run(["modulus", "--function", str(paths["function"]),
                        "--domain", str(paths["domain"]), "--dirs", str(paths["dirs"]),
                        "--order", "1", "--t", "0.5", "--density", "16",
                        "--out", str(Path(tmp) / "out.json")])
        assert code in (0, 1, 2, 3)

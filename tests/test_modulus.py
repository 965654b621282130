import math
import sys

import numpy as np
import pytest

import whitneylab as w
from whitneylab.errors import PreconditionError
from whitneylab.modulus import _stirling_column

from conftest import random_convex_polygon


def poly1d(fn):
    return w.CallbackFunction(lambda X: fn(X[:, 0]), 1)


class TestFiniteDifference:
    def test_second_difference_of_quadratic(self):
        f = poly1d(lambda t: t ** 2)
        assert w.finite_difference(f, np.array([0.0]), np.array([1.0]), 2) \
            == pytest.approx(2.0)

    def test_linear_annihilated(self):
        f = poly1d(lambda t: 3 * t - 1)
        assert w.finite_difference(f, np.array([0.3]), np.array([0.17]), 2) \
            == pytest.approx(0.0, abs=1e-12)

    def test_cubic_direct_summation_oracle(self):
        f = poly1d(lambda t: t ** 3)
        x, h, r = 0.0, 0.5, 3
        oracle = sum((-1) ** (r + j) * math.comb(r, j) * (x + j * h) ** 3
                     for j in range(r + 1))
        assert oracle == pytest.approx(6 * h ** 3)
        got = w.finite_difference(f, np.array([x]), np.array([h]), r)
        assert got == pytest.approx(oracle, rel=1e-12)

    def test_composition(self):
        f = poly1d(lambda t: np.sin(3 * t))
        x = np.array([[0.2], [0.5]])
        h = np.array([0.11])
        lhs = w.finite_difference(f, x, h, 3)
        inner = w.CallbackFunction(
            lambda X: w.finite_difference(f, X, h, 1), 1)
        rhs = w.finite_difference(inner, x, h, 2)
        assert np.allclose(lhs, rhs, rtol=1e-12)

    def test_zero_step_errors(self):
        with pytest.raises(PreconditionError):
            w.finite_difference(poly1d(np.abs), np.array([0.0]), np.array([0.0]), 1)


class TestShiftDomain:
    def test_interval_r1(self):
        seg = w.box([0.0], [1.0])
        plan = w.grid_plan(seg, 101)
        idx = w.shift_domain(seg, plan, np.array([0.6]), 1)
        assert np.all(plan.points[idx, 0] <= 0.4 + 1e-9)
        assert len(idx) > 0

    def test_interval_r2_empty(self):
        seg = w.box([0.0], [1.0])
        plan = w.grid_plan(seg, 101)
        assert len(w.shift_domain(seg, plan, np.array([0.6]), 2)) == 0

    def test_disk_lens_matches_direct_membership(self):
        disk = w.ball([0, 0], 1.0)
        plan = w.sample_plan(disk, 4096, seed=2)
        h = np.array([0.5, 0.0])
        idx = w.shift_domain(disk, plan, h, 2)
        # oracle: direct membership of the full stencil
        direct = np.array([
            disk.contains(p) and disk.contains(p + h) and disk.contains(p + 2 * h)
            for p in plan.points
        ])
        got = np.zeros(len(plan), dtype=bool)
        got[idx] = True
        assert np.array_equal(got, direct)


class TestKernelBits:
    """The column-by-column gathers and shifts keep the bits of the broadcast
    forms they replaced, on a union domain whose membership gathers too."""

    @pytest.fixture(scope="class")
    def union_plan(self):
        dom = w.union([w.ball([0.0, 0.0], 1.0), w.box([0.5, -0.5], [2.0, 0.5])])
        return dom, w.sample_plan(dom, 4096, seed=5)

    def test_shift_domain_matches_broadcast(self, union_plan):
        dom, plan = union_plan
        h = np.array([0.3, -0.1])
        ok = np.ones(len(plan), dtype=bool)
        shifted = []
        for j in (1, 2, 3):
            idx = ok.nonzero()[0]
            shifted.append(plan.points[idx] + j * h)
            ok[idx] = dom.contains(shifted[-1])

        seen = []

        class Recording:
            # membership has slack, so compare the shifted points themselves
            def contains(self, pts):
                seen.append(pts.copy())
                return dom.contains(pts)

        assert np.array_equal(w.shift_domain(Recording(), plan, h, 3), np.flatnonzero(ok))
        assert len(seen) == 3
        assert all(np.array_equal(a, b) for a, b in zip(seen, shifted))

    @pytest.mark.parametrize("f", [w.RidgeLog(3, [0.6, 0.8]), w.random_polynomial(5, 1, 2)],
                             ids=["ridge_log", "polynomial"])
    def test_finite_difference_matches_broadcast(self, union_plan, f):
        dom, plan = union_plan
        h = np.array([0.3, -0.1])
        pts = plan.points[w.shift_domain(dom, plan, h, 3)]
        ref = np.zeros(len(pts))
        for j, c in enumerate((-1.0, 3.0, -3.0, 1.0)):
            ref += c * f(pts + j * h)
        assert np.array_equal(w.finite_difference(f, pts, h, 3), ref)

    def test_ridge_log_matches_masked_log(self, union_plan):
        f = w.RidgeLog(3, [0.6, 0.8])
        t = union_plan[1].points @ f.xi
        ref = np.full(t.shape, -3.0)
        mask = t > math.exp(-3)
        ref[mask] = np.log(t[mask])
        assert np.array_equal(f(union_plan[1].points), ref)


class TestNonFiniteValues:
    def test_non_finite_values_are_counted(self):
        disk = w.ball([0.0, 0.0], 1.0)
        plan = w.sample_plan(disk, 2048, seed=5)
        f = w.CallbackFunction(lambda X: np.where(X[:, 0] > 0.5, np.nan, X[:, 0]), 2)
        n_bad = int(np.count_nonzero(plan.points[:, 0] > 0.5))
        with pytest.raises(PreconditionError, match=f"not finite at {n_bad} of {len(plan)} "):
            w.set_modulus(f, disk, plan, w.direction_set([[1.0, 0.0]]), 1, 0.5, 1.0)

    @pytest.mark.parametrize("f, r, p", [
        (w.PolynomialFunction([[1, 0]], [1e200]), 1, 2.0),
        (w.CallbackFunction(lambda X: 1.5e308 * X[:, 0], 2), 2, math.inf)],
        ids=["squares-taylor", "stencil-sum"])
    def test_overflowing_differences_are_an_error(self, f, r, p):
        # values finite on the disk whose squares or stencil sums pass the float range
        disk = w.ball([0.0, 0.0], 1.0)
        plan = w.sample_plan(disk, 2048, seed=5)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(PreconditionError, match="modulus is not finite"):
            w.set_modulus(f, disk, plan, w.direction_set([[1.0, 0.0]]), r, 0.5, p)


class TestLpNorm:
    def test_single_value(self):
        for p in (0.5, 1, 2, math.inf):
            assert w.lp_norm([3.0], [1.0], p) == pytest.approx(3.0)

    def test_pair(self):
        assert w.lp_norm([1, 1], [1, 1], 1) == pytest.approx(2.0)
        assert w.lp_norm([1, 1], [1, 1], math.inf) == pytest.approx(1.0)

    def test_quasi_norm_formula(self):
        oracle = (1 + math.sqrt(2) + math.sqrt(3)) ** 2
        assert w.lp_norm([1, 2, 3], [1, 1, 1], 0.5) == pytest.approx(oracle, rel=1e-12)

    def test_empty_is_zero(self):
        assert w.lp_norm([], [], 2) == 0.0

    def test_invalid_p(self):
        with pytest.raises(PreconditionError):
            w.lp_norm([1.0], [1.0], 0.0)


class TestRidgeLog:
    def test_conventions(self):
        f = w.RidgeLog(3, [0, 1])
        assert f(np.array([0.0, 0.0])) == pytest.approx(-3.0)
        assert f(np.array([0.5, math.exp(-4)])) == pytest.approx(-3.0)
        assert f(np.array([0.0, 0.5])) == pytest.approx(math.log(0.5))

    @pytest.mark.parametrize("xi", [[0, 0], [math.nan, 1.0], [math.inf, 0.0]])
    def test_degenerate_direction_rejected(self, xi):
        with pytest.raises(PreconditionError, match="xi must be a nonzero finite vector"):
            w.RidgeLog(3, xi)


class TestDirectionalModulus:
    def test_linear_r1(self):
        seg = w.box([0.0], [1.0])
        plan = w.grid_plan(seg, 257)
        res = w.set_modulus(poly1d(lambda t: t), seg, plan, w.direction_set([[1.0]]),
                            1, 1.0, math.inf)
        assert res.value == pytest.approx(1.0, abs=1e-9)

    def test_quadratic_r1_brute_force_oracle(self):
        seg = w.box([0.0], [1.0])
        plan = w.grid_plan(seg, 1001)
        # oracle: dense (x, u) grid for sup |(x+u)^2 - x^2|
        xs = np.linspace(0, 1, 1000)
        us = np.linspace(1e-4, 1.0, 1000)
        best = 0.0
        for u in us:
            valid = xs[xs + u <= 1.0]
            if len(valid):
                best = max(best, np.max((valid + u) ** 2 - valid ** 2))
        res = w.set_modulus(poly1d(lambda t: t ** 2), seg, plan, w.direction_set([[1.0]]),
                            1, 1.0, math.inf)
        assert best == pytest.approx(1.0, abs=1e-3)
        assert res.value == pytest.approx(best, abs=2e-3)

    def test_flat_space_member_annihilated(self, axes2):
        basis = w.build_basis(2, 2, axes2)
        sq = w.box([0, 0], [1, 1])
        plan = w.sample_plan(sq, 256, seed=4)
        f = w.PolynomialFunction(basis.exponents, basis.coeffs[3])
        scale = np.max(np.abs(basis.coeffs[3]))
        res = w.set_modulus(f, sq, plan, axes2, 2, math.sqrt(2), math.inf)
        assert res.value <= 1e-9 * max(scale, 1.0)

    def test_empty_shift_sets_flagged(self):
        seg = w.box([0.0], [1.0])
        plan = w.grid_plan(seg, 64)
        res = w.set_modulus(poly1d(lambda t: t), seg, plan, w.direction_set([[1.0]]),
                            2, 3.0, math.inf, n_shift=2, refine=False)
        assert res.value == 0.0 and not res.reliable


class TestSetModulus:
    def test_monotone_under_symmetrization(self, axes2):
        seg2 = w.box([0, 0], [1, 1])
        plan = w.sample_plan(seg2, 512, seed=1)
        f = w.CallbackFunction(lambda X: np.exp(X[:, 0]) * X[:, 1], 2)
        small = w.set_modulus(f, seg2, plan, axes2, 2, 1.0, math.inf)
        big = w.set_modulus(f, seg2, plan, axes2.symmetrized(), 2, 1.0, math.inf)
        assert big.value >= small.value - 1e-12

    def test_homogeneity_exact(self, axes2):
        seg2 = w.box([0, 0], [1, 1])
        plan = w.sample_plan(seg2, 256, seed=6)
        f = w.CallbackFunction(lambda X: np.sin(X[:, 0] + 2 * X[:, 1]), 2)
        g = w.CallbackFunction(lambda X: -2.5 * np.sin(X[:, 0] + 2 * X[:, 1]), 2)
        a = w.set_modulus(f, seg2, plan, axes2, 1, 0.7, 0.5, refine=False)
        b = w.set_modulus(g, seg2, plan, axes2, 1, 0.7, 0.5, refine=False)
        assert b.value == pytest.approx(2.5 * a.value, rel=1e-12)

    def test_subadditivity_theta(self, axes2):
        seg2 = w.box([0, 0], [1, 1])
        plan = w.sample_plan(seg2, 256, seed=8)
        f = w.CallbackFunction(lambda X: np.cos(3 * X[:, 0]), 2)
        g = w.CallbackFunction(lambda X: X[:, 1] ** 3, 2)
        fg = w.CallbackFunction(lambda X: np.cos(3 * X[:, 0]) + X[:, 1] ** 3, 2)
        for p in (0.5, 1.0, 2.0):
            theta = min(p, 1.0)
            a = w.set_modulus(f, seg2, plan, axes2, 2, 1.0, p, refine=False).value
            b = w.set_modulus(g, seg2, plan, axes2, 2, 1.0, p, refine=False).value
            c = w.set_modulus(fg, seg2, plan, axes2, 2, 1.0, p, refine=False).value
            assert c ** theta <= a ** theta + b ** theta + 1e-10


class TestPairInequality:
    def test_lattice_instances(self):
        # theta-power triangle bound on discrete sets where shifts map
        # lattice points to lattice points
        rng = np.random.default_rng(0)
        for trial in range(50):
            d = int(rng.integers(1, 3))
            r = int(rng.integers(1, 4))
            side = 5
            coords = np.stack(np.meshgrid(*([np.arange(side)] * d),
                                          indexing="ij"), axis=-1).reshape(-1, d)
            K_mask = rng.random(len(coords)) < 0.7
            K = {tuple(c) for c in coords[K_mask]}
            h = np.zeros(d, dtype=int)
            h[rng.integers(0, d)] = rng.integers(1, 3)
            inter = set(tuple(c) for c in coords)
            for j in range(1, r + 1):
                inter &= {tuple(np.array(k) + j * h) for k in K}
            J = {c for c in inter if rng.random() < 0.8}
            pts = sorted(K | J)
            F = {c: rng.standard_normal() for c in pts}
            p = rng.choice([0.5, 1.0, 2.0, math.inf])
            theta = min(p, 1.0)
            KJ = sorted(K | J)
            lhs = w.lp_norm([F[c] for c in KJ], np.ones(len(KJ)), p) ** theta
            Jm = sorted(J)
            diffs = []
            for c in Jm:
                y = np.array(c) - r * h
                val = sum((-1) ** (r + j) * math.comb(r, j)
                          * F[tuple(y + j * h)] for j in range(r + 1))
                diffs.append(val)
            rhs = w.lp_norm(diffs, np.ones(len(diffs)), p) ** theta \
                + 2 ** r * w.lp_norm([F[c] for c in sorted(K)],
                                     np.ones(len(K)), p) ** theta
            assert lhs <= rhs + 1e-12


class TestStirling:
    def test_difference_of_powers_identity(self):
        # sum_j (-1)^(r-j) C(r, j) j^k = r! S(k, r), in exact integers; S(k, r) = 0
        # for k < r, and _stirling_column(r, 12) holds S(r, r), ..., S(12, r)
        for r in range(1, 7):
            column = _stirling_column(r, 12)
            for k in range(13):
                lhs = sum((-1) ** (r - j) * math.comb(r, j) * j ** k for j in range(r + 1))
                assert lhs == math.factorial(r) * (column[k - r] if k >= r else 0), (k, r)


ALGEBRAIC_DOMAINS = {
    "unit_square": lambda: w.box([0.0, 0.0], [1.0, 1.0]),
    "heptagon": lambda: random_convex_polygon(11, normalized=False),
    "disk": lambda: w.ball([0.2, -0.1], 1.0),
    "cone_body": lambda: w.cone_body([0.0, 1.0], 0.3),
}


class TestAlgebraicPath:
    """The Taylor form on exit-distance stencils against the stencil evaluation
    of the same polynomial, wrapped so that it has no Taylor form."""

    @staticmethod
    def _both(f, dom, r, p, seed):
        plan = w.sample_plan(dom, 256, seed=seed)
        dirs = w.direction_set([[1.0, 0.0], [0.6, 0.8]])
        t = w.diameter(dom).value
        algebraic = w.set_modulus(f, dom, plan, dirs, r, t, p)
        stencil = w.set_modulus(w.CallbackFunction(f, 2), dom, plan, dirs, r, t, p)
        return algebraic, stencil

    @pytest.mark.parametrize("name", sorted(ALGEBRAIC_DOMAINS))
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_matches_stencil_evaluation(self, name, r):
        dom = ALGEBRAIC_DOMAINS[name]()
        f = w.random_polynomial(4, 50 + r, 2)
        for p in (0.5, 1.0, 2.0, math.inf):
            a, b = self._both(f, dom, r, p, seed=r)
            assert a.value > 0.0
            assert a.value == pytest.approx(b.value, rel=1e-12, abs=0.0), p
            assert a.argmax_u == pytest.approx(b.argmax_u, rel=1e-12, abs=0.0), p
            assert a.n_valid_points == b.n_valid_points, p

    @pytest.mark.parametrize("name", sorted(ALGEBRAIC_DOMAINS))
    def test_sparse_exponents_and_low_degree(self, name):
        # x^2 alone: its exponent list is not closed under differentiation
        dom = ALGEBRAIC_DOMAINS[name]()
        f = w.PolynomialFunction([[2, 0]], [1.5])
        for p in (0.5, 1.0, 2.0, math.inf):
            for r in (1, 2):
                a, b = self._both(f, dom, r, p, seed=7)
                assert a.value == pytest.approx(b.value, rel=1e-12, abs=0.0), (r, p)
                assert a.argmax_u == pytest.approx(b.argmax_u, rel=1e-12, abs=0.0), (r, p)
                assert a.n_valid_points == b.n_valid_points, (r, p)
            # deg f < r: the Taylor form vanishes exactly, the stencil to rounding
            a, b = self._both(f, dom, 3, p, seed=7)
            assert a.value == 0.0
            assert b.value <= 1e-12 * 1.5 * dom.scale() ** 2

    def test_sparse_frame_is_the_derivative_closure(self):
        # x^20 in the plane tabulates x^0..x^20, not the 231 monomials of the
        # graded frame; x^3 y + y^2 needs the monomials below each of its terms
        frame = w.modulus._derivative_closure(np.array([[20, 0]]), 10**6)
        assert frame.tolist() == [[k, 0] for k in range(21)]
        frame = w.modulus._derivative_closure(np.array([[3, 1], [0, 2]]), 10**6)
        assert sorted(frame.tolist()) == sorted(
            [[a, b] for a in range(4) for b in range(2)] + [[0, 2]])
        assert w.modulus._derivative_closure(np.array([[10**9, 0]]), 100) is None
        dom = ALGEBRAIC_DOMAINS["unit_square"]()
        f = w.PolynomialFunction([[20, 0]], [1.0])
        assert f.taylor(np.zeros((1, 2)), [1.0, 0.0]).shape == (1, 21)
        a, b = self._both(f, dom, 2, math.inf, seed=3)
        assert a.value == pytest.approx(b.value, rel=1e-12, abs=0.0)
        assert a.n_valid_points == b.n_valid_points

    def test_large_frame_evaluates_the_stencil(self):
        # x^30 y^30: 961 frame monomials with 61 coefficients each for one
        # exponent, past TAYLOR_WORK_RATIO, so the stencil is evaluated
        dom = ALGEBRAIC_DOMAINS["unit_square"]()
        f = w.PolynomialFunction([[30, 30]], [1.0])
        assert 961 * 61 > w.modulus.TAYLOR_WORK_RATIO
        assert f.taylor(np.zeros((1, 2)), [1.0, 0.0]) is None
        a, b = self._both(f, dom, 2, math.inf, seed=3)
        assert a.value == b.value and a.argmax_u == b.argmax_u

    def test_weights_past_the_float_range_evaluate_the_stencil(self):
        # a dense degree-300 polynomial on an interval has a Taylor table, but
        # 150! S(300, 150) is not a float, so r = 150 keeps the stencil
        assert math.factorial(150) * _stirling_column(150, 300)[-1] > sys.float_info.max
        dom = w.box([0.0], [1.0])
        plan = w.sample_plan(dom, 64, seed=2)
        f = w.PolynomialFunction([[k] for k in range(301)], np.full(301, 1e-3))
        assert f.taylor(plan.points, [1.0]) is not None
        axis = w.direction_set([[1.0]])
        a = w.set_modulus(f, dom, plan, axis, 150, 1.0, 1.0, n_shift=8)
        b = w.set_modulus(w.CallbackFunction(f, 1), dom, plan, axis, 150, 1.0, 1.0, n_shift=8)
        assert a == b

    @pytest.mark.parametrize("name", ["unit_square", "cone_body"])
    def test_plan_points_outside_the_domain_rejected(self, name):
        dom = ALGEBRAIC_DOMAINS[name]()
        plan = w.sample_plan(dom, 64, seed=1)
        outside = w.SamplePlan(np.vstack([plan.points, [[-5.0, -5.0]]]),
                               np.ones(len(plan) + 1))
        f = w.PolynomialFunction([[2, 0]], [1.0])
        with pytest.raises(PreconditionError, match="plan points must belong"):
            w.set_modulus(f, dom, outside, w.direction_set([[1.0, 1.0]]), 2, 1.0, math.inf)
        with pytest.raises(PreconditionError, match="plan points must belong"):
            w.set_modulus(f, w.union([dom, w.ball([3.0, 3.0], 0.5)]), outside,
                          w.direction_set([[1.0, 0.0]]), 2, 1.0, 1.0)

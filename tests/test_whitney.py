import math

import numpy as np
import pytest

import whitneylab as w
from whitneylab.decompose import DecompositionChain
from whitneylab.errors import PreconditionError
from whitneylab.polyspace import design_matrix

E1 = w.direction_set([[1.0]])


@pytest.fixture(scope="module")
def seg_plan():
    seg = w.box([0.0], [1.0])
    return seg, w.grid_plan(seg, 1025)


class TestWhitneyRatio:
    def test_flat_member_undefined(self, seg_plan):
        seg, plan = seg_plan
        basis = w.build_basis(1, 2, E1)
        f = w.CallbackFunction(lambda X: 2.0 * X[:, 0] - 1.0, 1)
        assert w.whitney_ratio(f, seg, plan, E1, basis, 2, math.inf) is None

    def test_identity_function_half(self, seg_plan):
        # by hand: best constant error 1/2, first-order modulus 1
        seg, plan = seg_plan
        basis = w.build_basis(1, 1, E1)
        f = w.CallbackFunction(lambda X: X[:, 0], 1)
        ratio = w.whitney_ratio(f, seg, plan, E1, basis, 1, math.inf)
        assert ratio == pytest.approx(0.5, abs=1e-6)

    def test_random_family_under_gks_bound(self, seg_plan):
        seg, plan = seg_plan
        cap = 2.0 + math.exp(-2.0)
        for r in (1, 2, 3):
            basis = w.build_basis(1, r, E1)
            for k in range(8):
                f = w.random_polynomial(r + 3, 50 + k, 1)
                ratio = w.whitney_ratio(f, seg, plan, E1, basis, r, math.inf)
                if ratio is not None:
                    assert ratio <= cap + 0.02

    def test_invariance_under_scaling_and_flat_shift(self, seg_plan):
        seg, plan = seg_plan
        basis = w.build_basis(1, 2, E1)
        f = w.CallbackFunction(lambda X: np.sin(4 * X[:, 0]), 1)
        g = w.CallbackFunction(
            lambda X, B=basis: -3.0 * np.sin(4 * X[:, 0])
            + design_matrix(B, X) @ np.array([0.4, 1.1]), 1)
        r1 = w.whitney_ratio(f, seg, plan, E1, basis, 2, math.inf)
        r2 = w.whitney_ratio(g, seg, plan, E1, basis, 2, math.inf)
        assert r2 == pytest.approx(r1, rel=1e-6)


class TestEmpirical:
    def test_flat_family_has_no_defined_ratio(self, seg_plan, monkeypatch):
        seg, plan = seg_plan
        basis = w.build_basis(1, 2, E1)
        flats = [w.PolynomialFunction(basis.exponents,
                                      c0 * basis.coeffs[0] + c1 * basis.coeffs[1])
                 for c0, c1 in [(1, 0), (0, 1), (2, -1)]]
        for f in flats:
            assert w.whitney_ratio(f, seg, plan, E1, basis, 2, math.inf) is None
        # a family none of whose ratios is defined has no lower bound
        monkeypatch.setattr(w.whitney, "RATIO_CUTOFF", math.inf)
        with pytest.raises(PreconditionError, match="no candidate produced a defined ratio"):
            w.empirical_whitney_constant(seg, plan, E1, 2, math.inf, "random_poly", budget=4)

    def test_two_seeds_agree_roughly(self, axes2):
        sq = w.box([0, 0], [1, 1])
        plan = w.sample_plan(sq, 1024, seed=0)
        a = w.empirical_whitney_constant(sq, plan, axes2, 2, math.inf, "random_poly",
                                         budget=32, seed=1)
        b = w.empirical_whitney_constant(sq, plan, axes2, 2, math.inf, "random_poly",
                                         budget=32, seed=2)
        assert a.lower_bound == pytest.approx(b.lower_bound, rel=0.10)
        assert a.witness is not None and a.n_defined == 32

    def test_ridge_family_grows_on_narrow_cone(self):
        # on the narrow cone the log-ridge ratios grow roughly linearly in n
        # while the modulus saturates, so the lower bound climbs with the
        # family range
        ang = math.radians(80.0)
        E = w.direction_set([[1.0, 0.0], [math.cos(ang), math.sin(ang)]])
        K = w.cone_body([0.0, 1.0], 0.01)
        plan = w.sample_plan(K, 1024, seed=0,
                             extra_points=[[0.0, 0.0], [0.0, 0.5], [0.0, 1.0]])
        basis = w.build_basis(2, 1, E)
        t = w.diameter(K, plan).value
        ratios = {n: w.whitney_ratio(w.RidgeLog(n, [0.0, 1.0]), K, plan, E, basis, 1,
                                     math.inf, t=t) for n in (1, 4, 16)}
        small = ratios[1]
        big = max(ratios.values())
        assert big > 3.0 * small
        assert big > 2.0

    def test_inconsistency_flag(self, seg_plan):
        seg, plan = seg_plan
        est = w.empirical_whitney_constant(seg, plan, E1, 1, math.inf, "random_poly",
                                           budget=4)
        est.attach_upper_bound(est.lower_bound * 10.0)
        assert not est.inconsistent
        est.attach_upper_bound(est.lower_bound / 10.0)
        assert est.inconsistent


class TestChainUpperBound:
    def _chain(self, m, r):
        seg = w.box([0, 0], [1, 1])
        shifts = np.tile([[0.5, 0.0]], (m, 1))
        ch = DecompositionChain([seg] * (m + 1), shifts, r,
                                w.direction_set([[1.0, 0.0]]), "test")
        ch.verified = True
        return ch

    def test_m1_r1_p1(self):
        b = w.chain_upper_bound(self._chain(1, 1), 1.0, 1.0)
        assert b.value == pytest.approx(3.0) and b.closed_form == pytest.approx(3.0)

    def test_m2_r2_pinf_w0_zero(self):
        b = w.chain_upper_bound(self._chain(2, 2), 0.0, math.inf)
        assert b.value == pytest.approx(5.0) and b.closed_form == pytest.approx(5.0)

    def test_m3_r1_theta_half_recursion_oracle(self):
        wt = math.sqrt(2.0)
        for _ in range(3):
            wt = 1.0 + 2.0 * wt
        b = w.chain_upper_bound(self._chain(3, 1), 2.0, 0.5)
        assert b.value == pytest.approx(wt ** 2, rel=1e-12)
        assert b.closed_form == pytest.approx(b.value, rel=1e-12)

    def test_long_chain_reports_log2_past_float_range(self):
        # 1400 links at r=1: 2^1400 w0 + 2^1400 - 1 is far beyond float range
        b = w.chain_upper_bound(self._chain(1400, 1), 1.0, 1.0)
        assert b.value == math.inf and b.closed_form == math.inf
        assert b.log2_value == pytest.approx(1401.0, rel=1e-15)
        b = w.chain_upper_bound(self._chain(1400, 1), 1.0, 0.5)
        assert b.value == math.inf and b.log2_value == pytest.approx(2802.0, rel=1e-15)

    @pytest.mark.parametrize("m,r,w0,p", [(1000, 1, 1.0, 1.0), (300, 3, 2.0, 1.0),
                                          (500, 1, 0.0, 0.5), (7, 2, 3.0, 0.25)])
    def test_finite_values_match_exact_closed_form(self, m, r, w0, p):
        from fractions import Fraction
        theta = min(p, 1.0)
        exact = (2 ** (m * r)) * Fraction(w0 ** theta) + Fraction(2 ** (m * r) - 1, 2 ** r - 1)
        want = float(exact) ** (1.0 / theta)
        b = w.chain_upper_bound(self._chain(m, r), w0, p)
        assert b.value == pytest.approx(want, rel=1e-12)
        assert b.closed_form == pytest.approx(want, rel=1e-12)
        assert b.log2_value == pytest.approx(math.log2(want), rel=1e-12)

    def test_unverified_chain_rejected(self):
        ch = self._chain(1, 1)
        ch.verified = False
        with pytest.raises(PreconditionError):
            w.chain_upper_bound(ch, 0.0, 1.0)


class TestCounterexample:
    def test_body_membership(self):
        K = w.cone_body([0, 1], 0.25)
        xi = np.array([0, 1.0])
        assert K.contains(xi / 2)
        assert not K.contains(2 * xi)

    def test_body_bbox_tight_vs_extreme_oracle(self):
        eps = 0.2
        K = w.cone_body([0, 1], eps)
        rim_rho = math.sqrt(1 / (1 - eps) ** 2 - 1)
        plan = w.sample_plan(K, 8192, seed=0)
        lo, hi = K.bbox
        assert hi[1] == pytest.approx(1.0) and lo[1] == pytest.approx(0.0)
        assert hi[0] == pytest.approx(rim_rho, rel=1e-9)
        # sampled extremes approach the box from inside
        assert np.max(plan.points[:, 0]) <= hi[0] + 1e-12
        assert np.max(plan.points[:, 0]) >= 0.9 * hi[0]

    def test_margin_accept_reject(self):
        ang = math.radians(80.0)
        E = w.direction_set([[1, 0], [math.cos(ang), math.sin(ang)]])
        delta = 1.0 - math.sin(ang)
        assert delta == pytest.approx(0.01519, abs=1e-5)
        cert = w.counterexample_certificate(2, [0, 1], 0.01, E, 1, [1],
                                            density=512, seed=0)
        assert cert.margin_delta == pytest.approx(delta, rel=1e-9)
        with pytest.raises(PreconditionError):
            w.counterexample_certificate(2, [0, 1], 0.02, E, 1, [1], density=512)

    def test_floor_formula(self):
        ang = math.radians(80.0)
        E = w.direction_set([[1, 0], [math.cos(ang), math.sin(ang)]])
        cert = w.counterexample_certificate(2, [0, 1], 0.01, E, 1, [100],
                                            density=512, seed=0)
        assert cert.rows[0].floor == pytest.approx((100 - 4 * math.log(2)) / 4,
                                                   rel=1e-12)
        assert cert.rows[0].floor == pytest.approx(24.3069, abs=1e-4)

    def test_numeric_error_at_least_floor(self):
        ang = math.radians(80.0)
        E = w.direction_set([[1, 0], [math.cos(ang), math.sin(ang)]])
        cert = w.counterexample_certificate(2, [0, 1], 0.01, E, 1, [4, 16],
                                            density=1024, seed=0)
        for row in cert.rows:
            assert row.numeric_er >= row.floor - 1e-6

    @pytest.mark.parametrize("r", [1, 2])
    def test_modulus_bounded_by_chord_cap(self, r):
        ang = math.radians(80.0)
        E = w.direction_set([[1, 0], [math.cos(ang), math.sin(ang)]])
        cert = w.counterexample_certificate(2, [0, 1], 0.01, E, r, [1, 16, 64],
                                            density=1024, seed=0)
        assert cert.modulus_bounded is True

    def test_chord_log_ratio_vs_bisected_chords(self):
        # chord ends of random lines along eta through the 3-d cone, found by
        # bisection on membership; the axis point lies on the worst chord
        eps, delta = 0.01, 0.05
        xi = np.array([0.0, 0.0, 1.0])
        eta = np.array([math.sqrt(1 - (1 - delta) ** 2), 0.0, 1 - delta])
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((200, 3)) * 0.05 + xi
        pts = np.vstack([xi, pts[np.linalg.norm(pts, axis=1) * (1 - eps)
                                 <= pts @ xi]])

        def member(t):
            x = pts + t[:, None] * eta
            return np.linalg.norm(x, axis=1) * (1 - eps) <= x @ xi

        ends = []
        for sign in (1.0, -1.0):
            lo, hi = np.zeros(len(pts)), np.full(len(pts), sign * 100.0)
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                inside = member(mid)
                lo, hi = np.where(inside, mid, lo), np.where(inside, hi, mid)
            ends.append((pts + lo[:, None] * eta) @ xi)
        log_ratio = np.log(ends[0] / ends[1])
        cap = w.chord_log_ratio(delta, eps)
        assert np.all(log_ratio <= cap + 1e-9)
        assert log_ratio[0] == pytest.approx(cap, rel=1e-9)
        with pytest.raises(PreconditionError):
            w.chord_log_ratio(eps, eps)

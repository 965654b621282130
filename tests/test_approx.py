import math

import numpy as np
import pytest

import whitneylab as w
from whitneylab.errors import PreconditionError
from whitneylab.polyspace import design_matrix

from conftest import span_residual


@pytest.fixture(scope="module")
def seg_plan():
    seg = w.box([0.0], [1.0])
    return seg, w.grid_plan(seg, 2049)


class TestBestApprox:
    def test_recovers_span_member(self, seg_plan, axis1):
        seg, plan = seg_plan
        basis = w.build_basis(1, 3, axis1)
        truth = np.array([0.5, -1.2, 2.0])
        f = w.CallbackFunction(
            lambda X, B=basis: design_matrix(B, X) @ truth, 1)
        res = w.best_approx(f, seg, plan, basis, math.inf)
        assert res.error <= 1e-9
        assert np.allclose(res.coeffs, truth, atol=1e-8)

    def test_x_squared_minimax_eighth(self, seg_plan, axis1):
        seg, plan = seg_plan
        basis = w.build_basis(1, 2, axis1)
        f = w.CallbackFunction(lambda X: X[:, 0] ** 2, 1)
        res = w.best_approx(f, seg, plan, basis, math.inf)
        assert res.error == pytest.approx(0.125, abs=1e-6)
        assert res.status == "optimal"
        # the optimum is Q(x) = x - 1/8
        xs = np.array([[0.0], [0.25], [0.75]])
        q = design_matrix(basis, xs) @ res.coeffs
        assert np.allclose(q, xs[:, 0] - 0.125, atol=1e-6)

    def test_equioscillation_certificate_1d(self, seg_plan, axis1):
        seg, plan = seg_plan
        basis = w.build_basis(1, 2, axis1)
        f = w.CallbackFunction(lambda X: X[:, 0] ** 2, 1)
        res = w.best_approx(f, seg, plan, basis, math.inf)
        residuals = f(plan.points) - design_matrix(basis, plan.points) @ res.coeffs
        # near-extreme residuals along increasing x; runs of one sign count once
        order = np.argsort(plan.points[:, 0])
        extreme = residuals[order][np.abs(residuals[order]) >= (1.0 - 1e-6) * res.error]
        alternations = 1 + np.count_nonzero(np.diff(np.sign(extreme)))
        assert alternations >= basis.n_basis + 1

    def test_odd_function_l2_constant(self, axis1):
        # closed-form oracle: the best constant for x on [-1,1] in L2 is 0,
        # with error sqrt(2/3)
        seg = w.box([-1.0], [1.0])
        plan = w.grid_plan(seg, 4001)
        basis = w.build_basis(1, 1, axis1)
        f = w.CallbackFunction(lambda X: X[:, 0], 1)
        res = w.best_approx(f, seg, plan, basis, 2.0)
        assert res.error == pytest.approx(math.sqrt(2.0 / 3.0), rel=2e-3)
        assert abs(res.coeffs[0]) <= 1e-8

    def test_l2_orthogonality_certificate(self, seg_plan, axis1):
        seg, plan = seg_plan
        basis = w.build_basis(1, 3, axis1)
        f = w.CallbackFunction(lambda X: np.exp(X[:, 0]), 1)
        res = w.best_approx(f, seg, plan, basis, 2.0)
        Phi = design_matrix(basis, plan.points)
        resid = f(plan.points) - Phi @ res.coeffs
        for k in range(basis.n_basis):
            inner = np.sum(plan.weights * resid * Phi[:, k])
            bound = 1e-9 * w.lp_norm(resid, plan.weights, 2) \
                * w.lp_norm(Phi[:, k], plan.weights, 2)
            assert abs(inner) <= max(bound, 1e-12)

    def test_irls_matches_lp_objective(self, seg_plan, axis1):
        seg, plan = seg_plan
        basis = w.build_basis(1, 2, axis1)
        f = w.CallbackFunction(lambda X: np.abs(X[:, 0] - 0.3), 1)
        for p in (1.0, 1.5, 3.0):
            res = w.best_approx(f, seg, plan, basis, p)
            assert res.status == "optimal"
            # perturbing the solution should not reduce the objective
            rng = np.random.default_rng(0)
            fvals = f(plan.points)
            Phi = design_matrix(basis, plan.points)
            for _ in range(20):
                cand = res.coeffs + 1e-3 * rng.standard_normal(basis.n_basis)
                assert w.lp_norm(fvals - Phi @ cand, plan.weights, p) \
                    >= res.error - 1e-9

    def test_quasinorm_local_status_and_dominance(self, seg_plan, axis1):
        seg, plan = seg_plan
        basis = w.build_basis(1, 2, axis1)
        f = w.CallbackFunction(lambda X: np.sin(5 * X[:, 0]), 1)
        res = w.best_approx(f, seg, plan, basis, 0.5, seed=1)
        assert res.status == "local_optimum"
        rng = np.random.default_rng(2)
        fvals = f(plan.points)
        Phi = design_matrix(basis, plan.points)
        for _ in range(100):
            cand = rng.standard_normal(basis.n_basis)
            assert w.lp_norm(fvals - Phi @ cand, plan.weights, 0.5) \
                >= res.error - 1e-9

    def test_rank_deficient_plan_errors(self, axis1):
        seg = w.box([0.0], [1.0])
        plan = w.SamplePlan(np.array([[0.2], [0.5]]), np.array([0.5, 0.5]), 0, 2.0)
        basis = w.build_basis(1, 3, axis1)
        f = w.CallbackFunction(lambda X: X[:, 0], 1)
        with pytest.raises(PreconditionError):
            w.best_approx(f, seg, plan, basis, 2.0)

    def test_homogeneity(self, seg_plan, axis1):
        seg, plan = seg_plan
        basis = w.build_basis(1, 2, axis1)
        f = w.CallbackFunction(lambda X: np.cos(4 * X[:, 0]), 1)
        g = w.CallbackFunction(lambda X: -3.0 * np.cos(4 * X[:, 0]), 1)
        for p in (2.0, math.inf):
            e1 = w.best_approx(f, seg, plan, basis, p).error
            e2 = w.best_approx(g, seg, plan, basis, p).error
            assert e2 == pytest.approx(3.0 * e1, rel=1e-8)

    def test_subspace_monotonicity(self, axes2):
        # the three-direction space is a subspace of the axes space
        sq = w.box([0, 0], [1, 1])
        plan = w.sample_plan(sq, 1024, seed=3)
        small = w.build_basis(2, 2, w.direction_set(
            [[1, 0], [0, 1], [1 / math.sqrt(2), 1 / math.sqrt(2)]]))
        big = w.build_basis(2, 2, axes2)
        for row in small.coeffs:
            assert span_residual(big, row) <= 1e-9
        f = w.CallbackFunction(lambda X: np.sin(3 * X[:, 0]) * X[:, 1], 2)
        for p in (2.0, math.inf):
            e_big = w.best_approx(f, sq, plan, big, p).error
            e_small = w.best_approx(f, sq, plan, small, p).error
            assert e_big <= e_small + 1e-10

    def test_self_consistency_of_reported_error(self, seg_plan, axis1):
        seg, plan = seg_plan
        basis = w.build_basis(1, 2, axis1)
        f = w.CallbackFunction(lambda X: np.exp(X[:, 0]), 1)
        res = w.best_approx(f, seg, plan, basis, 1.5)
        Phi = design_matrix(basis, plan.points)
        recomputed = w.lp_norm(f(plan.points) - Phi @ res.coeffs, plan.weights, 1.5)
        assert res.error == pytest.approx(recomputed, rel=1e-10)


class TestBestApprox1d:
    def test_exact_degree_recovery(self, axis1):
        seg = w.box([-1.0], [1.0])
        f = w.CallbackFunction(lambda X: 2.0 - X[:, 0] + 0.5 * X[:, 0] ** 2, 1)
        res = w.best_approx(f, seg, w.grid_plan(seg, 40), w.build_basis(1, 3, axis1), 2.0)
        assert res.error <= 1e-10

    def test_abs_midrange(self, axis1):
        seg = w.box([-1.0], [1.0])
        f = w.CallbackFunction(lambda X: np.abs(X[:, 0]), 1)
        res = w.best_approx(f, seg, w.grid_plan(seg, 201), w.build_basis(1, 1, axis1),
                            math.inf)
        assert res.error == pytest.approx(0.5, abs=1e-9)

    def test_too_few_abscissae(self, axis1):
        # two points, but one abscissa: a line is not determined
        seg = w.box([0.0], [1.0])
        plan = w.SamplePlan(np.array([[0.4], [0.4]]), np.array([0.5, 0.5]), 0, 2.0)
        f = w.CallbackFunction(lambda X: X[:, 0], 1)
        with pytest.raises(PreconditionError):
            w.best_approx(f, seg, plan, w.build_basis(1, 2, axis1), 2.0)

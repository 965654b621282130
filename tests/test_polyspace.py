import json
import math

import numpy as np
import pytest

import whitneylab as w
from whitneylab.errors import SpanDeficiencyError
from whitneylab.polyspace import (
    PolySpaceBasis, design_matrix, directional_derivative_matrix, monomial_exponents,
    monomial_matrix,
)

from conftest import span_residual


def _unit_vec(exponents, alpha):
    v = np.zeros(len(exponents))
    v[[tuple(a) for a in exponents].index(alpha)] = 1.0
    return v


def _power_derivative(poly, xi, r, exponents):
    """Coefficients of (xi . grad)^r applied to ``poly`` on the same frame."""
    return np.linalg.matrix_power(directional_derivative_matrix(exponents, xi), r) @ poly


class TestDirectionalPowerDerivative:
    def test_x_squared_along_axis(self):
        exps = monomial_exponents(1, 2)
        out = _power_derivative(_unit_vec(exps, (2,)), [1.0], 2, exps)
        assert out[[tuple(a) for a in exps].index((0,))] == pytest.approx(2.0)

    def test_xy_along_diagonal_sympy_oracle(self):
        import sympy
        x, y, t = sympy.symbols("x y t")
        xi = sympy.Matrix([1, 1]) / sympy.sqrt(2)
        g = (x + t * xi[0]) * (y + t * xi[1])
        oracle = float(sympy.diff(g, t, 2))
        exps = monomial_exponents(2, 2)
        out = _power_derivative(
            _unit_vec(exps, (1, 1)), np.array([1, 1]) / math.sqrt(2), 2, exps)
        const = out[[tuple(a) for a in exps].index((0, 0))]
        assert const == pytest.approx(oracle, rel=1e-12)
        assert oracle == pytest.approx(1.0)


class TestBuildBasis:
    def test_axes_d2_r2_dimension_and_span(self, axes2):
        basis = w.build_basis(2, 2, axes2)
        assert basis.n_basis == 4
        # span is {1, x, y, xy}
        for alpha in [(0, 0), (1, 0), (0, 1), (1, 1)]:
            assert span_residual(basis, _unit_vec(basis.exponents, alpha)) \
                <= 1e-9
        for alpha in [(2, 0), (0, 2)]:
            assert span_residual(basis, _unit_vec(basis.exponents, alpha)) \
                == pytest.approx(1.0, abs=1e-9)

    def test_axes_plus_diagonal_kills_mixed(self, axes2):
        E = w.direction_set([[1, 0], [0, 1], [1 / math.sqrt(2), 1 / math.sqrt(2)]])
        basis = w.build_basis(2, 2, E)
        assert basis.n_basis == 3
        for alpha in [(2, 0), (0, 2), (1, 1)]:
            assert span_residual(basis, _unit_vec(basis.exponents, alpha)) \
                == pytest.approx(1.0, abs=1e-9)

    def test_r1_constants(self):
        E = w.direction_set([[0.6, 0.8], [-0.8, 0.6]])
        basis = w.build_basis(2, 1, E)
        assert basis.n_basis == 1

    def test_exactly_d_directions_gives_r_to_the_d(self):
        rng = np.random.default_rng(3)
        for d, r in [(2, 2), (2, 3), (3, 2)]:
            M = rng.standard_normal((d, d)) + 2 * np.eye(d)
            E = w.direction_set(M)
            assert w.build_basis(d, r, E).n_basis == r ** d

    def test_span_deficient_is_hard_error(self):
        E = w.direction_set([[1.0, 0.0]])
        with pytest.raises(SpanDeficiencyError):
            w.build_basis(2, 2, E)

    def test_span_check_does_not_search_the_spread(self):
        # the spread enumerates the vertices of a polytope; the rank test decides
        ds = w.direction_set([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
        w.build_basis(3, 1, ds)
        assert "spread" not in vars(ds)

    @pytest.mark.parametrize("dirs", [[[1, 1], [-2, -2]], [[1, 0, 0], [0, 1, 0], [1, 1, 0]]],
                             ids=["parallel-2d", "coplanar-3d"])
    def test_span_deficient_message(self, dirs):
        with pytest.raises(SpanDeficiencyError, match="^directions do not span the space; "
                           "the constrained space is infinite dimensional$"):
            w.build_basis(len(dirs[0]), 2, w.direction_set(dirs))

    def test_rows_orthonormal_and_annihilated(self, axes2):
        E = w.direction_set([[1, 0], [0, 1], [0.6, 0.8]])
        basis = w.build_basis(2, 3, E)
        G = basis.coeffs @ basis.coeffs.T
        assert np.allclose(G, np.eye(basis.n_basis), atol=1e-12)
        for row in basis.coeffs:
            for xi in E.dirs:
                out = _power_derivative(row, xi, 3, basis.exponents)
                assert np.linalg.norm(out) <= 1e-9


class TestEvaluate:
    """``design_matrix(basis, pts) @ coeffs`` evaluates sum_k coeffs_k P_k."""

    def test_constant_row(self, axis1):
        basis = w.build_basis(1, 1, axis1)
        c0 = basis.coeffs[0, 0]
        assert design_matrix(basis, [[0.37]]) @ [2.0] == pytest.approx([2.0 * c0])

    def test_zero_coeffs(self, axes2):
        basis = w.build_basis(2, 2, axes2)
        assert design_matrix(basis, [[0.3, 0.4]]) @ np.zeros(basis.n_basis) == 0.0

    def test_matches_monomial_oracle(self, axes2):
        basis = w.build_basis(2, 2, axes2)
        rng = np.random.default_rng(11)
        coeffs = rng.standard_normal(basis.n_basis)
        pts = rng.uniform(-1, 1, size=(50, 2))
        mono = coeffs @ basis.coeffs
        # independent oracle: explicit power products
        oracle = np.array([
            sum(c * np.prod([x[i] ** a[i] for i in range(2)])
                for c, a in zip(mono, basis.exponents))
            for x in pts
        ])
        got = design_matrix(basis, pts) @ coeffs
        assert np.allclose(got, oracle, rtol=1e-12, atol=1e-14)


class TestMembershipResidual:
    def test_basis_row_is_zero(self, axes2):
        basis = w.build_basis(2, 2, axes2)
        assert span_residual(basis, basis.coeffs[1]) <= 1e-12


class TestMonomialMatrix:
    @staticmethod
    def _prod_form(exponents, points):
        return np.prod(points[:, None, :] ** exponents[None, :, :], axis=2)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_bitwise_equal_to_prod_of_powers(self, d):
        rng = np.random.default_rng(d)
        pts = rng.uniform(-2.0, 2.0, size=(500, d))
        pts[:20] = 0.0
        pts[20:40, 0] = -1.5
        for degree in (0, 1, 3, 6):
            exps = monomial_exponents(d, degree)
            exps = exps[rng.permutation(len(exps))]
            got = monomial_matrix(exps, pts)
            assert got.shape == (500, len(exps))
            assert np.array_equal(got, self._prod_form(exps, pts))
        # exponents far apart, and negative ones, are outside the table's range
        exps = np.array([[0] * d, [30] + [2] * (d - 1), [3] * (d - 1) + [-2]])
        nonzero = np.all(pts != 0.0, axis=1)
        assert np.array_equal(monomial_matrix(exps, pts[nonzero]),
                              self._prod_form(exps, pts[nonzero]))

    def test_empty_exponent_list(self):
        pts = np.random.default_rng(0).uniform(-1, 1, size=(7, 2))
        exps = np.zeros((0, 2), dtype=int)
        got = monomial_matrix(exps, pts)
        assert got.shape == (7, 0)
        assert np.array_equal(got, self._prod_form(exps, pts))


class TestStructure:
    def test_direction_superset_shrinks_space(self, axes2):
        big = w.direction_set([[1, 0], [0, 1], [0.6, 0.8]])
        b_small = w.build_basis(2, 3, axes2)
        b_big = w.build_basis(2, 3, big)
        assert b_big.n_basis <= b_small.n_basis
        for row in b_big.coeffs:
            assert span_residual(b_small, row) <= 1e-9

    def test_affine_equivariance_of_dimension(self):
        rng = np.random.default_rng(21)
        E = w.direction_set([[1, 0], [0, 1], [0.8, 0.6]])
        n0 = w.build_basis(2, 2, E).n_basis
        for _ in range(5):
            A = rng.standard_normal((2, 2)) + 2 * np.eye(2)
            mapped = (np.linalg.inv(A) @ E.dirs.T).T
            ET = w.direction_set(mapped)
            assert w.build_basis(2, 2, ET).n_basis == n0

    def test_line_restrictions_have_low_degree(self):
        E = w.direction_set([[1, 0], [0, 1], [0.6, 0.8]])
        r = 2
        basis = w.build_basis(2, r, E)
        rng = np.random.default_rng(5)
        nodes = np.cos(np.pi * (np.arange(2 * r) + 0.5) / (2 * r))
        for row in basis.coeffs:
            for _ in range(20):
                x0 = rng.uniform(-1, 1, 2)
                for xi in E.dirs:
                    pts = x0[None, :] + nodes[:, None] * xi[None, :]
                    vals = monomial_matrix(basis.exponents, pts) @ row
                    fit = np.polynomial.polynomial.polyfit(nodes, vals, r - 1)
                    resid = vals - np.polynomial.polynomial.polyval(nodes, fit)
                    assert np.max(np.abs(resid)) <= 1e-9

    def test_json_round_trip(self, axes2):
        basis = w.build_basis(2, 2, axes2)
        spec = json.loads(json.dumps(basis.spec()))
        back = PolySpaceBasis(spec["d"], spec["r"], np.asarray(spec["exponents"]),
                              np.asarray(spec["coeffs"]), w.direction_set(spec["dirs"]))
        pts = np.random.default_rng(0).uniform(-1, 1, size=(10, 2))
        assert np.allclose(design_matrix(basis, pts), design_matrix(back, pts))

"""Finite differences, shift-restricted subdomains, and directional moduli.

The r-th directional modulus at scale t is the supremum over step lengths
|u| <= t of the L^p quasi-norm of the r-th forward difference along a
direction, taken over the sampled points whose whole difference stencil stays
in the domain.  The supremum is discretized on a shift grid (refined for the
uniform norm).  At p = inf the reported value is a maximum over plan points
and grid steps, hence a lower bound of the exact modulus; at p < inf the L^p
norms are Monte Carlo estimates over the plan, so the value is an estimate,
not a bound.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import PreconditionError
from .geometry import golden_max
from .polyspace import monomial_exponents, monomial_matrix

N_SHIFT_DEFAULT = 64
MIN_VALID_POINTS = 8


# ---------------------------------------------------------------------------
# function families
# ---------------------------------------------------------------------------

class SampledFunction:
    """Deterministic evaluator R^d -> R; accepts (d,) points or (n, d) batches."""

    dim: int

    def __call__(self, x):
        raise NotImplementedError

    def spec(self):
        raise NotImplementedError


class PolynomialFunction(SampledFunction):
    def __init__(self, exponents, coeffs, dim=None):
        self.exponents = np.asarray(exponents, dtype=int)
        self.coeffs = np.asarray(coeffs, dtype=float).ravel()
        self.dim = self.exponents.shape[1] if dim is None else dim
        if self.exponents.shape[0] != self.coeffs.size:
            raise PreconditionError("exponent/coefficient length mismatch")

    def __call__(self, x):
        pts = np.asarray(x, dtype=float)
        single = pts.ndim == 1
        vals = monomial_matrix(self.exponents, np.atleast_2d(pts)) @ self.coeffs
        return float(vals[0]) if single else vals

    def spec(self):
        return {"kind": "polynomial", "exponents": self.exponents.tolist(),
                "coeffs": self.coeffs.tolist()}


class RidgeLog(SampledFunction):
    """max(-n, log(x . xi)) with value -n at and below x . xi = exp(-n)."""

    def __init__(self, n, xi):
        self.n = int(n)
        self.xi = np.asarray(xi, dtype=float).ravel()
        self.xi = self.xi / np.linalg.norm(self.xi)
        self.dim = self.xi.size

    def __call__(self, x):
        pts = np.asarray(x, dtype=float)
        single = pts.ndim == 1
        t = np.atleast_2d(pts) @ self.xi
        cutoff = math.exp(-self.n)
        out = np.full(t.shape, -float(self.n))
        mask = t > cutoff
        out[mask] = np.log(t[mask])
        return float(out[0]) if single else out

    def spec(self):
        return {"kind": "ridge_log", "n": self.n, "xi": self.xi.tolist()}


def random_polynomial(degree, seed, dim):
    """Deterministic random polynomial with standard normal coefficients."""
    exps = monomial_exponents(dim, degree)
    rng = np.random.default_rng(seed)
    f = PolynomialFunction(exps, rng.standard_normal(len(exps)), dim)
    f._random_spec = {"kind": "random_poly", "degree": int(degree), "seed": int(seed)}
    return f


class CallbackFunction(SampledFunction):
    """Wrap an arbitrary vectorized evaluator (testing convenience)."""

    def __init__(self, fn, dim):
        self.fn = fn
        self.dim = dim

    def __call__(self, x):
        pts = np.asarray(x, dtype=float)
        single = pts.ndim == 1
        out = np.asarray(self.fn(np.atleast_2d(pts)), dtype=float).ravel()
        return float(out[0]) if single else out

    def spec(self):
        return {"kind": "callback"}


def function_from_spec(spec, dim=None):
    kind = spec.get("kind")
    if kind == "polynomial":
        return PolynomialFunction(spec["exponents"], spec["coeffs"])
    if kind == "ridge_log":
        return RidgeLog(spec["n"], spec["xi"])
    if kind == "random_poly":
        if dim is None:
            raise PreconditionError("random_poly spec needs an ambient dimension")
        return random_polynomial(spec["degree"], spec["seed"], dim)
    raise PreconditionError(f"unknown function kind {kind!r}")


# ---------------------------------------------------------------------------
# differences and norms
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _binomial_row(r):
    return tuple(math.comb(r, j) for j in range(r + 1))


def finite_difference(f, x, h, r):
    """r-th forward difference sum_j (-1)^(r+j) C(r,j) f(x + j h).

    ``x`` may be a single point or a batch; membership of the stencil is the
    caller's responsibility.
    """
    if r < 1:
        raise PreconditionError("difference order must be >= 1")
    h = np.asarray(h, dtype=float).ravel()
    if not np.any(h):
        raise PreconditionError("step vector must be nonzero")
    pts = np.asarray(x, dtype=float)
    single = pts.ndim == 1
    pts2 = np.atleast_2d(pts)
    comb = _binomial_row(r)
    acc = np.zeros(len(pts2))
    for j in range(r + 1):
        sign = -1.0 if (r + j) % 2 else 1.0
        acc += sign * comb[j] * np.asarray(f(pts2 + j * h))
    return float(acc[0]) if single else acc


def shift_domain(dom, plan, h, r):
    """Indices of plan points whose full difference stencil stays in the domain."""
    h = np.asarray(h, dtype=float).ravel()
    ok = np.ones(len(plan), dtype=bool)
    for j in range(1, r + 1):
        idx = ok.nonzero()[0]
        if idx.size == 0:
            break
        ok[idx] = dom.contains(plan.points[idx] + j * h)
    return np.nonzero(ok)[0]


def lp_norm(values, weights, p):
    """Weighted L^p (quasi-)norm; max norm at p = inf; 0 on empty input."""
    v = np.asarray(values, dtype=float).ravel()
    if v.size == 0:
        return 0.0
    if p <= 0:
        raise PreconditionError("p must be positive")
    if math.isinf(p):
        return float(np.max(np.abs(v)))
    w = np.asarray(weights, dtype=float).ravel()
    if w.size != v.size:
        raise PreconditionError("values and weights length mismatch")
    return float(np.sum(w * np.abs(v) ** p) ** (1.0 / p))


# ---------------------------------------------------------------------------
# directional moduli
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModulusResult:
    value: float
    argmax_u: float
    argmax_xi: np.ndarray
    n_valid_points: int
    reliable: bool

    def __float__(self):
        return self.value


def _norm_at_shift(f, dom, plan, xi, r, u, p):
    idx = shift_domain(dom, plan, u * xi, r)
    if idx.size == 0:
        return 0.0, 0
    vals = finite_difference(f, plan.points[idx], u * xi, r)
    return lp_norm(vals, plan.weights[idx], p), int(idx.size)


def directional_modulus(f, dom, plan, xi, r, t, p, n_shift=N_SHIFT_DEFAULT,
                        refine=None):
    """Sampled modulus along one direction.

    The shift grid is {t k / n_shift}; for the uniform norm the top grid
    steps are refined by golden-section search to 1e-4 * t.  At p = inf the
    result is a lower bound of the exact supremum; at p < inf it is a Monte
    Carlo estimate.
    """
    if t <= 0:
        raise PreconditionError("scale t must be positive")
    if len(plan) == 0:
        raise PreconditionError("empty sample plan")
    xi = np.asarray(xi, dtype=float).ravel()
    xi = xi / np.linalg.norm(xi)
    if refine is None:
        refine = math.isinf(p)

    us = t * np.arange(1, n_shift + 1) / n_shift
    norms = np.empty(n_shift)
    counts = np.empty(n_shift, dtype=int)
    for i, u in enumerate(us):
        norms[i], counts[i] = _norm_at_shift(f, dom, plan, xi, r, u, p)

    best_i = int(np.argmax(norms))
    best = (norms[best_i], us[best_i], counts[best_i])

    if refine and n_shift >= 2:
        step = t / n_shift
        for i in np.argsort(norms)[-3:]:
            lo = max(us[i] - step, 1e-12 * t)
            hi = min(us[i] + step, t)
            u_ref, val, cnt = golden_max(
                lambda u: _norm_at_shift(f, dom, plan, xi, r, u, p),
                lo, hi, tol=1e-4 * t)
            if val > best[0]:
                best = (val, u_ref, cnt)

    value, u_best, n_valid = best
    reliable = n_valid >= MIN_VALID_POINTS and value >= 0.0 and any(counts > 0)
    return ModulusResult(float(value), float(u_best), xi, int(n_valid), bool(reliable))


def set_modulus(f, dom, plan, dirset, r, t, p, n_shift=N_SHIFT_DEFAULT,
                refine=None):
    """Max of the directional modulus over a direction set (first-index ties)."""
    if len(dirset) == 0:
        raise PreconditionError("empty direction set")
    best = None
    for xi in dirset.dirs:
        res = directional_modulus(f, dom, plan, xi, r, t, p,
                                  n_shift=n_shift, refine=refine)
        if best is None or res.value > best.value:
            best = res
    return best

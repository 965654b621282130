"""Finite differences, shift-restricted subdomains, and directional moduli.

The r-th directional modulus at scale t is the supremum over step lengths
|u| <= t of the L^p quasi-norm of the r-th forward difference along a
direction, taken over the sampled points whose whole difference stencil stays
in the domain.  The supremum is discretized on a shift grid (refined for the
uniform norm).  At p = inf the reported value is a maximum over plan points
and grid steps, hence a lower bound of the exact modulus; at p < inf the L^p
norms are Monte Carlo estimates over the plan, so the value is an estimate,
not a bound.

One grid step u is evaluated algebraically where it can be.  On a convex
domain with a closed-form exit distance u_max(x) along xi (polytopes, balls,
cone bodies and their intersections) the stencil of x is valid iff
r u <= u_max(x), so validity costs one comparison per step instead of r
membership tests.  For a polynomial, the Taylor coefficients
c_k(x) = (D_xi^k f)(x) / k! are computed once per direction on the plan, over
the monomials that divide a term of f, and

    Delta^r_{u xi} f(x) = r! sum_{k >= r} S(k, r) c_k(x) u^k

with S(k, r) the Stirling numbers of the second kind, so a step costs one
small matrix-vector product.  Other functions, other domains, and sparse
polynomials whose table would cost more than the stencil (TAYLOR_WORK_RATIO)
sum the stencil (`finite_difference`, `shift_domain`).  The shift grid
and its refinement are the same on every path, so the p = inf value stays a
lower bound.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import PreconditionError
from .geometry import _translate
from .polyspace import _exponent_index, monomial_exponents, monomial_matrix

N_SHIFT_DEFAULT = 64
MIN_VALID_POINTS = 8
# For a polynomial with E exponents, the Taylor table has M frame monomials
# and deg f + 1 coefficients per plan point, computed once per direction; the
# stencil evaluates the E monomials r + 1 times per grid step.  With
# W = M (deg f + 1) / E (deg f + 1 for a dense polynomial), the Taylor form was
# measured faster at every W <= 512 and the stencil from W of about 600-2500
# on (n = 2048 and 8192 plan points, r = 1..3, p = 1, 2, inf; see CHANGES.md)
TAYLOR_WORK_RATIO = 512


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

    def taylor(self, points, xi):
        """(n, deg + 1) matrix of c_k(x) = (D_xi^k f)(x) / k!, or None where
        there is no closed form or the stencil is cheaper."""
        return None


class PolynomialFunction(SampledFunction):
    def __init__(self, exponents, coeffs):
        raw = np.asarray(exponents, dtype=float)
        if not np.all(np.isfinite(raw) & (raw >= 0) & (raw == np.floor(raw))):
            raise ValueError("polynomial exponents must be nonnegative integers")
        self.exponents = raw.astype(int)
        self.coeffs = np.asarray(coeffs, dtype=float).ravel()
        self.dim = self.exponents.shape[1]
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

    def taylor(self, points, xi):
        # on the exponents below those of f: the smallest frame closed under
        # differentiation (the exponent list itself need not be closed)
        exps = self.exponents
        deg = int(exps.sum(axis=1).max(initial=0))
        frame = _derivative_closure(exps, TAYLOR_WORK_RATIO * len(exps) // (deg + 1))
        if frame is None:
            return None
        row = _exponent_index(frame.tolist())
        coeffs = np.zeros((len(frame), deg + 1))
        np.add.at(coeffs[:, 0], [row[tuple(a)] for a in exps.tolist()], self.coeffs)
        # D_xi takes each frame row to the rows one exponent lower, so
        # c_k = D_xi c_{k-1} / k needs no dense matrix
        lowerings = []
        for axis, x in enumerate(np.asarray(xi, dtype=float).ravel()):
            src = np.flatnonzero(frame[:, axis] > 0)
            if x == 0.0 or src.size == 0:
                continue
            lowered = frame[src]
            lowered[:, axis] -= 1
            lowerings.append((src, [row[tuple(a)] for a in lowered.tolist()],
                              x * frame[src, axis]))
        for k in range(1, deg + 1):
            for src, dst, scale in lowerings:
                coeffs[dst, k] += scale * coeffs[src, k - 1] / k
        return monomial_matrix(frame, points) @ coeffs


def _derivative_closure(exponents, cap):
    """The multi-indices b <= a (componentwise) for some a in ``exponents``,
    by total degree; None once there are more than ``cap``.  Memoised on the
    exponents and ``cap`` (a family of functions shares one exponent array),
    so the frame is read-only."""
    return _closure_of(exponents.shape, np.asarray(exponents, dtype=np.int64).tobytes(), cap)


@lru_cache(maxsize=256)
def _closure_of(shape, data, cap):
    exponents = np.frombuffer(data, dtype=np.int64).reshape(shape)
    d = shape[1]
    degree = exponents.sum(axis=1)
    layer = np.empty((0, d), dtype=int)
    layers = []
    size = 0
    for k in range(int(degree.max(initial=0)), -1, -1):
        down = (layer[:, None, :] - np.eye(d, dtype=int)).reshape(-1, d)
        layer = np.unique(np.vstack([exponents[degree == k], down[(down >= 0).all(axis=1)]]),
                          axis=0)
        size += len(layer)
        if size > cap:
            return None
        layers.append(layer)
    frame = np.vstack(layers[::-1])
    frame.flags.writeable = False
    return frame


class RidgeLog(SampledFunction):
    """max(-n, log(x . xi)) with value -n at and below x . xi = exp(-n)."""

    def __init__(self, n, xi):
        self.n = int(n)
        xi = np.asarray(xi, dtype=float).ravel()
        nrm = float(np.linalg.norm(xi))
        if not (math.isfinite(nrm) and nrm > 0.0):
            raise PreconditionError("xi must be a nonzero finite vector")
        self.xi = xi / nrm
        self.dim = self.xi.size

    def __call__(self, x):
        pts = np.asarray(x, dtype=float)
        single = pts.ndim == 1
        t = np.atleast_2d(pts) @ self.xi
        out = np.full(t.shape, -float(self.n))
        np.log(t, out=out, where=t > math.exp(-self.n))
        return float(out[0]) if single else out

    def spec(self):
        return {"kind": "ridge_log", "n": self.n, "xi": self.xi.tolist()}


def random_polynomial(degree, seed, dim):
    """Deterministic random polynomial with standard normal coefficients."""
    exps = monomial_exponents(dim, degree)
    rng = np.random.default_rng(seed)
    return PolynomialFunction(exps, rng.standard_normal(len(exps)))


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


def function_from_spec(spec, dim):
    """Build a function on R^dim from its JSON description; an unknown
    ``kind`` is a malformed spec (ValueError)."""
    kind = spec.get("kind")
    if kind == "polynomial":
        return PolynomialFunction(spec["exponents"], spec["coeffs"])
    if kind == "ridge_log":
        return RidgeLog(spec["n"], spec["xi"])
    if kind == "random_poly":
        return random_polynomial(spec["degree"], spec["seed"], dim)
    raise ValueError(f"unknown function kind {kind!r}")


# ---------------------------------------------------------------------------
# differences and norms
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _binomial_row(r):
    return tuple(math.comb(r, j) for j in range(r + 1))


@lru_cache(maxsize=None)
def _stirling_column(r, top):
    """(S(r, r), S(r + 1, r), ..., S(top, r)) for r >= 1, by the recurrence
    S(k, j) = j S(k - 1, j) + S(k - 1, j - 1); empty when top < r.  The
    Stirling numbers of the second kind are exact integers, and r! S(k, r) =
    sum_j (-1)^(r-j) C(r, j) j^k is the r-th difference of t^k at 0, step 1."""
    row = [1] + [0] * r
    out = []
    for k in range(1, top + 1):
        for j in range(min(k, r), 0, -1):
            row[j] = j * row[j] + row[j - 1]
        row[0] = 0
        if k >= r:
            out.append(row[r])
    return tuple(out)


def finite_difference(f, x, h, r):
    """r-th forward difference sum_j (-1)^(r+j) C(r,j) f(x + j h).

    ``x`` may be a single point or a batch; membership of the stencil is the
    caller's responsibility.
    """
    if r < 1:
        raise PreconditionError("difference order must be >= 1")
    h = np.asarray(h, dtype=float).ravel()
    if not h.any():
        raise PreconditionError("step vector must be nonzero")
    pts = np.asarray(x, dtype=float)
    single = pts.ndim == 1
    pts2 = np.atleast_2d(pts)
    comb = _binomial_row(r)
    acc = np.zeros(len(pts2))
    for j in range(r + 1):
        sign = -1.0 if (r + j) % 2 else 1.0
        acc += sign * comb[j] * np.asarray(f(_translate(pts2, j * h) if j else pts2))
    return float(acc[0]) if single else acc


def shift_domain(dom, plan, h, r):
    """Indices of plan points whose full difference stencil stays in the domain."""
    h = np.asarray(h, dtype=float).ravel()
    ok = np.ones(len(plan), dtype=bool)
    for j in range(1, r + 1):
        idx = ok.nonzero()[0]
        if idx.size == 0:
            break
        ok[idx] = dom.contains(_translate(np.take(plan.points, idx, axis=0), j * h))
    return np.nonzero(ok)[0]


def finite_values(f, points):
    """f at the plan points; raises when any value is not finite, since no
    difference, norm or fit of such values means anything."""
    vals = np.asarray(f(points), dtype=float)
    bad = vals.size - np.count_nonzero(np.isfinite(vals))
    if bad:
        raise PreconditionError(
            f"function values are not finite at {bad} of {vals.size} plan points")
    return vals


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


def _step_norm(f, dom, plan, xi, r, p):
    """u -> (L^p norm of Delta^r_{u xi} f over the valid plan points, their count).

    The exit distances and the Taylor coefficients along xi are computed here
    once; each call then costs a comparison and a matrix-vector product, or the
    stencil evaluation where either has no closed form.
    """
    u_max = dom.exit_distance(plan.points, xi)
    taylor = f.taylor(plan.points, xi)
    if taylor is not None:
        # r! S(k, r) grows with k; past the float range the stencil is used
        weights = [math.factorial(r) * s for s in _stirling_column(r, taylor.shape[1] - 1)]
        if weights and weights[-1] > sys.float_info.max:
            taylor = None
    if taylor is not None:
        high = np.ascontiguousarray(taylor[:, r:])
        powers = np.arange(r, taylor.shape[1])
        factor = np.array(weights, dtype=float)

    def norm(u):
        if u_max is None:
            idx = shift_domain(dom, plan, u * xi, r)
        else:
            idx = np.flatnonzero(r * u <= u_max)
        if idx.size == 0:
            return 0.0, 0
        # the Taylor path takes the valid rows, then multiplies: a product over
        # all rows followed by a take changes the bits of some row sums
        if taylor is None:
            vals = finite_difference(f, np.take(plan.points, idx, axis=0), u * xi, r)
        else:
            vals = np.take(high, idx, axis=0) @ (factor * u ** powers)
        return lp_norm(vals, np.take(plan.weights, idx), p), int(idx.size)
    return norm


def directional_modulus(f, dom, plan, xi, r, t, p, n_shift=N_SHIFT_DEFAULT,
                        refine=None):
    """Sampled modulus along one direction.

    The shift grid is {t k / n_shift}; for the uniform norm the top grid
    steps are refined by golden-section search to 1e-4 * t.  At p = inf the
    result is a lower bound of the exact supremum; at p < inf it is a Monte
    Carlo estimate.  Every plan point must belong to ``dom``: the stencil of
    x starts at x, and only x + j u xi, j = 1..r, are tested.  A value that is
    not finite raises PreconditionError.
    """
    if not 0 < t < math.inf:
        raise PreconditionError(f"scale t must be positive and finite, got {t}")
    if r < 1:
        raise PreconditionError("difference order must be >= 1")
    if len(plan) == 0:
        raise PreconditionError("empty sample plan")
    if not np.all(dom.contains(plan.points)):
        raise PreconditionError("plan points must belong to the domain")
    xi = np.asarray(xi, dtype=float).ravel()
    xi = xi / np.linalg.norm(xi)
    if refine is None:
        refine = math.isinf(p)

    norm_at = _step_norm(f, dom, plan, xi, r, p)
    us = t * np.arange(1, n_shift + 1) / n_shift
    norms = np.empty(n_shift)
    counts = np.empty(n_shift, dtype=int)
    for i, u in enumerate(us):
        norms[i], counts[i] = norm_at(u)

    best_i = int(np.argmax(norms))
    best = (norms[best_i], us[best_i], counts[best_i])

    if refine and n_shift >= 2:
        step = t / n_shift
        for i in np.argsort(norms)[-3:]:
            lo = max(us[i] - step, 1e-12 * t)
            hi = min(us[i] + step, t)
            u_ref, val, cnt = _golden_max(norm_at, lo, hi, tol=1e-4 * t)
            if val > best[0]:
                best = (val, u_ref, cnt)

    value, u_best, n_valid = best
    # a non-finite value or difference on a valid stencil reaches the maximum,
    # so one check here costs nothing on the usual path
    if not math.isfinite(value):
        finite_values(f, plan.points)
        raise PreconditionError("modulus is not finite: the differences of the function "
                                "or their norm overflow")
    reliable = n_valid >= MIN_VALID_POINTS and value >= 0.0 and any(counts > 0)
    return ModulusResult(float(value), float(u_best), xi, int(n_valid), bool(reliable))


def _golden_max(fn, lo, hi, tol):
    """Golden-section search for the maximum of ``fn`` on [lo, hi].

    ``fn(u)`` returns a tuple whose first entry is the value to maximize;
    returns ``(u, *fn(u))`` at the better final probe (the left one on ties).
    """
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc[0] > fd[0]:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = fn(d)
    return (c, *fc) if fc[0] >= fd[0] else (d, *fd)


def set_modulus(f, dom, plan, dirset, r, t, p, n_shift=N_SHIFT_DEFAULT,
                refine=None):
    """Max of the directional modulus over a direction set (first-index ties);
    every plan point must belong to ``dom``."""
    if len(dirset) == 0:
        raise PreconditionError("empty direction set")
    best = None
    for xi in dirset.dirs:
        res = directional_modulus(f, dom, plan, xi, r, t, p,
                                  n_shift=n_shift, refine=refine)
        if best is None or res.value > best.value:
            best = res
    return best

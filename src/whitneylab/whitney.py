"""Whitney-type ratios: empirical lower bounds, chain upper bounds, and the
log-ridge divergence certificate on narrow cone bodies.

The central quantity is the worst-case ratio of best-approximation error from
the directionally-flat polynomial space to the directional modulus at scale
diam, estimated from the ``random_poly`` or ``perturbed_basis`` family
(lower bounds only) or certified from a verified decomposition chain (upper
bounds, relative to an assumed bound on the base piece).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import PreconditionError
from . import geometry as geo
from .approx import best_approx
from .modulus import PolynomialFunction, RidgeLog, random_polynomial, set_modulus
from .polyspace import build_basis

RATIO_CUTOFF = 1e-9


def whitney_ratio(f, dom, plan, dirset, basis, r, p, t=None):
    """Approximation error over modulus at scale diam; None when the modulus
    vanishes (the function lies in the flat space, ratio undefined)."""
    if t is None:
        t = geo.diameter(dom, plan).value
    fvals = np.asarray(f(plan.points), dtype=float)
    scale = float(np.max(np.abs(fvals))) if len(fvals) else 0.0
    mod = set_modulus(f, dom, plan, dirset, r, t, p)
    if mod.value <= RATIO_CUTOFF * max(scale, 1e-300):
        return None
    err = best_approx(f, dom, plan, basis, p).error
    return err / mod.value


@dataclass(eq=False)
class WhitneyEstimate:
    lower_bound: float
    theta: float
    witness: Optional[dict]
    params: dict
    upper_bound: Optional[float] = None
    n_defined: int = 0
    inconsistent: bool = field(default=False)

    def attach_upper_bound(self, value):
        self.upper_bound = float(value)
        self.inconsistent = self.lower_bound > self.upper_bound * (1.0 + 1e-9) + 1e-9

    def spec(self):
        return {
            "lower_bound": self.lower_bound,
            "upper_bound": self.upper_bound,
            "theta": self.theta,
            "witness": self.witness,
            "params": self.params,
            "n_defined": self.n_defined,
        }


def _family_functions(kind, dim, r, budget, seed, basis):
    """(function, spec) pairs: random polynomials of degree d (r - 1) + 3, or
    flat-space basis elements with noise on their coefficients."""
    if kind == "random_poly":
        degree = dim * (r - 1) + 3
        for k in range(budget):
            yield (random_polynomial(degree, seed + k, dim),
                   {"kind": "random_poly", "degree": degree, "seed": seed + k})
    elif kind == "perturbed_basis":
        rng = np.random.default_rng(seed)
        for k in range(budget):
            row = rng.integers(0, basis.n_basis)
            coeffs = basis.coeffs[row] + 0.3 * rng.standard_normal(len(basis.exponents))
            yield (PolynomialFunction(basis.exponents, coeffs),
                   {"kind": "perturbed_basis", "row": int(row), "seed": seed + k})
    else:
        raise PreconditionError(f"unknown family kind {kind!r}")


def empirical_whitney_constant(dom, plan, dirset, r, p, family, budget=64, seed=0):
    """Max defined ratio over a sampled function family (a lower bound);
    ``family`` is ``"random_poly"`` or ``"perturbed_basis"``."""
    basis = build_basis(dom.dim, r, dirset)
    t = geo.diameter(dom, plan).value
    best = None
    witness = None
    n_defined = 0
    for f, spec in _family_functions(family, dom.dim, r, budget, seed, basis):
        ratio = whitney_ratio(f, dom, plan, dirset, basis, r, p, t=t)
        if ratio is None:
            continue
        n_defined += 1
        if best is None or ratio > best:
            best = ratio
            witness = {"function": spec, "ratio": ratio}
    if best is None:
        raise PreconditionError("no candidate produced a defined ratio")
    return WhitneyEstimate(
        lower_bound=float(best),
        theta=min(p, 1.0),
        witness=witness,
        params={"r": r, "p": ("inf" if math.isinf(p) else p),
                "n_dirs": len(dirset), "budget": budget, "seed": seed},
        n_defined=n_defined,
    )


@dataclass(frozen=True)
class ChainBound:
    value: float          # from the link-by-link recursion (primary); inf past float range
    closed_form: float    # cross-check
    theta: float
    n_links: int
    log2_value: float     # log2 of ``value``, finite where ``value`` overflows

    def __float__(self):
        return self.value


def chain_upper_bound(chain, w0, p):
    """Certified bound propagated through a verified chain.

    Both the link recursion w_k = 1 + 2^r w_{k-1} (in theta-power scale) and
    its closed form are computed; they must agree to 1e-12 relative.  Both run
    on the scaled u_k = w_k / 2^(k r), so long chains do not overflow: the
    bound is (2^(m r) u_m)^(1/theta), reported as ``inf`` with its finite
    ``log2_value`` when it leaves the float range.
    """
    if not chain.verified:
        raise PreconditionError("chain must pass verify_chain before certification")
    if not 0 <= w0 < math.inf:
        raise PreconditionError(f"w0 must be finite and nonnegative, got {w0}")
    theta = min(p, 1.0)
    r = chain.order
    m = chain.n_pieces - 1
    u = w0 ** theta
    for k in range(1, m + 1):
        u += 2.0 ** (-k * r)
    closed = w0 ** theta + (1.0 - 2.0 ** (-m * r)) / (2.0 ** r - 1.0)
    if abs(u - closed) > 1e-12 * max(abs(u), abs(closed)):
        raise ArithmeticError("chain bound recursion and closed form disagree")
    log2_value = (m * r + math.log2(u)) / theta if u > 0 else -math.inf
    return ChainBound(_unscale(u, m * r, theta), _unscale(closed, m * r, theta),
                      theta, m, log2_value)


def _unscale(u, e, theta):
    """(u 2^e)^(1/theta), inf when out of float range."""
    try:
        return math.ldexp(u, e) ** (1.0 / theta)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class CertificateRow:
    n: int
    modulus: float
    floor: float
    numeric_er: float


def chord_log_ratio(delta, eps):
    """ln rho: the log of the largest ratio of x.xi between the two ends of a
    chord of the cone {||x||(1-eps) <= x.xi} along a unit eta, eta.xi = 1-delta.

    With cos(alpha) = 1 - delta and cos(theta) = 1 - eps, write the chord as
    x.xi = s and x - (x.xi)xi = a + s tan(alpha) u, where u is the unit part of
    eta orthogonal to xi and a is orthogonal to xi. The chord ends are the
    roots of s^2 (tan^2 alpha - tan^2 theta) + 2 s tan(alpha) a.u + |a|^2 = 0,
    and their ratio rho satisfies rho + 1/rho + 2 = 4 tan^2(alpha) (a.u)^2 /
    (|a|^2 (tan^2 alpha - tan^2 theta)). This is largest when a is parallel to
    u, i.e. for the planar chord in span(xi, eta), in every dimension, where
    rho = (tan alpha + tan theta) / (tan alpha - tan theta). It is finite iff
    delta > eps, and the cap x.xi <= 1 only shortens chords.
    """
    if not 0.0 < eps < delta <= 1.0:
        raise PreconditionError(
            f"chord ratio needs 0 < eps={eps:.6g} < delta={delta:.6g} <= 1")
    tan_a = math.tan(math.acos(1.0 - delta))
    tan_t = math.tan(math.acos(1.0 - eps))
    return math.log((tan_a + tan_t) / (tan_a - tan_t))


@dataclass(eq=False)
class CertificateResult:
    rows: list
    margin_delta: float
    modulus_bounded: bool  # every modulus within 2^(r-1) ln rho(delta, eps)


def counterexample_certificate(d, xi, eps, dirset, r, n_list, density=8192,
                               seed=0):
    """Divergence table for the log-ridge family on the narrow cone body.

    Requires the direction margin max eta.xi <= 1 - delta with delta > eps.
    Per n the table reports the sampled modulus at p=inf, the analytic
    divergence floor (n - 2^(dr) ln(dr)) / 2^(dr), and the plan-exact minimax
    error, computed on a plan augmented with the axis stencil points so the
    floor is attained by every candidate approximant.

    The modulus column is bounded uniformly in n by 2^(r-1) ln rho(delta,
    eps) (see `chord_log_ratio`): f_n is a clipped, monotone function of
    log(x.xi), so on an in-body stencil along eta any two values differ by at
    most ln rho; the coefficients of Delta^r sum to 0 and their moduli to 2^r,
    so Delta^r telescopes into at most 2^(r-1) such first differences. rho
    only grows as delta shrinks, so the margin delta over +-E gives the bound
    for every direction.
    `modulus_bounded` reports whether every sampled row respects that bound.
    """
    if r < 1:
        raise PreconditionError(f"order r must be at least 1, got {r}")
    xi = np.asarray(xi, dtype=float).ravel()
    xi = xi / np.linalg.norm(xi)
    sym = dirset.symmetrized()
    margin = 1.0 - float(np.max(sym.dirs @ xi))
    if margin <= eps:
        raise PreconditionError(
            f"direction margin delta={margin:.6g} must exceed eps={eps:.6g}")
    K = geo.cone_body(xi, eps)
    dr = d * r
    stencil = np.array([j * xi / dr for j in range(dr + 1)])
    plan = geo.sample_plan(K, n_points=density, seed=seed, extra_points=stencil)
    basis = build_basis(d, r, dirset)
    t = geo.diameter(K).value
    rows = []
    for n in n_list:
        f = RidgeLog(int(n), xi)
        mod = set_modulus(f, K, plan, dirset, r, t, math.inf)
        floor = (n - (2.0 ** dr) * math.log(dr)) / (2.0 ** dr)
        er = best_approx(f, K, plan, basis, math.inf).error
        rows.append(CertificateRow(int(n), mod.value, floor, er))
    cap = 2.0 ** (r - 1) * chord_log_ratio(margin, eps)
    bounded = all(row.modulus <= cap + 1e-12 for row in rows)
    return CertificateResult(rows, margin, bounded)

"""Best L^p approximation from a polynomial basis on a sampled domain.

Solver ladder: weighted normal equations at p = 2, a linear program at
p = inf (exact on the plan), iteratively reweighted least squares for
1 <= p < inf, and damped reweighting with random restarts for the nonconvex
quasi-norm range 0 < p < 1, which is only ever reported as a local optimum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .errors import ConvergenceError, PreconditionError
from .modulus import lp_norm
from .polyspace import design_matrix

IRLS_MAX_ITER = 500
IRLS_TOL = 1e-9
IRLS_CLAMP = 1e-10
QUASINORM_RESTARTS = 32
QUASINORM_DAMPING = 0.5


@dataclass(eq=False)
class ApproxResult:
    coeffs: np.ndarray
    error: float
    status: str  # optimal | local_optimum | max_iter
    iterations: int
    p: float

    def spec(self):
        return {"coeffs": self.coeffs.tolist(), "error": self.error,
                "p": ("inf" if math.isinf(self.p) else self.p), "status": self.status}


def _check_rank(Phi, weights):
    W = np.sqrt(weights)[:, None] if weights is not None else 1.0
    rank = np.linalg.matrix_rank(W * Phi, tol=1e-10 * max(1.0, float(np.abs(Phi).max())))
    if rank < Phi.shape[1]:
        raise PreconditionError(
            "design matrix is rank deficient on this plan; use a denser plan")


def _weighted_lsq(Phi, fvals, w):
    sw = np.sqrt(w)
    sol, *_ = np.linalg.lstsq(sw[:, None] * Phi, sw * fvals, rcond=None)
    return sol


def _solve_inf(Phi, fvals):
    n, k = Phi.shape
    c = np.zeros(k + 1)
    c[k] = 1.0
    ones = np.ones((n, 1))
    A_ub = np.vstack([np.hstack([Phi, -ones]), np.hstack([-Phi, -ones])])
    b_ub = np.concatenate([fvals, -fvals])
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=[(None, None)] * (k + 1),
                  method="highs")
    if not res.success:
        raise ConvergenceError(f"minimax linear program failed: {res.message}")
    return res.x[:k]


def _irls(Phi, fvals, w, p, x0=None, damping=0.0, max_iter=IRLS_MAX_ITER):
    coeffs = _weighted_lsq(Phi, fvals, w) if x0 is None else x0.copy()
    it = 0
    converged = False
    obj_prev = lp_norm(fvals - Phi @ coeffs, w, p)
    stagnant = 0
    for it in range(1, max_iter + 1):
        res = fvals - Phi @ coeffs
        mag = np.maximum(np.abs(res), IRLS_CLAMP)
        w_irls = w * mag ** (p - 2.0)
        new = _weighted_lsq(Phi, fvals, w_irls)
        if damping > 0.0:
            new = damping * coeffs + (1.0 - damping) * new
        if np.linalg.norm(new - coeffs) <= IRLS_TOL * (1.0 + np.linalg.norm(coeffs)):
            coeffs = new
            converged = True
            break
        coeffs = new
        # clamped weights dither near interpolation points; a stagnant
        # objective is the convex-case optimality signal
        obj = lp_norm(fvals - Phi @ coeffs, w, p)
        stagnant = stagnant + 1 if abs(obj_prev - obj) <= 1e-12 * max(obj, 1e-30) \
            else 0
        obj_prev = obj
        if stagnant >= 3:
            converged = True
            break
    return coeffs, it, converged


def _solve(Phi, fvals, weights, p, seed=0):
    """Return (coeffs, status, iterations) for one design matrix."""
    _check_rank(Phi, weights)
    if p == 2.0:
        return _weighted_lsq(Phi, fvals, weights), "optimal", 1
    if math.isinf(p):
        return _solve_inf(Phi, fvals), "optimal", 1
    if p >= 1.0:
        # plain reweighting oscillates for p > 2; relax by 1/(p-1)
        damping = 0.0 if p <= 2.0 else 1.0 - 1.0 / (p - 1.0)
        coeffs, it, ok = _irls(Phi, fvals, weights, p, damping=damping)
        return coeffs, ("optimal" if ok else "max_iter"), it
    # quasi-norm range: damped reweighting from the p=1 solution plus restarts
    start, _, _ = _irls(Phi, fvals, weights, 1.0)
    rng = np.random.default_rng(seed)

    def objective(c):
        return lp_norm(fvals - Phi @ c, weights, p)

    best, it_total, _ = _irls(Phi, fvals, weights, p, x0=start,
                              damping=QUASINORM_DAMPING)
    best_val = objective(best)
    scale = np.linalg.norm(start) + 1e-12
    for _ in range(QUASINORM_RESTARTS):
        x0 = start + 0.1 * scale * rng.standard_normal(start.size)
        cand, it, _ = _irls(Phi, fvals, weights, p, x0=x0,
                            damping=QUASINORM_DAMPING, max_iter=100)
        it_total += it
        val = objective(cand)
        if val < best_val:
            best, best_val = cand, val
    return best, "local_optimum", it_total


def best_approx(f, dom, plan, basis, p, seed=0):
    """Best approximation of ``f`` from the basis span in L^p of the plan."""
    if len(plan) == 0:
        raise PreconditionError("empty sample plan")
    if basis.dim_space != dom.dim:
        raise PreconditionError("basis dimension does not match domain")
    Phi = design_matrix(basis, plan.points)
    fvals = np.asarray(f(plan.points), dtype=float)
    coeffs, status, iters = _solve(Phi, fvals, plan.weights, p, seed=seed)
    error = lp_norm(fvals - Phi @ coeffs, plan.weights, p)
    return ApproxResult(coeffs, float(error), status, iters, p)


"""Best L^p approximation from a polynomial basis on a sampled domain.

Solver ladder: weighted normal equations at p = 2, linear programs at p = inf
(constraint exchange) and p = 1 (the dual of discrete L1 approximation), both
exact on the plan, iteratively reweighted least squares for 1 < p < inf, and
damped reweighting from the p = 1 fit with random restarts for the nonconvex
quasi-norm range 0 < p < 1, which is only ever reported as a local optimum.

The reweighted fits are sensitive to rounding: a relative change of 1e-15 in
each least-squares solve moved the p = 0.5 error by up to 2.8e-4 relative (a
random quartic on a 4096-point plan). So a p < 1 result repeats bit for bit
only on the same numpy/LAPACK build, and the kernels here keep the bits of the
plain broadcast forms they replace.

The p = inf fit solves the minimax LP on an active set of plan points rather
than on all 2n rows. The LP has k + 1 unknowns, so its dual has k + 1
equality constraints and an optimal basic dual solution with at most k + 1
nonzero entries: for any k-dimensional space on a finite plan, the minimax
error on some k + 1 or fewer reference points equals the plan optimum (the
characterisation of a best approximation via an optimal LP vertex, or
Caratheodory's theorem). In 1-d under the Haar condition this is de la Vallee
Poussin's theorem, on which Remez's exchange algorithm rests; the flat spaces
here, such as {1, x, y, xy} in 2-d, do not meet that condition. Points
whose residual exceeds the subset optimum join the set until none is left
outside it, which makes the result exact on the whole plan (see
`_solve_inf`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .errors import ConvergenceError, PreconditionError
from .modulus import finite_values, lp_norm
from .polyspace import design_matrix

IRLS_MAX_ITER = 500
IRLS_TOL = 1e-9
IRLS_CLAMP = 1e-10
QUASINORM_RESTARTS = 32
QUASINORM_DAMPING = 0.5
LP_VALUE_MAX = 1e20  # HiGHS reads a bound this large as infinite
LP_MATRIX_MAX = 1e15  # HiGHS rejects a constraint-matrix entry this large


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


def _scaled_rows(sw, Phi):
    """sw[:, None] * Phi, column by column into a Fortran-ordered buffer: the
    same bits without numpy's inner loop over the short axis, in the order
    LAPACK copies its input to anyway."""
    A = np.empty(Phi.shape, order="F")
    for i in range(Phi.shape[1]):
        np.multiply(sw, Phi[:, i], out=A[:, i])
    return A


def _check_rank(Phi, weights):
    rank = np.linalg.matrix_rank(_scaled_rows(np.sqrt(weights), Phi),
                                 tol=1e-10 * max(1.0, float(np.abs(Phi).max())))
    if rank < Phi.shape[1]:
        raise PreconditionError(
            "design matrix is rank deficient on this plan; use a denser plan")


def _weighted_lsq(Phi, fvals, w):
    sw = np.sqrt(w)
    sol, *_ = np.linalg.lstsq(_scaled_rows(sw, Phi), sw * fvals, rcond=None)
    return sol


def _check_lp_scale(Phi, fvals, kind):
    """Refuse values and design entries that HiGHS cannot take (exit 2, not 3)."""
    big = float(np.max(np.abs(fvals)))
    if big >= LP_VALUE_MAX:
        raise PreconditionError(f"largest |f| on the plan is {big:.6g}; the {kind} "
                                f"linear program needs values below {LP_VALUE_MAX:.0e}")
    big = float(np.max(np.abs(Phi)))
    if big >= LP_MATRIX_MAX:
        raise PreconditionError(f"largest |design-matrix entry| on the plan is {big:.6g}; the "
                                f"{kind} linear program needs entries below {LP_MATRIX_MAX:.0e}")


def _solve_l1(Phi, fvals, w):
    """Coefficients c minimising sum_i w_i |fvals_i - (Phi c)_i|: the equality
    multipliers, negated, of the dual LP max fvals . v subject to Phi^T v = 0,
    |v_i| <= w_i (HiGHS; presolve costs these dense systems more than it saves)."""
    _check_lp_scale(Phi, fvals, "L1")
    res = linprog(-fvals, A_eq=Phi.T, b_eq=np.zeros(Phi.shape[1]),
                  bounds=np.column_stack([-w, w]), method="highs",
                  options={"presolve": False})
    if res.status != 0:
        raise ConvergenceError(f"L1 linear program failed: {res.message}")
    return -res.eqlin.marginals


def _minimax_lp(Phi, fvals):
    """Coefficients c minimising max_i |fvals_i - (Phi c)_i| over the rows given:
    the LP min t subject to -t <= fvals - Phi c <= t, solved by HiGHS."""
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


def _solve_inf(Phi, fvals):
    """Plan-exact minimax coefficients by constraint exchange.

    The minimax LP is solved on an active set S of plan points, starting with
    the m = 16(k + 1) points of largest least-squares residual (all of them
    when n <= m). After each solve, the up to m worst points outside S whose
    residual exceeds t, the largest residual the solution leaves on S, join S
    and the LP is solved again. The loop stops when no point outside S exceeds
    t. Then the solution is exact on the plan: dropping constraints cannot
    raise the optimum, so t is at most the plan optimum (up to the LP's own
    tolerance on S, which the full LP has too), and no plan residual exceeds
    t, so the plan error of the coefficients is t. Each round adds at least
    one point, so the loop ends, at the latest with S the whole plan.

    The LP has k + 1 unknowns (c, t), so its dual has an optimal basic
    solution with at most k + 1 nonzero entries: whatever the k-dimensional
    space, some k + 1 or fewer plan points carry the plan optimum. That is why
    S stays a few hundred rows where the full LP has 2n. The stop rule does
    not rely on it; exactness comes from the argument above.

    For a dual certificate: the final subset LP's dual, padded with zeros on
    the rows outside S, is feasible for the full-plan dual with the same
    objective.
    """
    _check_lp_scale(Phi, fvals, "minimax")
    n, k = Phi.shape
    m = 16 * (k + 1)
    lsq, *_ = np.linalg.lstsq(Phi, fvals, rcond=None)
    active = np.argsort(-np.abs(fvals - Phi @ lsq), kind="stable")[:m]
    while True:
        coeffs = _minimax_lp(Phi[active], fvals[active])
        resid = np.abs(fvals - Phi @ coeffs)
        t = resid[active].max()
        resid[active] = -np.inf
        # a NaN residual counts as over t, so linprog rejects it as on the full plan
        over = np.flatnonzero(~(resid <= t))
        if over.size == 0:
            return coeffs
        worst = over[np.argsort(-resid[over], kind="stable")[:m]]
        active = np.concatenate([active, worst])


def _irls(Phi, fvals, w, p, x0=None, damping=0.0, max_iter=IRLS_MAX_ITER):
    coeffs = _weighted_lsq(Phi, fvals, w) if x0 is None else x0.copy()
    it = 0
    converged = False
    # the residual of the current coefficients serves both the stagnation
    # test and the next weights
    res = fvals - Phi @ coeffs
    obj_prev = lp_norm(res, w, p)
    stagnant = 0
    for it in range(1, max_iter + 1):
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
        res = fvals - Phi @ coeffs
        obj = lp_norm(res, w, p)
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
    if p == 1.0:
        return _solve_l1(Phi, fvals, weights), "optimal", 1
    if p > 1.0:
        # plain reweighting oscillates for p > 2; relax by 1/(p-1)
        damping = 0.0 if p <= 2.0 else 1.0 - 1.0 / (p - 1.0)
        coeffs, it, ok = _irls(Phi, fvals, weights, p, damping=damping)
        return coeffs, ("optimal" if ok else "max_iter"), it
    # quasi-norm range: damped reweighting from the p=1 solution plus restarts
    start = _solve_l1(Phi, fvals, weights)
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
    fvals = finite_values(f, plan.points)
    Phi = design_matrix(basis, plan.points)
    coeffs, status, iters = _solve(Phi, fvals, plan.weights, p, seed=seed)
    error = lp_norm(fvals - Phi @ coeffs, plan.weights, p)
    if not math.isfinite(error):
        raise PreconditionError("approximation error is not finite: the residuals' norm "
                                "overflows")
    return ApproxResult(coeffs, float(error), status, iters, p)


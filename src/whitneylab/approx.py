"""Best L^p approximation from a polynomial basis on a sampled domain.

Solver ladder: weighted normal equations at p = 2, linear programs at p = inf
(constraint exchange) and p = 1 (the dual of discrete L1 approximation), both
exact on the plan, iteratively reweighted least squares for 1 < p < inf, and
vertex descent from the p = 1 fit for the nonconvex quasi-norm range
0 < p < 1, which is only ever reported as a local optimum (see `_solve`).

The descent moves between discrete vertices, so a rounding change moves its
result only if it changes a comparison: multiplying each coefficient of the
L1 start by 1 +- 1e-15 left the benchmark's p = 0.5 fits at seeds 1-8 on the
same bits.
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
VERTEX_WINDOW = 64  # breakpoints searched per line of the p < 1 descent
VERTEX_TOL = 1e-10  # relative gain below which the descent stops
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
    space, some k + 1 or fewer plan points carry the plan optimum (in 1-d
    under the Haar condition, de la Vallee Poussin's theorem, on which Remez's
    exchange rests; flat spaces such as {1, x, y, xy} in 2-d do not meet it).
    That is why S stays a few hundred rows where the full LP has 2n. The stop
    rule does not rely on it; exactness comes from the argument above.

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


def _irls(Phi, fvals, w, p):
    # plain reweighting oscillates for p > 2; relax by 1/(p-1)
    damping = 0.0 if p <= 2.0 else 1.0 - 1.0 / (p - 1.0)
    coeffs = _weighted_lsq(Phi, fvals, w)
    # the residual of the current coefficients serves both the stagnation
    # test and the next weights
    res = fvals - Phi @ coeffs
    obj_prev = lp_norm(res, w, p)
    stagnant = 0
    for it in range(1, IRLS_MAX_ITER + 1):
        mag = np.maximum(np.abs(res), IRLS_CLAMP)
        w_irls = w * mag ** (p - 2.0)
        new = _weighted_lsq(Phi, fvals, w_irls)
        if damping > 0.0:
            new = damping * coeffs + (1.0 - damping) * new
        if np.linalg.norm(new - coeffs) <= IRLS_TOL * (1.0 + np.linalg.norm(coeffs)):
            return new, it, True
        coeffs = new
        # clamped weights dither near interpolation points; a stagnant
        # objective is the convex-case optimality signal
        res = fvals - Phi @ coeffs
        obj = lp_norm(res, w, p)
        stagnant = stagnant + 1 if abs(obj_prev - obj) <= 1e-12 * max(obj, 1e-30) \
            else 0
        obj_prev = obj
        if stagnant >= 3:
            return coeffs, it, True
    return coeffs, IRLS_MAX_ITER, False


def _descend(Phi, fvals, w, p):
    """Vertex descent (see `_solve`) from the k plan points of smallest L1-fit
    residual whose rows are independent; returns (the final vertex in index
    order, the number of rounds)."""
    n, k = Phi.shape
    vertex = []
    for i in np.argsort(np.abs(fvals - Phi @ _solve_l1(Phi, fvals, w)), kind="stable"):
        if np.linalg.matrix_rank(Phi[vertex + [i]]) > len(vertex):
            vertex.append(int(i))
            if len(vertex) == k:
                break
    vertex.sort()  # a start that depends on the set alone
    buf = np.empty((VERTEX_WINDOW, n))
    rounds = 0
    while True:
        inv = np.linalg.inv(Phi[vertex])
        r = fvals - Phi @ (inv @ fvals[vertex])
        best = np.sum(w * np.abs(r) ** p) * (1.0 - VERTEX_TOL)
        move = None
        for j in range(k):
            a = Phi @ inv[:, j]
            # a row with a_i = 0 depends on the k - 1 kept rows
            live = np.setdiff1d(np.flatnonzero(a), vertex)
            s = r[live] / a[live]
            if live.size > VERTEX_WINDOW:
                near = np.argpartition(np.abs(s), VERTEX_WINDOW - 1)[:VERTEX_WINDOW]
                live, s = live[near], s[near]
            # one line at a time in a fixed buffer: each row the residual at a breakpoint
            vals = np.multiply(s[:, None], a, out=buf[:live.size])
            np.abs(np.subtract(r, vals, out=vals), out=vals)
            vals **= p
            vals *= w
            obj = vals.sum(axis=1)
            if obj.size and obj.min() < best:
                m = int(np.argmin(obj))
                best, move = obj[m], (j, int(live[m]))
        if move is None:
            return sorted(vertex), rounds
        vertex[move[0]] = move[1]
        rounds += 1


def _solve(Phi, fvals, weights, p):
    """Return (coeffs, status, iterations) for one design matrix.

    For 0 < p < 1, vertex descent. The objective sum_i w_i |r_i(c)|^p,
    r(c) = fvals - Phi c, is concave on each cell of the arrangement
    {r_i(c) = 0}, so every local minimum is a vertex: a c that interpolates
    fvals at k plan points with independent rows. And every vertex is one:
    near it the k zero residuals add terms of order |c - vertex|^p, which
    outgrow the first-order change of the others. Each round drops each of
    the k points in turn; c then moves on a line (a column of the inverse of
    those k rows), where the objective is concave between the breakpoints
    s_i = r_i / (Phi d)_i, so lowest at one of them: a neighbouring vertex.
    Of each line the VERTEX_WINDOW = 64 breakpoints nearest the vertex are
    searched (all n cost O(n^2) per line); the descent moves to the best
    vertex of the k lines until none gains more than VERTEX_TOL relative.
    The coefficients are solved from the final k rows alone.
    """
    _check_rank(Phi, weights)
    if p == 2.0:
        return _weighted_lsq(Phi, fvals, weights), "optimal", 1
    if math.isinf(p):
        return _solve_inf(Phi, fvals), "optimal", 1
    if p == 1.0:
        return _solve_l1(Phi, fvals, weights), "optimal", 1
    if p > 1.0:
        coeffs, it, ok = _irls(Phi, fvals, weights, p)
        return coeffs, ("optimal" if ok else "max_iter"), it
    vertex, rounds = _descend(Phi, fvals, weights, p)
    return np.linalg.solve(Phi[vertex], fvals[vertex]), "local_optimum", rounds


def best_approx(f, dom, plan, basis, p):
    """Best approximation of ``f`` from the basis span in L^p of the plan."""
    if len(plan) == 0:
        raise PreconditionError("empty sample plan")
    if basis.dim_space != dom.dim:
        raise PreconditionError("basis dimension does not match domain")
    fvals = finite_values(f, plan.points)
    Phi = design_matrix(basis, plan.points)
    coeffs, status, iters = _solve(Phi, fvals, plan.weights, p)
    error = lp_norm(fvals - Phi @ coeffs, plan.weights, p)
    if not math.isfinite(error):
        raise PreconditionError("approximation error is not finite: the residuals' norm "
                                "overflows")
    return ApproxResult(coeffs, float(error), status, iters, p)


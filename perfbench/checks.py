"""Reference computations that check whitneylab's outputs.

Nothing here imports whitneylab: every check recomputes what it needs with
numpy and scipy from the JSON inputs the benchmark wrote and the JSON outputs
the program produced. Each ``check_*`` function returns a list of problems,
empty when the output passes.

The pieces are:

- a membership evaluator and bounding boxes for the domain JSON forms
  (polytope, ball, cone_body, union, intersection, affine_image), and a
  rejection sampler;
- the sample plan of a domain, drawn from the documented random stream
  (``numpy.random.default_rng(seed)``, uniform batches of max(4n, 1024)
  points in the bounding box, the first n members kept, equal weights that
  sum to the Monte Carlo volume);
- best fits in the directionally flat spaces known in closed form:
  span{1, x, y, xy} for the two axes at r=2, the constants at r=1, and the
  affine functions for three pairwise independent planar directions at r=2;
  minimax and L1 fits are linear programs, L2 is weighted least squares;
- the shift-grid directional modulus (shifts t k / 64, k = 1..64);
- the chord bound ln rho(delta, eps) of the narrow-cone counterexample;
- the closed form of the chain bound.
"""
from __future__ import annotations

import itertools
import json
import math

import numpy as np
from scipy.optimize import linprog

PLAN_SLACK = 1e-12      # membership slack of plan points, times max(1, scale)
N_SHIFT = 64            # shift grid of the directional modulus
LP_REL_TOL = 1e-7       # two minimax LP solutions agree to this, relative
L1_LP_REL_TOL = 1e-9    # an L1 LP optimum is this close to the exact one
IRLS_REL_TOL = 1e-3     # IRLS at p=1 ends within this of the L1 optimum
L2_REL_TOL = 1e-9       # two least-squares fits agree to this, relative
CHAIN_SAMPLES = 128     # samples per chain piece
COVERAGE_SAMPLES = 20_000
CHAIN_TOL_REL = 1e-9    # shift-condition slack, relative to the target's scale


# ---------------------------------------------------------------------------
# domains
# ---------------------------------------------------------------------------

def polytope_vertices(A, b):
    """Vertices of the bounded polytope {x : A x <= b} by enumerating every
    choice of d active rows; an empty polytope has none."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, d = A.shape
    if m < d:
        return np.zeros((0, d))
    combos = np.array(list(itertools.combinations(range(m), d)))
    M = A[combos]
    ok = np.abs(np.linalg.det(M)) > 1e-12
    if not ok.any():
        return np.zeros((0, d))
    v = np.linalg.solve(M[ok], b[combos[ok]][..., None])[..., 0]
    scale = max(1.0, float(np.max(np.abs(b))))
    return v[np.all(v @ A.T <= b + 1e-9 * scale, axis=1)]


class Region:
    """Compiled domain JSON: ``contains(pts, slack)`` and a bounding box.

    ``slack`` widens the set by about that distance; ``bbox`` is a (2, d)
    array that contains the set, or None when the set is empty.
    """

    dim: int
    bbox: np.ndarray | None

    def contains(self, pts, slack=0.0):
        raise NotImplementedError

    def scale(self):
        if self.bbox is None:
            return 0.0
        return float(np.max(self.bbox[1] - self.bbox[0]))


class Polytope(Region):
    def __init__(self, A, b):
        self.A = np.atleast_2d(np.asarray(A, dtype=float))
        self.b = np.asarray(b, dtype=float).ravel()
        self.dim = self.A.shape[1]
        self.norms = np.linalg.norm(self.A, axis=1)
        self.vertices = polytope_vertices(self.A, self.b)
        self.bbox = (np.vstack([self.vertices.min(axis=0), self.vertices.max(axis=0)])
                     if len(self.vertices) else None)

    def contains(self, pts, slack=0.0):
        return np.all(pts @ self.A.T <= self.b + slack * self.norms, axis=1)


class Ball(Region):
    def __init__(self, center, radius):
        self.center = np.asarray(center, dtype=float).ravel()
        self.radius = float(radius)
        self.dim = self.center.size
        self.bbox = np.vstack([self.center - self.radius, self.center + self.radius])

    def contains(self, pts, slack=0.0):
        return np.linalg.norm(pts - self.center, axis=1) <= self.radius + slack


class ConeBody(Region):
    """{x : |x| (1 - eps) <= x.xi <= 1}: the hull of the apex 0 and the rim
    {x.xi = 1, |x| = 1 / (1 - eps)}."""

    def __init__(self, xi, eps):
        xi = np.asarray(xi, dtype=float).ravel()
        self.xi = xi / np.linalg.norm(xi)
        self.eps = float(eps)
        self.dim = self.xi.size
        rim = math.sqrt(1.0 / (1.0 - self.eps) ** 2 - 1.0)
        reach = rim * np.sqrt(np.maximum(0.0, 1.0 - self.xi ** 2))
        self.bbox = np.vstack([np.minimum(0.0, self.xi - reach),
                               np.maximum(0.0, self.xi + reach)])

    def contains(self, pts, slack=0.0):
        proj = pts @ self.xi
        nrm = np.linalg.norm(pts, axis=1)
        return (nrm * (1.0 - self.eps) <= proj + slack) & (proj <= 1.0 + slack)


class Union(Region):
    def __init__(self, parts):
        self.parts = parts
        self.dim = parts[0].dim
        boxes = [p.bbox for p in parts if p.bbox is not None]
        self.bbox = (np.vstack([np.min([bb[0] for bb in boxes], axis=0),
                                np.max([bb[1] for bb in boxes], axis=0)])
                     if boxes else None)

    def contains(self, pts, slack=0.0):
        out = np.zeros(len(pts), dtype=bool)
        for part in self.parts:
            rest = np.flatnonzero(~out)
            if rest.size == 0:
                break
            out[rest] = part.contains(pts[rest], slack)
        return out


class Intersection(Region):
    def __init__(self, parts):
        self.parts = parts
        self.dim = parts[0].dim
        if any(p.bbox is None for p in parts):
            self.bbox = None
        else:
            lo = np.max([p.bbox[0] for p in parts], axis=0)
            hi = np.min([p.bbox[1] for p in parts], axis=0)
            self.bbox = np.vstack([lo, hi]) if np.all(lo <= hi) else None

    def contains(self, pts, slack=0.0):
        out = np.ones(len(pts), dtype=bool)
        for part in self.parts:
            rest = np.flatnonzero(out)
            if rest.size == 0:
                break
            out[rest] = part.contains(pts[rest], slack)
        return out


class AffineImage(Region):
    """{M x + s : x in base}."""

    def __init__(self, base, matrix, shift):
        self.base = base
        self.matrix = np.asarray(matrix, dtype=float)
        self.shift = np.asarray(shift, dtype=float).ravel()
        self.inverse = np.linalg.inv(self.matrix)
        self.inv_norm = float(np.linalg.norm(self.inverse, 2))
        self.dim = base.dim
        if base.bbox is None:
            self.bbox = None
        else:
            lo, hi = base.bbox
            corners = np.array([np.where([(k >> i) & 1 for i in range(self.dim)], hi, lo)
                                for k in range(1 << self.dim)])
            img = corners @ self.matrix.T + self.shift
            self.bbox = np.vstack([img.min(axis=0), img.max(axis=0)])

    def contains(self, pts, slack=0.0):
        back = (pts - self.shift) @ self.inverse.T
        return self.base.contains(back, slack * self.inv_norm)


def compile_domain(spec):
    """Build a Region from a domain JSON object."""
    kind = spec["type"]
    if kind == "polytope":
        return Polytope(spec["A"], spec["b"])
    if kind == "ball":
        return Ball(spec["center"], spec["radius"])
    if kind == "cone_body":
        return ConeBody(spec["xi"], spec["eps"])
    if kind == "union":
        return Union([compile_domain(s) for s in spec["parts"]])
    if kind == "intersection":
        return Intersection([compile_domain(s) for s in spec["parts"]])
    if kind == "affine_image":
        return AffineImage(compile_domain(spec["base"]), spec["matrix"], spec["shift"])
    raise ValueError(f"unknown domain type {kind!r}")


def sample_in(region, n, rng):
    """Up to n uniform points of ``region`` by rejection from its bounding box;
    fewer (possibly none) when the region fills little of the box."""
    if region.bbox is None:
        return np.zeros((0, region.dim))
    lo, hi = region.bbox
    got = []
    n_got = 0
    for _ in range(40):
        pts = rng.uniform(lo, hi, size=(max(4 * n, 256), region.dim))
        pts = pts[region.contains(pts)]
        got.append(pts)
        n_got += len(pts)
        if n_got >= n:
            break
    return np.vstack(got)[:n]


def sample_plan(region, n_points, seed):
    """(points, weights) of the plan drawn from the documented stream."""
    rng = np.random.default_rng(seed)
    lo, hi = region.bbox
    slack = PLAN_SLACK * max(1.0, region.scale())
    batch = max(4 * n_points, 1024)
    accepted = []
    n_acc = n_prop = 0
    while n_acc < n_points:
        pts = rng.uniform(lo, hi, size=(batch, region.dim))
        got = pts[region.contains(pts, slack)]
        accepted.append(got)
        n_acc += len(got)
        n_prop += batch
    pts = np.vstack(accepted)[:n_points]
    vol = float(np.prod(hi - lo)) * n_acc / n_prop
    return pts, np.full(len(pts), vol / len(pts))


def diameter(region):
    """Exact diameter of a polytope (over its vertices) or a ball."""
    if isinstance(region, Polytope):
        v = region.vertices
        return float(np.max(np.linalg.norm(v[:, None, :] - v[None, :, :], axis=2)))
    if isinstance(region, Ball):
        return 2.0 * region.radius
    raise ValueError("diameter is only known in closed form for polytopes and balls")


# ---------------------------------------------------------------------------
# polynomials, flat spaces and fits
# ---------------------------------------------------------------------------

def graded_lex_exponents(dim, degree):
    """Multi-indices of total degree <= degree; within a degree the first
    coordinate's exponent decreases, recursively."""
    def fixed(d, total):
        if d == 1:
            return [(total,)]
        return [(first,) + rest for first in range(total, -1, -1)
                for rest in fixed(d - 1, total - first)]
    return np.array([e for tot in range(degree + 1) for e in fixed(dim, tot)],
                    dtype=int).reshape(-1, dim)


class Polynomial:
    """sum_i coeffs_i x^exps_i, evaluated from per-axis power tables."""

    def __init__(self, exponents, coeffs):
        self.exps = np.asarray(exponents, dtype=int)
        self.coeffs = np.asarray(coeffs, dtype=float).ravel()

    def __call__(self, pts):
        pts = np.atleast_2d(pts)
        top = int(self.exps.max()) if self.exps.size else 0
        powers = [pts[:, a, None] ** np.arange(top + 1) for a in range(pts.shape[1])]
        out = np.zeros(len(pts))
        for e, c in zip(self.exps, self.coeffs):
            term = np.full(len(pts), c)
            for a, k in enumerate(e):
                if k:
                    term = term * powers[a][:, k]
            out += term
        return out


def random_polynomial(degree, seed, dim):
    """The polynomial a ``random_poly`` spec names: standard normal
    coefficients from default_rng(seed) on the graded-lex exponents."""
    exps = graded_lex_exponents(dim, degree)
    return Polynomial(exps, np.random.default_rng(seed).standard_normal(len(exps)))


def flat_basis(dirs, r):
    """Design-matrix builder of the flat space in closed form, for the cases
    the workloads use; raises for any other direction set."""
    dirs = np.asarray(dirs, dtype=float)
    dirs = dirs / np.linalg.norm(dirs, axis=1)[:, None]
    k, d = dirs.shape
    if np.linalg.matrix_rank(dirs, tol=1e-10) < d:
        raise ValueError("directions do not span")
    if r == 1:
        return lambda pts: np.ones((len(pts), 1))
    if r == 2 and d == 2:
        axes = {tuple(np.round(np.abs(v), 15)) for v in dirs}
        if axes == {(1.0, 0.0), (0.0, 1.0)}:
            return lambda pts: np.column_stack(
                [np.ones(len(pts)), pts[:, 0], pts[:, 1], pts[:, 0] * pts[:, 1]])
        cross = np.abs(dirs[:, None, 0] * dirs[None, :, 1] - dirs[:, None, 1] * dirs[None, :, 0])
        if k >= 3 and np.all(cross[np.triu_indices(k, 1)] > 1e-9):
            return lambda pts: np.column_stack([np.ones(len(pts)), pts])
    raise ValueError(f"no closed-form flat space for {k} directions in R^{d} at r={r}")


def lp_norm(v, w, p):
    v = np.abs(np.asarray(v, dtype=float))
    if math.isinf(p):
        return float(v.max()) if v.size else 0.0
    return float(np.sum(w * v ** p) ** (1.0 / p))


def fit_minimax(Phi, f):
    """min_c max_i |f_i - (Phi c)_i| by a linear program; returns the error."""
    n, k = Phi.shape
    one = np.ones((n, 1))
    cost = np.zeros(k + 1)
    cost[k] = 1.0
    res = linprog(cost, A_ub=np.block([[Phi, -one], [-Phi, -one]]),
                  b_ub=np.concatenate([f, -f]), bounds=[(None, None)] * (k + 1),
                  method="highs")
    if not res.success:
        raise ArithmeticError(f"minimax LP failed: {res.message}")
    return float(np.max(np.abs(f - Phi @ res.x[:k])))


def fit_l1(Phi, f, w):
    """min_c sum_i w_i |f_i - (Phi c)_i|, through the dual linear program
    max f.y subject to Phi^T y = 0 and |y_i| <= w_i, whose equality
    multipliers are -c."""
    res = linprog(-f, A_eq=Phi.T, b_eq=np.zeros(Phi.shape[1]),
                  bounds=np.column_stack([-w, w]), method="highs")
    if not res.success:
        raise ArithmeticError(f"L1 LP failed: {res.message}")
    return lp_norm(f + Phi @ res.eqlin.marginals, w, 1.0)


def fit_l2(Phi, f, w):
    sw = np.sqrt(w)
    c, *_ = np.linalg.lstsq(sw[:, None] * Phi, sw * f, rcond=None)
    return lp_norm(f - Phi @ c, w, 2.0)


def best_fit(Phi, f, w, p):
    if math.isinf(p):
        return fit_minimax(Phi, f)
    if p == 1.0:
        return fit_l1(Phi, f, w)
    if p == 2.0:
        return fit_l2(Phi, f, w)
    raise ValueError(f"no reference fit at p={p}")


# ---------------------------------------------------------------------------
# directional modulus
# ---------------------------------------------------------------------------

def grid_modulus(f, region, pts, w, dirs, r, t, p):
    """max over the listed directions and the shifts u = t k / N_SHIFT of the
    L^p norm of the r-th forward difference, over the plan points whose whole
    stencil stays in the domain. Returns (value, max |f| over every point
    evaluated)."""
    slack = PLAN_SLACK * max(1.0, region.scale())
    binom = [math.comb(r, j) for j in range(r + 1)]
    best = 0.0
    fmax = float(np.max(np.abs(f(pts))))
    for xi in np.asarray(dirs, dtype=float):
        xi = xi / np.linalg.norm(xi)
        for u in t * np.arange(1, N_SHIFT + 1) / N_SHIFT:
            h = u * xi
            ok = np.ones(len(pts), dtype=bool)
            for j in range(1, r + 1):
                ok &= region.contains(pts + j * h, slack)
            if not ok.any():
                continue
            base = pts[ok]
            acc = np.zeros(len(base))
            for j in range(r + 1):
                vals = f(base + j * h)
                fmax = max(fmax, float(np.max(np.abs(vals))))
                acc += (-1.0 if (r + j) % 2 else 1.0) * binom[j] * vals
            best = max(best, lp_norm(acc, w[ok], p))
    return best, fmax


def chord_log_ratio(delta, eps):
    """ln rho(delta, eps): rho = (tan a + tan t) / (tan a - tan t) with
    cos a = 1 - delta and cos t = 1 - eps, the largest ratio of x.xi between
    the two ends of a chord of the cone {|x| (1 - eps) <= x.xi} along a unit
    direction at angle a from xi."""
    if not 0.0 < eps < delta <= 1.0:
        raise ValueError("need 0 < eps < delta <= 1")
    ta = math.tan(math.acos(1.0 - delta))
    tt = math.tan(math.acos(1.0 - eps))
    return math.log((ta + tt) / (ta - tt))


def chain_bound_closed_form(m, r, w0, p):
    """(2^{mr} w0^theta + (2^{mr} - 1) / (2^r - 1))^{1/theta}, theta = min(p, 1),
    for a chain of m links."""
    theta = min(p, 1.0)
    g = 2.0 ** (m * r)
    return (g * w0 ** theta + (g - 1.0) / (2.0 ** r - 1.0)) ** (1.0 / theta)


def counterexample_floor(n, d, r):
    dr = d * r
    return (n - 2.0 ** dr * math.log(dr)) / 2.0 ** dr


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def parse_p(text):
    return math.inf if str(text).lower() in ("inf", "infinity") else float(text)


class RatioPlan:
    """The inputs of whitney-estimate and report that every witness shares:
    the domain, its plan, its diameter and the direction set."""

    def __init__(self, domain_spec, dirs, density, seed):
        self.region = compile_domain(domain_spec)
        self.pts, self.w = sample_plan(self.region, density, seed)
        self.t = diameter(self.region)
        self.dirs = np.asarray(dirs, dtype=float)


def check_ratio(rp, r, p, lower_bound, witness_spec):
    """A witness ratio err/mod of the estimate, rechecked on the same plan.

    err is refitted in the closed-form flat space; the modulus it implies,
    err / ratio, must reach the shift-grid value (the program refines the
    grid at p=inf, so it may exceed it there, and equals it at p<inf), and
    cannot exceed 2^r times the norm of f.
    """
    problems = []
    if not (math.isfinite(lower_bound) and lower_bound > 0.0):
        return [f"lower_bound {lower_bound!r} is not positive and finite"]
    if witness_spec.get("kind") != "random_poly":
        return [f"unexpected witness {witness_spec!r}"]
    d = rp.pts.shape[1]
    f = random_polynomial(witness_spec["degree"], witness_spec["seed"], d)
    fv = f(rp.pts)
    err = best_fit(flat_basis(rp.dirs, r)(rp.pts), fv, rp.w, p)
    grid, fmax = grid_modulus(f, rp.region, rp.pts, rp.w, rp.dirs, r, rp.t, p)
    implied = err / lower_bound
    tol = LP_REL_TOL if math.isinf(p) else IRLS_REL_TOL
    if implied < grid * (1.0 - tol):
        problems.append(f"r={r} p={p}: implied modulus {implied:.12g} is below the "
                        f"grid modulus {grid:.12g}")
    if not math.isinf(p) and implied > grid * (1.0 + LP_REL_TOL):
        problems.append(f"r={r} p={p}: implied modulus {implied:.12g} is above the "
                        f"unrefined grid modulus {grid:.12g}")
    cap = 2.0 ** r * fmax * (1.0 if math.isinf(p) else float(np.sum(rp.w)) ** (1.0 / p))
    if implied > cap:
        problems.append(f"r={r} p={p}: implied modulus {implied:.12g} exceeds "
                        f"2^r |f| = {cap:.12g}")
    return problems


def check_whitney_estimate(rp, r, p, payload):
    w = payload["witness"]
    problems = []
    if payload["n_defined"] < 1:
        problems.append("no defined ratio")
    if w["ratio"] != payload["lower_bound"]:
        problems.append("witness ratio differs from lower_bound")
    return problems + check_ratio(rp, r, p, payload["lower_bound"], w["function"])


def check_report(rp, r_list, p_list, payload):
    rows = payload["rows"]
    want = [(r, p) for r in r_list for p in p_list]
    got = [(row["r"], row["p"]) for row in rows]
    if got != want:
        return [f"report rows {got} differ from the grid {want}"]
    problems = []
    for row in rows:
        problems += check_ratio(rp, row["r"], parse_p(row["p"]), row["lower_bound"],
                                json.loads(row["witness_spec"]))
    return problems


def check_chain(chain, payload, rng, listed_dirs=None):
    """Shift condition, shift directions and coverage of a decomposition chain.

    Every piece is sampled here; each sample shifted back by j h (j = 1..r)
    must lie in an earlier piece, within CHAIN_TOL_REL of the domain scale. Every
    shift must be parallel to a listed direction (the chain's own list, and
    +-``listed_dirs`` when given). Samples of the target must miss the union
    of the pieces at a rate of at most 1e-3.
    """
    problems = []
    pieces = [compile_domain(s) for s in chain["pieces"]]
    target = compile_domain(chain["target"])
    r = int(chain["r"])
    shifts = np.asarray(chain["shifts"], dtype=float).reshape(-1, target.dim)
    if payload["n_pieces"] != len(pieces) or len(shifts) != len(pieces) - 1:
        problems.append("piece and shift counts disagree")
        return problems
    if payload["verified"] is not True or payload["worst_violation"] != 0.0:
        problems.append("the program's own verification failed")
    tol = CHAIN_TOL_REL * target.scale()

    dirs = np.asarray(chain["dirs"], dtype=float)
    lists = [dirs]
    if listed_dirs is not None:
        ld = np.asarray(listed_dirs, dtype=float)
        lists.append(np.vstack([ld, -ld]))
    for h in shifts:
        u = h / np.linalg.norm(h)
        for lst in lists:
            lst = lst / np.linalg.norm(lst, axis=1)[:, None]
            if np.max(lst @ u) < 1.0 - 1e-12:
                problems.append(f"shift {h.tolist()} is not along a listed direction")
                break

    boxes = np.array([p.bbox if p.bbox is not None else np.full((2, target.dim), np.nan)
                      for p in pieces])

    def in_union(idx_desc, q):
        """Membership of q in the union of pieces idx_desc (checked in order)."""
        inside = np.zeros(len(q), dtype=bool)
        qlo, qhi = q.min(axis=0) - tol, q.max(axis=0) + tol
        for i in idx_desc:
            lo, hi = boxes[i]
            if not (np.all(lo <= qhi) and np.all(hi >= qlo)):
                continue
            rest = np.flatnonzero(~inside)
            if rest.size == 0:
                break
            sub = q[rest]
            near = np.all((sub >= lo - tol) & (sub <= hi + tol), axis=1)
            if near.any():
                hit = rest[near]
                inside[hit] = pieces[i].contains(q[hit], tol)
        return inside

    n_bad = 0
    for k in range(1, len(pieces)):
        pts = sample_in(pieces[k], CHAIN_SAMPLES, rng)
        if len(pts) == 0:
            continue
        for j in range(1, r + 1):
            ok = in_union(range(k - 1, -1, -1), pts - j * shifts[k - 1])
            if not ok.all():
                n_bad += 1
                if n_bad <= 3:
                    problems.append(f"piece {k}: {int((~ok).sum())} samples shifted back "
                                    f"{j} steps leave the earlier pieces")
    tpts = sample_in(target, COVERAGE_SAMPLES, rng)
    miss = 1.0 - float(in_union(range(len(pieces) - 1, -1, -1), tpts).mean())
    if miss > 1e-3:
        problems.append(f"coverage misses {miss:.4g} of the target")
    return problems


def check_verify_chain(payload):
    if payload.get("ok") is not True or payload.get("worst_violation") != 0.0 \
            or not payload.get("n_sampled", 0) > 0:
        return [f"verify-chain did not pass: {payload!r:.200}"]
    return []


def check_chain_bound(chain, w0, p, payload):
    want = chain_bound_closed_form(len(chain["pieces"]) - 1, int(chain["r"]), w0, p)
    if _rel(payload["value"], want) > 1e-12:
        return [f"chain bound {payload['value']!r} differs from the closed form {want!r}"]
    return []


def check_counterexample(d, r, eps, n_list, dirs, xi, payload):
    """Rows of the narrow-cone certificate against the chord bound and floor."""
    problems = []
    xi = np.asarray(xi, dtype=float) / np.linalg.norm(xi)
    E = np.asarray(dirs, dtype=float)
    E = E / np.linalg.norm(E, axis=1)[:, None]
    delta = 1.0 - float(np.max(np.abs(E @ xi)))
    cap = 2.0 ** (r - 1) * chord_log_ratio(delta, eps)
    rows = {row["n"]: row for row in payload["rows"]}
    if sorted(rows) != sorted(n_list):
        return [f"rows {sorted(rows)} differ from n = {n_list}"]
    if _rel(payload["margin_delta"], delta) > 1e-12:
        problems.append(f"margin {payload['margin_delta']!r} differs from {delta!r}")
    for n, row in rows.items():
        if not 0.0 <= row["modulus"] <= cap + 1e-12:
            problems.append(f"n={n}: modulus {row['modulus']!r} outside [0, {cap!r}]")
        floor = counterexample_floor(n, d, r)
        if abs(row["floor"] - floor) > 1e-12 * max(1.0, abs(floor)):
            problems.append(f"n={n}: floor {row['floor']!r} differs from {floor!r}")
        if row["numeric_er"] < floor - 1e-6:
            problems.append(f"n={n}: numeric_Er {row['numeric_er']!r} below the floor")
    if 64 in rows and 256 in rows and _rel(rows[64]["modulus"], rows[256]["modulus"]) > 1e-9:
        problems.append("the n=64 and n=256 modulus rows do not agree")
    return problems


def check_approx(region, pts, w, f, dirs, r, p, payload):
    """Best-approximation error against the reference fit on the same plan."""
    fv = f(pts)
    err = payload["error"]
    if p == 0.5:
        norm = lp_norm(fv, w, 0.5)
        problems = [] if 0.0 < err <= norm else \
            [f"p=0.5: error {err!r} outside (0, |f|_0.5 = {norm!r}]"]
        if payload["status"] != "local_optimum":
            problems.append(f"p=0.5: status {payload['status']!r}")
        return problems
    ref = best_fit(flat_basis(dirs, r)(pts), fv, w, p)
    if math.isinf(p) and _rel(err, ref) > LP_REL_TOL:
        return [f"p=inf: error {err!r} differs from the minimax fit {ref!r}"]
    if p == 2.0 and _rel(err, ref) > L2_REL_TOL:
        return [f"p=2: error {err!r} differs from the least-squares fit {ref!r}"]
    if p == 1.0 and not ref * (1.0 - L1_LP_REL_TOL) <= err <= ref * (1.0 + IRLS_REL_TOL):
        return [f"p=1: error {err!r} not within IRLS tolerance above the L1 optimum {ref!r}"]
    return []

"""Compact domains, direction sets, sample plans, and convex-geometry queries.

Domains are immutable descriptions (half-space polytopes, balls, capped norm
cones, unions, intersections, affine images) paired with a bounding box.  All
membership queries accept a single point ``(d,)`` or a batch ``(n, d)`` and
are deterministic.

The sampling and membership kernels run along the long point axis, never
along the short coordinate axis, and give the same bits as the row-wise
formulas they replace:

- a polytope ANDs one row of ``A @ pts.T`` per half-space;
- balls and cone bodies subtract the center and sum the squared norms
  column by column (``_row_norms``);
- an affine image maps points back column by column (``_translate``), and a
  diagonal inverse (every image the constructions build is one) scales the
  columns in place instead of a matmul;
- an intersection tests its flattened leaves on every point and its unions
  last; unions and intersections gather survivors with ``np.take``;
- ``rejection_sample`` (the one rejection sampler: sample plans and every
  chain sample) maps ``rng.random`` columns in place to the bits of
  ``rng.uniform(lo, hi)`` and keeps members with ``np.compress``.  It has two
  stopping rules.  ``sample_plan`` tests whole batches, because its volume
  estimate is accepted / proposed over whole batches.  The chain samples
  (``stop_at_n``) test each batch in chunks sized from the acceptance seen
  so far and stop at the n-th member; the stream continues across chunks,
  so the points are the bits of the whole-batch sample;
- ``ray_march`` (the one sampled ray march) builds its probes coordinate by
  coordinate.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.optimize import linprog, minimize

from .errors import PreconditionError

MEMBERSHIP_SLACK = 1e-12
BOUNDARY_TOL = 1e-8  # relative to bbox scale
RAY_SAMPLES = 10_000
UNIT_TOL = 1e-12


def _as_points(x, dim):
    """Coerce to an (n, d) float array; returns (array, was_single)."""
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 1:
        if pts.shape[0] != dim:
            raise PreconditionError(f"point has dim {pts.shape[0]}, domain has dim {dim}")
        return pts[None, :], True
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise PreconditionError(f"expected points of dim {dim}, got shape {pts.shape}")
    return pts, False


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------
# Each answers member(pts, slack), violation(pts) (a lower bound of the
# distance to the set, 0 on members) and spec(), and where it has exact answers
# vertices, diameter(), signed_distance(pts), boundary(x, tol) -> (flag,
# outward normals or None), anchor() (an interior point) and, for convex sets,
# exit_distance(pts, xi, slack): per member point x, the largest u >= 0 with
# x + u xi a member within ``slack``; None means none.  member is
# coordinate-major, as the module docstring says.

def _translate(pts, v):
    """pts + v for an (n, d) batch and a (d,) offset, column by column: the
    bits of the broadcast, without numpy's inner loop over the short axis."""
    out = np.empty_like(pts)
    for i in range(pts.shape[1]):
        np.add(pts[:, i], v[i], out=out[:, i])
    return out


def _row_norms(v, center=None):
    """np.linalg.norm(v - center, axis=1) (center 0 when None), with the
    difference and the squares summed column by column; the same bits up to
    d = 7, past which numpy sums pairwise and is called instead."""
    if v.shape[1] >= 8:
        return np.linalg.norm(v if center is None else v - center, axis=1)
    if center is None:
        sq = v[:, 0] * v[:, 0]
        for i in range(1, v.shape[1]):
            sq += v[:, i] * v[:, i]
        return np.sqrt(sq)
    col = v[:, 0] - center[0]  # one buffer for every column's difference
    sq = col * col
    for i in range(1, v.shape[1]):
        np.subtract(v[:, i], center[i], out=col)
        col *= col
        sq += col
    return np.sqrt(sq, out=sq)


class _Rep:
    vertices = None

    def diameter(self):
        if self.vertices is None:
            return None
        if len(self.vertices) == 0:
            raise PreconditionError("empty domain has no diameter")
        return _max_pairwise(self.vertices)

    def signed_distance(self, pts):
        return None

    def boundary(self, x, tol):
        return None

    def anchor(self):
        return None

    def exit_distance(self, pts, xi, slack):
        return None

    def violation(self, pts):
        return np.maximum(self.signed_distance(pts), 0.0)


def _exit_root(a, beta, gamma):
    """(sqrt(beta^2 - a gamma) - beta) / a, in the form that does not cancel: the
    root of a u^2 + 2 beta u + gamma where a member (gamma <= 0) leaves the set
    {q <= 0}, the larger root for a > 0 and the smaller for a < 0. Where
    a <= 0 the caller screens negative, infinite and NaN results."""
    disc = np.sqrt(np.maximum(beta * beta - a * gamma, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(beta > 0.0, -gamma / (beta + disc), (disc - beta) / a)


@dataclass(eq=False)
class PolytopeRep(_Rep):
    """Half-space intersection {x : A x <= b}."""
    A: np.ndarray
    b: np.ndarray

    def member(self, pts, slack):
        if self.A.shape[0] == 0:
            return np.zeros(len(pts), dtype=bool)
        return np.logical_and.reduce(self.A @ pts.T <= (self.b + slack)[:, None], axis=0)

    def spec(self):
        return {"type": "polytope", "A": self.A.tolist(), "b": self.b.tolist()}

    @cached_property
    def vertices(self):
        return _polytope_vertices(self.A, self.b)

    def signed_distance(self, pts):
        norms = np.maximum(np.linalg.norm(self.A, axis=1), 1e-300)
        return np.max((pts @ self.A.T - self.b) / norms, axis=1)

    def boundary(self, x, tol):
        res = self.A @ x - self.b
        norms = np.linalg.norm(self.A, axis=1)
        active = np.abs(res) <= tol * np.maximum(norms, 1e-300)
        return bool(active.any()), self.A[active]

    def anchor(self):
        return _chebyshev_ball(self.A, self.b)[0]

    def exit_distance(self, pts, xi, slack):
        rate = self.A @ xi
        ahead = rate > 0  # the rows a . xi <= 0 never bind for a member
        if not ahead.any():
            return np.full(len(pts), np.inf)
        room = self.b[ahead] + slack - pts @ self.A[ahead].T
        return np.min(room / rate[ahead], axis=1)


@dataclass(eq=False)
class BallRep(_Rep):
    center: np.ndarray
    radius: float

    def member(self, pts, slack):
        return _row_norms(pts, self.center) <= self.radius + slack

    def spec(self):
        return {"type": "ball", "center": self.center.tolist(), "radius": self.radius}

    def diameter(self):
        return 2.0 * self.radius

    def signed_distance(self, pts):
        return _row_norms(pts, self.center) - self.radius

    def boundary(self, x, tol):
        return (abs(np.linalg.norm(x - self.center) - self.radius) <= tol,
                (x - self.center)[None, :])

    def anchor(self):
        return self.center.copy()

    def exit_distance(self, pts, xi, slack):
        rel = pts - self.center
        return _exit_root(float(xi @ xi), rel @ xi,
                          np.einsum("ij,ij->i", rel, rel) - (self.radius + slack) ** 2)


@dataclass(eq=False)
class ConeBodyRep(_Rep):
    """Capped norm cone {x : ||x|| (1 - eps) <= x . xi <= 1}."""
    xi: np.ndarray
    eps: float

    def member(self, pts, slack):
        proj = pts @ self.xi
        nrm = _row_norms(pts)
        return (nrm * (1.0 - self.eps) <= proj + slack) & (proj <= 1.0 + slack)

    def spec(self):
        return {"type": "cone_body", "xi": self.xi.tolist(), "eps": self.eps}

    def diameter(self):
        # rim diameter or apex-to-rim slant
        rim_rho = math.sqrt(1.0 / (1.0 - self.eps) ** 2 - 1.0)
        return max(2.0 * rim_rho, 1.0 / (1.0 - self.eps))

    def violation(self, pts):
        proj = pts @ self.xi
        nrm = _row_norms(pts)
        excess = np.maximum(nrm * (1.0 - self.eps) - proj, 0.0) / 2.0
        return np.maximum(np.maximum(excess, proj - 1.0), 0.0)

    def boundary(self, x, tol):
        proj = float(x @ self.xi)
        on_cone = abs(float(np.linalg.norm(x)) * (1.0 - self.eps) - proj) <= tol
        return abs(proj - 1.0) <= tol or on_cone, None

    def exit_distance(self, pts, xi, slack):
        # along y = x + u xi, with s = xi . axis: the cap binds when s > 0; the
        # lateral constraint k ||y|| <= y . axis + slack, squared, is a quadratic
        # in u; it never binds when xi lies in the opening (s >= k |xi|), and
        # for s < 0 it is violated once y . axis + slack < 0
        k2 = (1.0 - self.eps) ** 2
        proj = pts @ self.xi
        s = float(xi @ self.xi)
        ee = float(xi @ xi)
        out = np.full(len(pts), np.inf)
        if s > 0.0:
            out = (1.0 + slack - proj) / s
        if s * s < k2 * ee or s < 0.0:
            lift = proj + slack
            root = _exit_root(k2 * ee - s * s, k2 * (pts @ xi) - lift * s,
                              k2 * np.einsum("ij,ij->i", pts, pts) - lift * lift)
            if s < 0.0:
                root = np.minimum(np.where(root >= 0.0, root, np.inf), lift / -s)
            out = np.minimum(out, root)
        return out


@dataclass(eq=False)
class UnionRep(_Rep):
    parts: tuple

    def member(self, pts, slack):
        out = np.zeros(len(pts), dtype=bool)
        for part in self.parts:
            rem = (~out).nonzero()[0]
            if rem.size == 0:
                break
            out[rem] = part.rep.member(np.take(pts, rem, axis=0), slack)
        return out

    def violation(self, pts):
        return np.min([p.rep.violation(pts) for p in self.parts], axis=0)

    def spec(self):
        return {"type": "union", "parts": [p.spec() for p in self.parts]}


@dataclass(eq=False)
class IntersectionRep(_Rep):
    parts: tuple

    @cached_property
    def _leaves(self):
        """(plain, unions): the reps of the parts, nested intersections
        flattened, with the unions apart in order."""
        flat = []
        for part in self.parts:
            rep = part.rep
            if isinstance(rep, IntersectionRep):
                flat.extend(rep._leaves[0] + rep._leaves[1])
            else:
                flat.append(rep)
        unions = tuple(rep for rep in flat if isinstance(rep, UnionRep))
        return tuple(rep for rep in flat if not isinstance(rep, UnionRep)), unions

    def member(self, pts, slack):
        plain, unions = self._leaves
        out = np.ones(len(pts), dtype=bool)
        for rep in plain:
            out &= rep.member(pts, slack)
        for rep in unions:
            rem = out.nonzero()[0]
            if rem.size == 0:
                break
            out[rem] = rep.member(np.take(pts, rem, axis=0), slack)
        return out

    def violation(self, pts):
        return np.max([p.rep.violation(pts) for p in self.parts], axis=0)

    def spec(self):
        return {"type": "intersection", "parts": [p.spec() for p in self.parts]}

    def exit_distance(self, pts, xi, slack):
        dists = [p.rep.exit_distance(pts, xi, slack) for p in self.parts]
        return None if any(d is None for d in dists) else np.min(dists, axis=0)


@dataclass(eq=False)
class AffineImageRep(_Rep):
    """Image of ``base`` under x -> matrix @ x + shift (matrix invertible)."""
    base: "Domain"
    matrix: np.ndarray
    shift: np.ndarray
    inverse: np.ndarray

    @cached_property
    def _singular_values(self):
        return np.linalg.svd(self.matrix, compute_uv=False)

    @cached_property
    def _inverse_diagonal(self):
        """The diagonal of ``inverse`` if it has no other nonzero entry, else None."""
        diag = np.diagonal(self.inverse).copy()
        return diag if np.count_nonzero(self.inverse) == np.count_nonzero(diag) else None

    def _back(self, pts):
        """(pts - shift) @ inverse.T with the difference taken column by column.
        A diagonal inverse scales the columns in place: the matmul's other
        products are exact zeros, so the bits are the same (an exact zero may
        differ in sign, which no comparison or norm sees)."""
        back = _translate(pts, -self.shift)
        diag = self._inverse_diagonal
        if diag is None:
            return back @ self.inverse.T
        for i in range(back.shape[1]):
            back[:, i] *= diag[i]
        return back

    def member(self, pts, slack):
        return self.base.rep.member(self._back(pts),
                                    slack / max(1.0, float(self._singular_values[0])))

    def violation(self, pts):
        return float(self._singular_values[-1]) * self.base.rep.violation(self._back(pts))

    def spec(self):
        return {"type": "affine_image", "base": self.base.spec(),
                "matrix": self.matrix.tolist(), "shift": self.shift.tolist()}

    @cached_property
    def vertices(self):
        base = self.base.rep.vertices
        return None if base is None else base @ self.matrix.T + self.shift

    def diameter(self):
        if isinstance(self.base.rep, BallRep):
            return 2.0 * self.base.rep.radius * float(self._singular_values[0])
        return super().diameter()


@dataclass(eq=False)
class Domain:
    """A compact subset of R^d with a guaranteed axis-aligned bounding box."""
    dim: int
    rep: _Rep
    bbox: np.ndarray  # (2, d): [lo, hi]

    # -- queries ------------------------------------------------------------

    def contains(self, x, slack=None):
        """Membership; true for points of the represented closed set."""
        pts, single = _as_points(x, self.dim)
        if not np.all(np.isfinite(pts)):
            raise PreconditionError("membership query requires finite coordinates")
        out = self.rep.member(pts, self._slack() if slack is None else slack)
        return bool(out[0]) if single else out

    def exit_distance(self, x, xi):
        """Per member point x, the largest u >= 0 with x + u xi in the domain
        (within the membership slack), or None where the representation has
        no closed form.  For a convex domain the points x + j u xi, j = 1..r,
        all belong to it iff r u <= exit_distance."""
        pts, _ = _as_points(x, self.dim)
        return self.rep.exit_distance(pts, np.asarray(xi, dtype=float).ravel(),
                                      self._slack())

    def strictly_inside(self, x, margin=None):
        return self.contains(x, slack=-(margin if margin is not None else 1e-9 * self.scale()))

    def scale(self):
        ext = self.bbox[1] - self.bbox[0]
        return float(max(np.max(ext), 1e-300))

    def _slack(self):
        return MEMBERSHIP_SLACK * max(1.0, self.scale())

    def vertices(self):
        """Vertex list for polytope-backed domains (enumerated once)."""
        if self.rep.vertices is None:
            raise PreconditionError("vertices only available for polytope domains")
        return self.rep.vertices

    def spec(self):
        """JSON-serializable description."""
        return self.rep.spec()


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def polytope(A, b, boxes=None):
    """Bounded half-space polytope {x : A x <= b} (possibly degenerate).

    ``boxes``, a dict, keeps the bounding box of each distinct (A, b) across
    calls, so equal polytopes solve their bounding-box LPs once.
    """
    A = np.atleast_2d(_finite("A", A))
    b = _finite("b", b).ravel()
    if A.shape[0] != b.shape[0]:
        raise PreconditionError("A and b row counts differ")
    if boxes is None:
        return Domain(A.shape[1], PolytopeRep(A, b), _polytope_bbox(A, b))
    key = (A.shape, A.tobytes(), b.tobytes())
    if key not in boxes:
        boxes[key] = _polytope_bbox(A, b)
    return Domain(A.shape[1], PolytopeRep(A, b), boxes[key].copy())


def box(lo, hi):
    """Axis-aligned box [lo, hi] as a polytope domain."""
    lo = np.asarray(lo, dtype=float).ravel()
    hi = np.asarray(hi, dtype=float).ravel()
    d = lo.size
    A = np.vstack([np.eye(d), -np.eye(d)])
    b = np.concatenate([hi, -lo])
    return polytope(A, b)


def ball(center, radius):
    center = _finite("center", center).ravel()
    radius = _finite("radius", float(radius)).item()
    if radius <= 0:
        raise PreconditionError("ball radius must be positive")
    bbox = np.vstack([center - radius, center + radius])
    return Domain(center.size, BallRep(center, radius), bbox)


def cone_body(xi, eps):
    """The capped cone {x: ||x||(1-eps) <= x.xi <= 1} for a unit vector xi."""
    xi = _finite("xi", xi).ravel()
    eps = _finite("eps", float(eps)).item()
    d = xi.size
    if d < 2:
        raise PreconditionError("cone body needs dimension >= 2")
    nrm = np.linalg.norm(xi)
    if abs(nrm - 1.0) > 1e-9:
        raise PreconditionError("xi must be a unit vector")
    xi = xi / nrm
    if not 0.0 < eps < 1.0:
        raise PreconditionError("eps must lie in (0, 1)")
    # extreme points: apex at 0 and the rim sphere {x.xi = 1, ||x|| = 1/(1-eps)}
    rim_rho = math.sqrt(1.0 / (1.0 - eps) ** 2 - 1.0)
    lo = np.empty(d)
    hi = np.empty(d)
    for i in range(d):
        e = np.zeros(d)
        e[i] = 1.0
        perp = math.sqrt(max(0.0, 1.0 - xi[i] ** 2))
        hi[i] = max(0.0, xi[i] + rim_rho * perp)
        lo[i] = min(0.0, xi[i] - rim_rho * perp)
    return Domain(d, ConeBodyRep(xi, eps), np.vstack([lo, hi]))


def union(parts):
    parts = tuple(parts)
    d = parts[0].dim
    lo = np.min([p.bbox[0] for p in parts], axis=0)
    hi = np.max([p.bbox[1] for p in parts], axis=0)
    return Domain(d, UnionRep(parts), np.vstack([lo, hi]))


def intersection(parts):
    parts = tuple(parts)
    d = parts[0].dim
    lo = np.max([p.bbox[0] for p in parts], axis=0)
    hi = np.maximum(np.min([p.bbox[1] for p in parts], axis=0), lo)  # empty: flat box
    return Domain(d, IntersectionRep(parts), np.vstack([lo, hi]))


def affine_image(base, matrix, shift):
    matrix = _finite("matrix", matrix)
    shift = _finite("shift", shift).ravel()
    inv = np.linalg.inv(matrix)
    corners = _bbox_corners(base.bbox)
    img = corners @ matrix.T + shift
    bbox = np.vstack([img.min(axis=0), img.max(axis=0)])
    return Domain(base.dim, AffineImageRep(base, matrix, shift, inv), bbox)


def _finite(name, value):
    arr = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise PreconditionError(f"{name} must be finite")
    return arr


def _bbox_corners(bbox):
    lo, hi = bbox
    d = lo.size
    return np.array([[hi[i] if (k >> i) & 1 else lo[i] for i in range(d)]
                     for k in range(1 << d)])


def _polytope_bbox(A, b):
    d = A.shape[1]
    lo = np.empty(d)
    hi = np.empty(d)
    for i in range(d):
        c = np.zeros(d)
        c[i] = 1.0
        res_min = linprog(c, A_ub=A, b_ub=b, bounds=[(None, None)] * d, method="highs")
        res_max = linprog(-c, A_ub=A, b_ub=b, bounds=[(None, None)] * d, method="highs")
        if res_min.status == 3 or res_max.status == 3:
            raise PreconditionError("polytope is unbounded")
        if res_min.status == 2 or res_max.status == 2:  # infeasible: empty piece
            return np.vstack([np.zeros(d), np.zeros(d)])
        lo[i] = res_min.fun
        hi[i] = -res_max.fun
    return np.vstack([lo, hi])


def _polytope_vertices(A, b, tol=1e-9):
    m, d = A.shape
    scale = max(1.0, float(np.max(np.abs(b))) if b.size else 1.0)
    verts = []
    for idx in itertools.combinations(range(m), d):
        sub = A[list(idx)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        v = np.linalg.solve(sub, b[list(idx)])
        if np.all(A @ v <= b + tol * scale):
            verts.append(v)
    if not verts:
        return np.zeros((0, d))
    verts = np.array(verts)
    # dedupe
    keep = []
    for v in verts:
        if not any(np.linalg.norm(v - verts[k]) < tol * scale for k in keep):
            keep.append(len(keep))
            verts[len(keep) - 1] = v
    return verts[: len(keep)]


# ---------------------------------------------------------------------------
# JSON specs
# ---------------------------------------------------------------------------

def domain_from_spec(spec, boxes=None):
    """Rebuild a Domain from its JSON description; ``boxes`` as in `polytope`.

    An unknown ``type`` is a malformed spec (ValueError)."""
    kind = spec.get("type")
    if kind == "polytope":
        return polytope(spec["A"], spec["b"], boxes)
    if kind == "ball":
        return ball(spec["center"], spec["radius"])
    if kind == "cone_body":
        return cone_body(spec["xi"], spec["eps"])
    if kind == "union":
        return union([domain_from_spec(s, boxes) for s in spec["parts"]])
    if kind == "intersection":
        return intersection([domain_from_spec(s, boxes) for s in spec["parts"]])
    if kind == "affine_image":
        return affine_image(domain_from_spec(spec["base"], boxes), spec["matrix"],
                            spec["shift"])
    raise ValueError(f"unknown domain type {kind!r}")


# ---------------------------------------------------------------------------
# direction sets
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class DirectionSet:
    """Finite set of unit directions.

    ``spread`` is the minimum over unit x of max_i |dirs_i . x|; it is
    positive exactly when the directions span R^d.  It is computed on first
    read and cached (for d >= 3 it is a handful of Nelder-Mead runs).
    """
    dirs: np.ndarray  # (k, d), unit rows

    @cached_property
    def spread(self):
        return _spread(self.dirs)

    @property
    def dim(self):
        return self.dirs.shape[1]

    def __len__(self):
        return self.dirs.shape[0]

    def symmetrized(self):
        """The set closed under negation, with duplicates removed."""
        allv = np.vstack([self.dirs, -self.dirs])
        keep = []
        for v in allv:
            if not any(np.linalg.norm(v - w) < 1e-12 for w in keep):
                keep.append(v)
        return direction_set(np.array(keep))

    def spec(self):
        return {"dirs": self.dirs.tolist()}


def direction_set(vectors):
    dirs = np.atleast_2d(_finite("direction vectors", vectors))
    norms = np.linalg.norm(dirs, axis=1)
    if np.any(norms == 0):
        raise PreconditionError("zero vector in direction set")
    dirs = dirs / norms[:, None]
    return DirectionSet(dirs)


def direction_set_from_spec(spec):
    return direction_set(spec["dirs"])


def _spread(dirs):
    k, d = dirs.shape
    if np.linalg.matrix_rank(dirs, tol=1e-10) < d:
        return 0.0
    if d == 1:
        return 1.0

    def f(v):
        v = v / np.linalg.norm(v)
        return float(np.max(np.abs(dirs @ v)))

    if d == 2:
        theta = np.linspace(0.0, math.pi, 4096, endpoint=False)
        cand = np.column_stack([np.cos(theta), np.sin(theta)])
        vals = np.max(np.abs(cand @ dirs.T), axis=1)
        best = np.argmin(vals)
        lo, hi = theta[best] - math.pi / 4096, theta[best] + math.pi / 4096
        # minimize by maximizing the negated spread
        _, neg = golden_max(lambda t: (-f(np.array([math.cos(t), math.sin(t)])),),
                            lo, hi, tol=1e-13)
        return min(float(vals[best]), -neg)

    rng = np.random.default_rng(12345)
    cand = rng.standard_normal((8192, d))
    cand /= np.linalg.norm(cand, axis=1)[:, None]
    vals = np.max(np.abs(cand @ dirs.T), axis=1)
    order = np.argsort(vals)[:6]
    best = float(vals[order[0]])
    for i in order:
        res = minimize(f, cand[i], method="Nelder-Mead",
                       options={"maxfev": 2000, "xatol": 1e-12, "fatol": 1e-14})
        best = min(best, float(res.fun))
    return best


def golden_max(fn, lo, hi, tol):
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


# ---------------------------------------------------------------------------
# sample plans
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class SamplePlan:
    """Monte Carlo quadrature plan: member points with volume weights."""
    points: np.ndarray
    weights: np.ndarray
    seed: int
    density: float

    def __len__(self):
        return self.points.shape[0]


def rejection_sample(dom, n, seed, batch, limit, stop_at_n=False):
    """The first n members of ``dom`` among uniform bounding-box proposals from
    ``default_rng(seed)``, drawn ``batch`` at a time until n are accepted or
    ``limit`` are proposed; returns (points, accepted, proposed), where
    accepted and proposed count the proposals tested.

    A batch is ``rng.random((batch, d))`` mapped in place, column by column,
    to lo + (hi - lo) u: the stream and the bits of ``rng.uniform(lo, hi)``.
    By default each batch is tested whole, one ``dom.contains`` call, so that
    accepted / proposed is a volume estimate over whole batches.  With
    ``stop_at_n`` each batch is drawn and tested in chunks, sized from the
    acceptance seen so far, and testing stops at the n-th member.  Successive
    draws continue one stream, so the points are the same bits; a sample
    tests at most the proposals of the whole batches, and exactly those when
    it never reaches n."""
    rng = np.random.default_rng(seed)
    lo, hi = dom.bbox
    ext = hi - lo
    accepted = [np.zeros((0, dom.dim))]
    n_acc = n_prop = 0
    cap = -(-limit // batch) * batch  # the whole batches that reach limit
    size = min(n, batch) if stop_at_n else batch
    while n_acc < n and n_prop < cap:
        # no chunk crosses the end of a batch, so a sample never tests more
        # proposals than whole batches would
        m = min(size, batch - n_prop % batch)
        pts = rng.random((m, dom.dim))
        for i in range(dom.dim):
            col = pts[:, i]
            col *= ext[i]
            col += lo[i]
        accepted.append(np.compress(dom.contains(pts), pts, axis=0))
        n_acc += len(accepted[-1])
        n_prop += m
        if stop_at_n:
            size = (min(2 * size, batch) if n_acc == 0 else
                    math.ceil(1.1 * (n - n_acc) * n_prop / n_acc) + 64)
    return np.vstack(accepted)[:n], n_acc, n_prop


def _require_volume(dom):
    """Raise when the bounding box has a non-positive extent: a flat domain
    has no volume to sample and no interior point."""
    ext = dom.bbox[1] - dom.bbox[0]
    flat = np.flatnonzero(~(ext > 0.0))
    if flat.size:
        raise PreconditionError(f"domain is flat: its bounding box has extent "
                                f"{float(ext[flat[0]])} along axis {int(flat[0])}")


def sample_plan(dom, n_points=4096, seed=0, extra_points=None):
    """Uniform rejection-sampled plan over ``dom``.

    Weight per point is vol_estimate / n so the weights sum to the Monte
    Carlo volume estimate.  ``extra_points`` are appended (they must be
    members) and share the same weight.  A bounding box with a non-positive
    extent (a flat domain) has no volume to sample.
    """
    _require_volume(dom)
    cap = 1000 * n_points + 100_000  # proposals allowed before giving up
    pts, n_acc, n_prop = rejection_sample(dom, n_points, seed, max(4 * n_points, 1024),
                                          cap + 1)
    if n_prop > cap:
        raise PreconditionError("rejection sampling acceptance rate too low")
    vol_est = float(np.prod(dom.bbox[1] - dom.bbox[0])) * (n_acc / n_prop)
    if extra_points is not None:
        extra = np.atleast_2d(np.asarray(extra_points, dtype=float))
        if not np.all(dom.contains(extra)):
            raise PreconditionError("extra plan points must belong to the domain")
        pts = np.vstack([pts, extra])
    w = np.full(len(pts), vol_est / len(pts))
    return SamplePlan(pts, w, seed, len(pts) / max(vol_est, 1e-300))


def grid_plan(dom, n_per_axis):
    """Deterministic grid plan (membership-filtered lattice)."""
    lo, hi = dom.bbox
    axes = [np.linspace(lo[i], hi[i], n_per_axis) for i in range(dom.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([m.ravel() for m in mesh])
    mask = dom.contains(pts)
    pts = pts[mask]
    cell = float(np.prod((hi - lo) / max(n_per_axis - 1, 1)))
    w = np.full(len(pts), cell if dom.dim > 0 else 1.0)
    vol = max(float(w.sum()), 1e-300)
    return SamplePlan(pts, w, 0, len(pts) / vol)


# ---------------------------------------------------------------------------
# diameter / inscribed ball / normalize
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiameterResult:
    value: float
    approximate: bool

    def __float__(self):
        return self.value


def diameter(dom, plan=None):
    """Largest pairwise distance; exact where the representation knows it
    (polytopes and their affine images, balls and ellipsoids, cone bodies).

    For other representations the maximum is taken over plan points and is a
    lower bound, reported with ``approximate=True``.
    """
    exact = dom.rep.diameter()
    if exact is not None:
        return DiameterResult(exact, False)
    if plan is None or len(plan) == 0:
        raise PreconditionError("diameter of a sampled domain needs a nonempty plan")
    return DiameterResult(_max_pairwise(plan.points), True)


def _max_pairwise(pts):
    if len(pts) > 64 and pts.shape[1] in (2, 3):
        try:
            from scipy.spatial import ConvexHull
            pts = pts[ConvexHull(pts).vertices]
        except Exception:
            pass
    best = 0.0
    chunk = 512
    for i in range(0, len(pts), chunk):
        block = pts[i:i + chunk]
        d = np.linalg.norm(block[:, None, :] - pts[None, :, :], axis=2)
        best = max(best, float(d.max()))
    return best


def inscribed_ball(dom):
    """Chebyshev center and radius of a bounded polytope (via linear program).

    The optimal-face midpoint refinement makes the center unique and
    deterministic when the largest inscribed ball is not.
    """
    if not isinstance(dom.rep, PolytopeRep):
        raise PreconditionError("inscribed_ball requires a polytope domain")
    return _chebyshev_ball(dom.rep.A, dom.rep.b)


def _chebyshev_ball(A, b):
    d = A.shape[1]
    norms = np.linalg.norm(A, axis=1)
    c = np.zeros(d + 1)
    c[d] = -1.0
    A_ub = np.hstack([A, norms[:, None]])
    res = linprog(c, A_ub=A_ub, b_ub=b, bounds=[(None, None)] * d + [(0, None)],
                  method="highs")
    if res.status == 3:
        raise PreconditionError("polytope is unbounded")
    if res.status == 2 or res.x is None:
        raise PreconditionError("polytope is infeasible")
    radius = float(res.x[d])
    if radius <= 1e-12 * max(1.0, float(np.max(np.abs(b)))):
        raise PreconditionError("polytope has empty interior (zero inscribed radius)")
    # midpoint of the optimal center set, coordinate by coordinate
    center = np.empty(d)
    A_fix = np.vstack([A_ub, np.concatenate([np.zeros(d), [-1.0]])])
    b_fix = np.concatenate([b, [-radius * (1.0 - 1e-12)]])
    for i in range(d):
        ci = np.zeros(d + 1)
        ci[i] = 1.0
        r_lo = linprog(ci, A_ub=A_fix, b_ub=b_fix,
                       bounds=[(None, None)] * d + [(0, None)], method="highs")
        r_hi = linprog(-ci, A_ub=A_fix, b_ub=b_fix,
                       bounds=[(None, None)] * d + [(0, None)], method="highs")
        if r_lo.x is None or r_hi.x is None:
            center[i] = res.x[i]
        else:
            center[i] = 0.5 * (r_lo.x[i] + r_hi.x[i])
    return center, radius


@dataclass(frozen=True)
class AffineMap:
    """x -> matrix @ x + shift."""
    matrix: np.ndarray
    shift: np.ndarray

    def apply_domain(self, dom):
        return affine_image(dom, self.matrix, self.shift)


def normalize(dom):
    """Affine map sending the inscribed ball to the unit ball at the origin.

    Returns (map, R) where R is the radius of the smallest origin-centered
    ball containing the image (computed over the image vertices).
    """
    c, rho = inscribed_ball(dom)
    matrix = np.eye(dom.dim) / rho
    shift = -c / rho
    amap = AffineMap(matrix, shift)
    verts = dom.vertices()
    img = verts @ matrix.T + shift
    R = float(np.max(np.linalg.norm(img, axis=1)))
    return amap, R


def as_polytope(dom):
    """Flatten an affine image of a polytope into a direct half-space form."""
    if isinstance(dom.rep, PolytopeRep):
        return dom
    if isinstance(dom.rep, AffineImageRep) and isinstance(dom.rep.base.rep, PolytopeRep):
        A = dom.rep.base.rep.A @ dom.rep.inverse
        b = dom.rep.base.rep.b + A @ dom.rep.shift
        return polytope(A, b)
    raise PreconditionError("domain is not polytope-backed")


# ---------------------------------------------------------------------------
# boundary, illumination, x-ray
# ---------------------------------------------------------------------------

def _boundary_info(dom, x):
    """(is_boundary, outward normals at x or None). Tolerance is relative to scale."""
    tol = BOUNDARY_TOL * dom.scale()
    x = np.asarray(x, dtype=float).ravel()
    if not dom.contains(x, slack=tol):
        return False, None
    exact = dom.rep.boundary(x, tol)
    if exact is not None:
        return exact
    # generic: member but not strictly interior, probed on a small sphere
    probe = 32 * dom.dim
    rng = np.random.default_rng(0)
    dirs = rng.standard_normal((probe, dom.dim))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    probes = x + 10.0 * tol * dirs
    inside = dom.contains(probes)
    return not bool(inside.all()), None


def illuminated(dom, x, e):
    """Whether the open ray from boundary point ``x`` along ``e`` enters the interior.

    Where the representation gives the outward normals at x (polytopes, balls)
    the ray enters iff it points against all of them; otherwise points along
    the ray up to twice the diameter are sampled.
    """
    x = np.asarray(x, dtype=float).ravel()
    e = np.asarray(e, dtype=float).ravel()
    e = e / np.linalg.norm(e)
    on_bdry, normals = _boundary_info(dom, x)
    if not on_bdry:
        raise PreconditionError("illumination query requires a boundary point")
    if normals is not None:
        return bool(np.all(normals @ e < 0.0))
    try:
        diam = diameter(dom).value
    except PreconditionError:
        diam = float(np.linalg.norm(dom.bbox[1] - dom.bbox[0]))
    return bool(ray_march(dom, x[None, :], e, 2.0 * diam, RAY_SAMPLES,
                          slack=-1e-9 * dom.scale())[0])


def ray_march(dom, pts, e, t_hi, n_t, slack=None):
    """Per row p of ``pts``, whether some p + t e with t = t_hi k / n_t
    (k = 1..n_t) belongs to ``dom`` within ``slack``; rays that have met the
    domain are dropped, a few thousand probe points per membership call."""
    ts = np.linspace(0.0, t_hi, n_t + 1)[1:]
    hit = np.zeros(len(pts), dtype=bool)
    per_call = max(1, 4096 // max(len(pts), 1))
    for k in range(0, n_t, per_call):
        rem = (~hit).nonzero()[0]
        if rem.size == 0:
            break
        step = ts[k:k + per_call]
        probes = np.empty((rem.size, step.size, dom.dim))
        for i in range(dom.dim):  # p + t e, coordinate by coordinate
            np.add(np.take(pts[:, i], rem)[:, None], step * e[i], out=probes[:, :, i])
        inside = dom.contains(probes.reshape(-1, dom.dim), slack)
        hit[rem] = inside.reshape(len(rem), -1).any(axis=1)
    return hit


def xray_verifies(dom, dirset, boundary_sample):
    """Check that every boundary sample is illuminated by some +/- direction.

    Returns (ok, witnesses) where witnesses lists the unilluminated points.
    """
    pts = np.atleast_2d(np.asarray(boundary_sample, dtype=float))
    if len(pts) == 0:
        raise PreconditionError("boundary sample must be nonempty")
    sym = dirset.symmetrized()
    witnesses = []
    for x in pts:
        if not any(illuminated(dom, x, e) for e in sym.dirs):
            witnesses.append(x.copy())
    return len(witnesses) == 0, witnesses


def boundary_points(dom, n=256, seed=0):
    """Boundary sample by ray bisection from an interior anchor.

    For polytopes the vertex list is always included, as illumination
    failures concentrate there.
    """
    rng = np.random.default_rng(seed)
    anchor = _interior_anchor(dom, rng)
    dirs = rng.standard_normal((n, dom.dim))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    pts = anchor + _ray_exit(dom, anchor, dirs, 60)[:, None] * dirs
    if isinstance(dom.rep, PolytopeRep):
        pts = np.vstack([dom.vertices(), pts])
    return pts


def _ray_exit(dom, anchor, dirs, iters):
    """Per row u of ``dirs``, the length t at which the ray anchor + t u leaves
    ``dom``, by ``iters`` bisection steps on membership (all rays at once)."""
    lo = np.zeros(len(dirs))
    hi = np.full(len(dirs), 2.0 * float(np.linalg.norm(dom.bbox[1] - dom.bbox[0])) + 1.0)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        inside = dom.contains(anchor + mid[:, None] * dirs)
        lo = np.where(inside, mid, lo)
        hi = np.where(inside, hi, mid)
    return lo


def _interior_anchor(dom, rng):
    """The representation's exact interior point, else the first of 100 000
    proposals ``rng.uniform(lo, hi)`` strictly inside ``dom``.  Proposals are
    drawn and tested in growing blocks (the same bits as single draws), and
    ``rng`` is left just past the proposal returned, as single draws leave it."""
    exact = dom.rep.anchor()
    if exact is not None:
        return exact
    _require_volume(dom)
    lo, hi = dom.bbox
    margin = 1e-7 * dom.scale()
    tries, tried, m = 100_000, 0, 16
    while tried < tries:
        m = min(m, tries - tried)
        state = rng.bit_generator.state
        hit = np.flatnonzero(dom.strictly_inside(rng.uniform(lo, hi, (m, dom.dim)), margin))
        if hit.size:
            rng.bit_generator.state = state
            return rng.uniform(lo, hi, (hit[0] + 1, dom.dim))[-1]
        tried += m
        m = min(2 * m, 4096)
    raise PreconditionError("could not find an interior point")


# ---------------------------------------------------------------------------
# signed boundary distance (used by the hexagon search)
# ---------------------------------------------------------------------------

def signed_boundary_distance(dom, x, anchor=None):
    """Negative inside, positive outside; exact where the representation has a
    closed form (polytopes, balls), else by ray bisection from an interior anchor."""
    pts, single = _as_points(x, dom.dim)
    out = dom.rep.signed_distance(pts)
    if out is None:
        if anchor is None:
            anchor = _interior_anchor(dom, np.random.default_rng(0))
        v = pts - anchor
        rad = np.linalg.norm(v, axis=1)
        out = rad - _ray_exit(dom, anchor, v / np.maximum(rad, 1e-300)[:, None], 50)
    return float(out[0]) if single else out


# ---------------------------------------------------------------------------
# inscribed affine-regular hexagon
# ---------------------------------------------------------------------------

HEXAGON_TEMPLATE = np.array([
    [1.0, 1.0], [0.0, 2.0], [-1.0, 1.0], [-1.0, -1.0], [0.0, -2.0], [1.0, -1.0],
])


@dataclass(frozen=True)
class HexagonResult:
    vertices: np.ndarray
    boundary_residual: float
    area: float
    converged: bool


def inscribed_affine_hexagon(dom, n_starts=16, budget=5000, seed=0):
    """Largest affine-regular hexagon inscribed in a planar convex body.

    Variational search over the six affine parameters: first maximize area
    under a containment penalty, then polish the vertices onto the boundary
    while holding the area.  If the polish residual stays above tolerance the
    best candidate is still returned, flagged unconverged.
    """
    if dom.dim != 2:
        raise PreconditionError("hexagon search is planar only")
    rng = np.random.default_rng(seed)
    anchor = _interior_anchor(dom, rng)
    scale0 = 0.25 * dom.scale()
    tol = BOUNDARY_TOL * dom.scale()

    def verts_of(params):
        M = params[:4].reshape(2, 2)
        s = params[4:]
        return HEXAGON_TEMPLATE @ M.T + s, M

    def sdists(v):
        return signed_boundary_distance(dom, v, anchor=anchor)

    def area_of(M):
        return 6.0 * abs(np.linalg.det(M))

    pen_w = 400.0 / max(scale0 ** 2, 1e-300)

    def phase1(params):
        v, M = verts_of(params)
        sd = sdists(v)
        return -area_of(M) + pen_w * scale0 ** 2 * np.sum(np.maximum(sd, 0.0) ** 2)

    best = None
    for k in range(n_starts):
        M0 = scale0 * (np.eye(2) + 0.3 * rng.standard_normal((2, 2)))
        x0 = np.concatenate([M0.ravel(), anchor + 0.1 * scale0 * rng.standard_normal(2)])
        res = minimize(phase1, x0, method="Nelder-Mead",
                       options={"maxfev": budget, "xatol": 1e-12, "fatol": 1e-12})
        if best is None or res.fun < best.fun:
            best = res
    v, M = verts_of(best.x)
    area_target = area_of(M)

    def phase2(params):
        v, M = verts_of(params)
        sd = sdists(v)
        short = max(0.0, 0.995 * area_target - area_of(M))
        return float(np.sum(sd ** 2) + 50.0 * short ** 2)

    res2 = minimize(phase2, best.x, method="Nelder-Mead",
                    options={"maxfev": 2 * budget, "xatol": 1e-15, "fatol": 1e-30})
    v, M = verts_of(res2.x)
    resid = float(np.max(np.abs(sdists(v))))
    return HexagonResult(v, resid, area_of(M), resid <= max(tol, 1e-6 * dom.scale()))

"""Compact domains, direction sets, sample plans, and convex-geometry queries.

Domains are immutable descriptions (half-space polytopes, balls, capped norm
cones, unions, intersections, affine images), each one ``Domain`` object that
carries its bounding box.  All membership queries accept a single point
``(d,)`` or a batch ``(n, d)`` and are deterministic.

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
from functools import cached_property, lru_cache

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, QhullError

from .errors import PreconditionError

MEMBERSHIP_SLACK = 1e-12
BOUNDARY_TOL = 1e-8  # relative to bbox scale
RAY_SAMPLES = 10_000


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
# domains
# ---------------------------------------------------------------------------
# Each of the six representations below is a ``Domain`` and defines
# member(pts, slack) (coordinate-major, as the module docstring says),
# signed_distance(pts) (exact on polytopes and balls, else off to the safe side:
# on members at least the true value, so -sd(y) >= h puts B(y, h) in the set,
# elsewhere at most the distance to the set), spec() and bbox (derived on first
# read).  Where it has exact answers it defines vertices, diameter(),
# boundary(x, tol) -> (flag, outward normals or None), anchor() (an interior
# point) and, for convex sets, _exit(pts, xi, slack): per member point x, the
# largest u >= 0 with x + u xi a member within ``slack``; None means none.
# Domain answers the queries.

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


class Domain:
    """A compact subset of R^d with a guaranteed axis-aligned bounding box
    ``bbox`` ((2, d): [lo, hi]), and the membership slack its queries use."""
    vertices = None

    @property
    def dim(self):
        return self.bbox.shape[1]

    def contains(self, x, slack=None):
        """Membership; true for points of the represented closed set."""
        pts, single = _as_points(x, self.dim)
        if not np.all(np.isfinite(pts)):
            raise PreconditionError("membership query requires finite coordinates")
        out = self.member(pts, self._slack() if slack is None else slack)
        return bool(out[0]) if single else out

    def exit_distance(self, x, xi):
        """Per member point x, the largest u >= 0 with x + u xi in the domain
        (within the membership slack), or None where the representation has
        no closed form.  For a convex domain the points x + j u xi, j = 1..r,
        all belong to it iff r u <= exit_distance."""
        pts, _ = _as_points(x, self.dim)
        return self._exit(pts, np.asarray(xi, dtype=float).ravel(), self._slack())

    def strictly_inside(self, x, margin=None):
        return self.contains(x, slack=-(margin if margin is not None else 1e-9 * self.scale()))

    def scale(self):
        ext = self.bbox[1] - self.bbox[0]
        return float(max(np.max(ext), 1e-300))

    def _slack(self):
        return MEMBERSHIP_SLACK * max(1.0, self.scale())

    def diameter(self):
        if self.vertices is None:
            return None
        if len(self.vertices) == 0:
            raise PreconditionError("empty domain has no diameter")
        return _max_pairwise(self.vertices)

    def boundary(self, x, tol):
        return None

    def anchor(self):
        return None

    def _exit(self, pts, xi, slack):
        return None


def _exit_root(a, beta, gamma):
    """(sqrt(beta^2 - a gamma) - beta) / a, in the form that does not cancel: the
    root of a u^2 + 2 beta u + gamma where a member (gamma <= 0) leaves the set
    {q <= 0}, the larger root for a > 0 and the smaller for a < 0. Where
    a <= 0 the caller screens negative, infinite and NaN results."""
    disc = np.sqrt(np.maximum(beta * beta - a * gamma, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(beta > 0.0, -gamma / (beta + disc), (disc - beta) / a)


@dataclass(eq=False)
class PolytopeRep(Domain):
    """Half-space intersection {x : A x <= b}; its box is spanned by its vertex
    candidates, and flat at the origin when there are none (infeasible)."""
    A: np.ndarray
    b: np.ndarray

    @cached_property
    def _candidates(self):
        return _vertex_candidates(self.A, self.b)

    @cached_property
    def bbox(self):
        pts = self._candidates[0]
        pts = pts if len(pts) else np.zeros((1, self.A.shape[1]))
        return np.vstack([pts.min(axis=0), pts.max(axis=0)])

    def member(self, pts, slack):
        if self.A.shape[0] == 0:
            return np.zeros(len(pts), dtype=bool)
        return np.logical_and.reduce(self.A @ pts.T <= (self.b + slack)[:, None], axis=0)

    def spec(self):
        return {"type": "polytope", "A": self.A.tolist(), "b": self.b.tolist()}

    @cached_property
    def vertices(self):
        return _dedupe(*self._candidates)

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

    def _exit(self, pts, xi, slack):
        rate = self.A @ xi
        ahead = rate > 0  # the rows a . xi <= 0 never bind for a member
        if not ahead.any():
            return np.full(len(pts), np.inf)
        room = self.b[ahead] + slack - pts @ self.A[ahead].T
        return np.min(room / rate[ahead], axis=1)


@dataclass(eq=False)
class BallRep(Domain):
    center: np.ndarray
    radius: float

    @cached_property
    def bbox(self):
        return np.vstack([self.center - self.radius, self.center + self.radius])

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

    def _exit(self, pts, xi, slack):
        rel = pts - self.center
        return _exit_root(float(xi @ xi), rel @ xi,
                          np.einsum("ij,ij->i", rel, rel) - (self.radius + slack) ** 2)


@dataclass(eq=False)
class ConeBodyRep(Domain):
    """Capped norm cone {x : ||x|| (1 - eps) <= x . xi <= 1}."""
    xi: np.ndarray
    eps: float

    @cached_property
    def bbox(self):
        # extreme points: apex at 0 and the rim sphere {x.xi = 1, ||x|| = 1/(1-eps)}
        rim_rho = math.sqrt(1.0 / (1.0 - self.eps) ** 2 - 1.0)
        lo = np.empty(self.xi.size)
        hi = np.empty(self.xi.size)
        for i, x in enumerate(self.xi):
            perp = math.sqrt(max(0.0, 1.0 - x ** 2))
            hi[i] = max(0.0, x + rim_rho * perp)
            lo[i] = min(0.0, x - rim_rho * perp)
        return np.vstack([lo, hi])

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

    def signed_distance(self, pts):
        # both constraints over their Lipschitz constants (2 and 1)
        proj = pts @ self.xi
        return np.maximum((_row_norms(pts) * (1.0 - self.eps) - proj) / 2.0, proj - 1.0)

    def boundary(self, x, tol):
        proj = float(x @ self.xi)
        on_cone = abs(float(np.linalg.norm(x)) * (1.0 - self.eps) - proj) <= tol
        return abs(proj - 1.0) <= tol or on_cone, None

    def _exit(self, pts, xi, slack):
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
class UnionRep(Domain):
    """The union of ``parts``.  Its box is read only when asked for, so a
    union built for its membership test alone costs no pass over the parts."""
    parts: tuple

    @cached_property
    def bbox(self):
        lo = np.min([p.bbox[0] for p in self.parts], axis=0)
        hi = np.max([p.bbox[1] for p in self.parts], axis=0)
        return np.vstack([lo, hi])

    def member(self, pts, slack):
        out = np.zeros(len(pts), dtype=bool)
        for part in self.parts:
            rem = (~out).nonzero()[0]
            if rem.size == 0:
                break
            out[rem] = part.member(np.take(pts, rem, axis=0), slack)
        return out

    def signed_distance(self, pts):
        return np.min([p.signed_distance(pts) for p in self.parts], axis=0)

    def spec(self):
        return {"type": "union", "parts": [p.spec() for p in self.parts]}


@dataclass(eq=False)
class IntersectionRep(Domain):
    parts: tuple

    @cached_property
    def bbox(self):
        lo = np.max([p.bbox[0] for p in self.parts], axis=0)
        hi = np.maximum(np.min([p.bbox[1] for p in self.parts], axis=0), lo)  # empty: flat box
        return np.vstack([lo, hi])

    @cached_property
    def _leaves(self):
        """(plain, unions): the parts, nested intersections flattened, with the
        unions apart in order."""
        flat = []
        for part in self.parts:
            if isinstance(part, IntersectionRep):
                flat.extend(part._leaves[0] + part._leaves[1])
            else:
                flat.append(part)
        unions = tuple(part for part in flat if isinstance(part, UnionRep))
        return tuple(part for part in flat if not isinstance(part, UnionRep)), unions

    def member(self, pts, slack):
        plain, unions = self._leaves
        out = np.ones(len(pts), dtype=bool)
        for part in plain:
            out &= part.member(pts, slack)
        for part in unions:
            rem = out.nonzero()[0]
            if rem.size == 0:
                break
            out[rem] = part.member(np.take(pts, rem, axis=0), slack)
        return out

    def signed_distance(self, pts):
        return np.max([p.signed_distance(pts) for p in self.parts], axis=0)

    def spec(self):
        return {"type": "intersection", "parts": [p.spec() for p in self.parts]}

    def _exit(self, pts, xi, slack):
        dists = [p._exit(pts, xi, slack) for p in self.parts]
        return None if any(d is None for d in dists) else np.min(dists, axis=0)


@dataclass(eq=False)
class AffineImageRep(Domain):
    """Image of ``base`` under x -> matrix @ x + shift (matrix invertible)."""
    base: Domain
    matrix: np.ndarray
    shift: np.ndarray
    inverse: np.ndarray

    @cached_property
    def bbox(self):
        img = _bbox_corners(self.base.bbox) @ self.matrix.T + self.shift
        return np.vstack([img.min(axis=0), img.max(axis=0)])

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
        return self.base.member(self._back(pts),
                                slack / max(1.0, float(self._singular_values[0])))

    def signed_distance(self, pts):
        return float(self._singular_values[-1]) * self.base.signed_distance(self._back(pts))

    def spec(self):
        return {"type": "affine_image", "base": self.base.spec(),
                "matrix": self.matrix.tolist(), "shift": self.shift.tolist()}

    @cached_property
    def vertices(self):
        base = self.base.vertices
        return None if base is None else base @ self.matrix.T + self.shift

    def diameter(self):
        if isinstance(self.base, BallRep):
            return 2.0 * self.base.radius * float(self._singular_values[0])
        return super().diameter()


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def polytope(A, b):
    """Bounded half-space polytope {x : A x <= b} (possibly degenerate or
    empty); its bounding box is read off its vertices when first asked for.
    A system whose recession cone {x : A x <= 0} is not {0} is refused."""
    A = np.atleast_2d(_finite("A", A))
    b = _finite("b", b).ravel()
    if A.shape[0] != b.shape[0]:
        raise PreconditionError("A and b row counts differ")
    if not _bounded(A.shape, A.tobytes()):
        raise PreconditionError("polytope is unbounded")
    return PolytopeRep(A, b)


def box(lo, hi):
    """Axis-aligned box [lo, hi] as a polytope domain."""
    lo = np.asarray(lo, dtype=float).ravel()
    hi = np.asarray(hi, dtype=float).ravel()
    return polytope(np.vstack([np.eye(lo.size), -np.eye(lo.size)]), np.concatenate([hi, -lo]))


def ball(center, radius):
    center = _finite("center", center).ravel()
    radius = _finite("radius", float(radius)).item()
    if radius <= 0:
        raise PreconditionError("ball radius must be positive")
    return BallRep(center, radius)


def cone_body(xi, eps):
    """The capped cone {x: ||x||(1-eps) <= x.xi <= 1} for a unit vector xi."""
    xi = _finite("xi", xi).ravel()
    eps = _finite("eps", float(eps)).item()
    if xi.size < 2:
        raise PreconditionError("cone body needs dimension >= 2")
    nrm = np.linalg.norm(xi)
    if abs(nrm - 1.0) > 1e-9:
        raise PreconditionError("xi must be a unit vector")
    if not 0.0 < eps < 1.0:
        raise PreconditionError("eps must lie in (0, 1)")
    return ConeBodyRep(xi / nrm, eps)


def _parts(kind, parts):
    """``parts`` as a tuple; a malformed spec (ValueError) unless nonempty and of one dimension."""
    parts = tuple(parts)
    if len({p.dim for p in parts}) != 1:
        raise ValueError(f"{kind} parts must be nonempty and share one dimension, "
                         f"got dimensions {[p.dim for p in parts]}")
    return parts


def union(parts):
    return UnionRep(_parts("union", parts))


def intersection(parts):
    return IntersectionRep(_parts("intersection", parts))


def affine_image(base, matrix, shift):
    """The image of ``base`` under x -> matrix @ x + shift; a malformed spec
    (ValueError) unless matrix is d x d and shift has d entries, d = base.dim."""
    matrix = _finite("matrix", matrix)
    shift = _finite("shift", shift).ravel()
    d = base.dim
    if matrix.shape != (d, d) or shift.shape != (d,):
        raise ValueError(f"affine image of a {d}-d base needs a {d}x{d} matrix and {d} "
                         f"shift entries, got shapes {matrix.shape} and {shift.shape}")
    return AffineImageRep(base, matrix, shift, np.linalg.inv(matrix))


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


def _unit_rows(A):
    """A with each row divided by its largest |entry| (zero rows kept)."""
    big = np.max(np.abs(A), axis=1, initial=0.0)
    return A / np.where(big > 0.0, big, 1.0)[:, None]


@lru_cache(maxsize=256)
def _bounded(shape, data):
    """Whether {x : A x <= b} is bounded, A = ``data`` of ``shape``: rank A = d
    and A^T lam = 0 for some lam >= 1 (Stiemke's lemma: then A x <= 0 forces
    A x = 0), one LP on the rows scaled to largest |entry| 1."""
    A = _unit_rows(np.frombuffer(data).reshape(shape))
    if np.linalg.matrix_rank(A) < shape[1]:
        return False
    return linprog(np.zeros(shape[0]), A_eq=A.T, b_eq=np.zeros(shape[1]),
                   bounds=(1.0, None), method="highs").status == 0


def _vertex_candidates(A, b):
    """(points, tol): the feasible solutions, within tol, of every nonsingular
    d-row subsystem, in the order of ``itertools.combinations``.  A subsystem counts
    as singular when the determinant of its rows, each divided by its largest
    |entry|, is below 1e-12.  The subsystems go 2^16 at a time to one stacked
    det and one stacked solve, which give the bits of one call per subsystem."""
    m, d = A.shape
    tol = 1e-9 * float(np.max(np.abs(b), initial=1.0))
    unit = _unit_rows(A)
    combos = itertools.combinations(range(m), d)
    found = [np.zeros((0, d))]
    for block in iter(lambda: list(itertools.islice(combos, 1 << 16)), []):
        idx = np.array(block, dtype=np.intp).reshape(len(block), d)
        idx = idx[~(np.abs(np.linalg.det(unit[idx])) < 1e-12)]
        v = np.linalg.solve(A[idx], b[idx][:, :, None])[:, :, 0]
        found.append(v[np.all(A @ v.T <= (b + tol)[:, None], axis=0)])
    return np.vstack(found), tol


def _polytope_vertices(A, b):
    """The vertex candidates of {x : A x <= b}, deduped within their tolerance."""
    return _dedupe(*_vertex_candidates(A, b))


def _dedupe(rows, tol):
    """In order, the rows at distance ``tol`` or more from every row kept before."""
    keep = rows[:0]
    for v in rows:
        if not (np.linalg.norm(keep - v, axis=1) < tol).any():
            keep = np.vstack([keep, v])
    return keep


# ---------------------------------------------------------------------------
# JSON specs
# ---------------------------------------------------------------------------

def domain_from_spec(spec):
    """Rebuild a Domain from its JSON description.

    An unknown ``type`` is a malformed spec (ValueError)."""
    kind = spec.get("type")
    if kind == "polytope":
        return polytope(spec["A"], spec["b"])
    if kind == "ball":
        return ball(spec["center"], spec["radius"])
    if kind == "cone_body":
        return cone_body(spec["xi"], spec["eps"])
    if kind == "union":
        return union([domain_from_spec(s) for s in spec["parts"]])
    if kind == "intersection":
        return intersection([domain_from_spec(s) for s in spec["parts"]])
    if kind == "affine_image":
        return affine_image(domain_from_spec(spec["base"]), spec["matrix"], spec["shift"])
    raise ValueError(f"unknown domain type {kind!r}")


# ---------------------------------------------------------------------------
# direction sets
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class DirectionSet:
    """Finite set of unit directions.

    ``spread`` is the minimum over unit x of max_i |dirs_i . x|; it is
    positive exactly when the directions span R^d.  It is computed on first
    read, from the vertices of {y : |dirs_i . y| <= 1}, and cached.
    """
    dirs: np.ndarray  # (k, d), unit rows

    @cached_property
    def spread(self):
        return _spread(self.dirs)

    @property
    def spans(self):
        """Whether the directions span R^d: the rank test that ``spread``
        starts with, without its vertex enumeration."""
        return _spans(self.dirs)

    @property
    def dim(self):
        return self.dirs.shape[1]

    def __len__(self):
        return self.dirs.shape[0]

    def symmetrized(self):
        """The set closed under negation, with duplicates removed."""
        return direction_set(_dedupe(np.vstack([self.dirs, -self.dirs]), 1e-12))

    def spec(self):
        return {"dirs": self.dirs.tolist()}


def direction_set(vectors):
    dirs = np.atleast_2d(_finite("direction vectors", vectors))
    if dirs.size == 0:
        raise PreconditionError("empty direction set")
    norms = np.linalg.norm(dirs, axis=1)
    if np.any(norms == 0):
        raise PreconditionError("zero vector in direction set")
    if not np.all(np.isfinite(norms)):
        # dividing by an infinite norm would make the direction zero
        raise PreconditionError("direction vector too large: its norm overflows")
    dirs = dirs / norms[:, None]
    return DirectionSet(dirs)


def direction_set_from_spec(spec):
    return direction_set(spec["dirs"])


def _spans(dirs):
    return np.linalg.matrix_rank(dirs, tol=1e-10) == dirs.shape[1]


def _spread(dirs):
    """min over unit x of max_i |dirs_i . x|, exactly: the gauge of
    P = {y : |dirs_i . y| <= 1} is max_i |dirs_i . x|, so the spread is
    1 / max_{y in P} |y|, and a norm peaks on a polytope at a vertex."""
    if not _spans(dirs):
        return 0.0
    verts = _polytope_vertices(np.vstack([dirs, -dirs]), np.ones(2 * len(dirs)))
    # no vertex when every d rows fall under the solver's determinant cut
    far = float(np.max(np.linalg.norm(verts, axis=1), initial=0.0))
    return 1.0 / far if far > 0.0 else 0.0


# ---------------------------------------------------------------------------
# sample plans
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class SamplePlan:
    """Monte Carlo quadrature plan: member points with volume weights."""
    points: np.ndarray
    weights: np.ndarray

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
    return SamplePlan(pts, w)


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
    return SamplePlan(pts, w)


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
    exact = dom.diameter()
    if exact is not None:
        return DiameterResult(exact, False)
    if plan is None or len(plan) == 0:
        raise PreconditionError("diameter of a sampled domain needs a nonempty plan")
    return DiameterResult(_max_pairwise(plan.points), True)


def _max_pairwise(pts):
    if len(pts) > 64 and pts.shape[1] in (2, 3):
        try:
            pts = pts[ConvexHull(pts).vertices]
        except QhullError:  # a degenerate set, such as collinear points
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
    if not isinstance(dom, PolytopeRep):
        raise PreconditionError("inscribed_ball requires a polytope domain")
    return _chebyshev_ball(dom.A, dom.b)


def _chebyshev_ball(A, b):
    d = A.shape[1]
    norms = np.linalg.norm(A, axis=1)
    c = np.zeros(d + 1)
    c[d] = -1.0
    A_ub = np.hstack([A, norms[:, None]])
    res = linprog(c, A_ub=A_ub, b_ub=b, bounds=[(None, None)] * d + [(0, None)],
                  method="highs")
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
    verts = dom.vertices
    img = verts @ matrix.T + shift
    R = float(np.max(np.linalg.norm(img, axis=1)))
    return amap, R


def as_polytope(dom):
    """Flatten an affine image of a polytope into a direct half-space form."""
    if isinstance(dom, PolytopeRep):
        return dom
    if isinstance(dom, AffineImageRep) and isinstance(dom.base, PolytopeRep):
        A = dom.base.A @ dom.inverse
        b = dom.base.b + A @ dom.shift
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
    exact = dom.boundary(x, tol)
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
    A ball, or an affine image of one at any depth, is x-rayed exactly when
    the directions span.  Otherwise, for a unit n orthogonal to every
    direction, the points where n . x is extreme are witnesses too (no ray
    along a direction enters from them, and a boundary sample rarely hits
    them): c +/- rho n on B(c, rho), M c + s +/- rho M M^T n / |M^T n| on its
    image under y -> M y + s, where nested images compose into one M and s.
    """
    pts = np.atleast_2d(np.asarray(boundary_sample, dtype=float))
    if len(pts) == 0:
        raise PreconditionError("boundary sample must be nonempty")
    sym = dirset.symmetrized()
    witnesses = [x.copy() for x in pts if not any(illuminated(dom, x, e) for e in sym.dirs)]
    ball, M, s = dom, None, None  # dom = M ball + s; None stands for the identity
    while isinstance(ball, AffineImageRep):
        M, s = (ball.matrix, ball.shift) if M is None else (M @ ball.matrix, M @ ball.shift + s)
        ball = ball.base
    if isinstance(ball, BallRep) and not dirset.spans:
        n = np.linalg.svd(dirset.dirs)[2][-1]
        m = n if M is None else M.T @ n / np.linalg.norm(M.T @ n)
        ends = [ball.center + sign * ball.radius * m for sign in (1.0, -1.0)]
        witnesses += ends if M is None else [M @ y + s for y in ends]
    return len(witnesses) == 0, witnesses


def boundary_points(dom, n=256, seed=0):
    """Boundary sample by ray bisection from an interior anchor.

    For polytopes and their affine images the vertex list is always included:
    a direction that illuminates a vertex illuminates the faces around it, so
    illumination failures concentrate there.
    """
    rng = np.random.default_rng(seed)
    anchor = _interior_anchor(dom, rng)
    dirs = rng.standard_normal((n, dom.dim))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    pts = anchor + _ray_exit(dom, anchor, dirs)[:, None] * dirs
    if dom.vertices is not None:
        pts = np.vstack([dom.vertices, pts])
    return pts


def _ray_exit(dom, anchor, dirs):
    """Per row u of ``dirs``, the length t at which the ray anchor + t u leaves
    ``dom``, by 60 bisection steps on membership (all rays at once)."""
    lo = np.zeros(len(dirs))
    hi = np.full(len(dirs), 2.0 * float(np.linalg.norm(dom.bbox[1] - dom.bbox[0])) + 1.0)
    for _ in range(60):
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
    exact = dom.anchor()
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


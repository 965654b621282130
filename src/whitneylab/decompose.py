"""Domain decompositions whose pieces shift into the preceding union.

Every construction here outputs a ``DecompositionChain``: an ordered list of
pieces (E_0, ..., E_m) with one shift vector per later piece such that each
piece, translated backwards by 1..r multiples of its shift, lands inside the
union of the earlier pieces.  ``verify_chain`` checks that condition (and
coverage of a target domain) by rejection sampling.  The geometry is
geometry.py's: its one rejection sampler, union test, intersection and ray march.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import PreconditionError, SpanDeficiencyError
from . import geometry as geo
from .geometry import (
    Domain, DirectionSet, PolytopeRep, BallRep, UnionRep,
    ball, cone_body, direction_set, intersection, union, affine_image,
    domain_from_spec,
)

VERIFY_SAMPLES = 10_000
COVERAGE_SAMPLES = 100_000
COVERAGE_MISS_MAX = 1e-3


# ---------------------------------------------------------------------------
# chain container and verification
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class DecompositionChain:
    pieces: list
    shifts: np.ndarray  # (m, d); shifts[k-1] belongs to pieces[k]
    order: int
    dirset: DirectionSet
    provenance: str
    target: Optional[Domain] = None
    verified: bool = field(default=False, repr=False)

    def __post_init__(self):
        _check_order(self.order)
        self.shifts = np.atleast_2d(np.asarray(self.shifts, dtype=float)) \
            if len(self.pieces) > 1 else np.zeros((0, self.pieces[0].dim))
        if self.shifts.shape[0] != len(self.pieces) - 1:
            raise PreconditionError("need exactly one shift per piece after the first")
        for h in self.shifts:
            n = np.linalg.norm(h)
            if n == 0:
                raise PreconditionError("zero shift vector")
            u = h / n
            if np.min(np.linalg.norm(self.dirset.dirs - u, axis=1)) > 1e-12:
                raise PreconditionError("shift direction not in the declared direction set")

    @property
    def n_pieces(self):
        return len(self.pieces)

    def spec(self):
        return {
            "pieces": [p.spec() for p in self.pieces],
            "shifts": self.shifts.tolist(),
            "r": self.order,
            "dirs": self.dirset.dirs.tolist(),
            "provenance": self.provenance,
            "target": self.target.spec() if self.target is not None else None,
        }


def _check_order(r):
    """Every builder divides by r: a chain has order 1 or more."""
    if r < 1:
        raise PreconditionError(f"chain order r must be at least 1, got {r}")


def chain_from_spec(spec):
    boxes = {}  # pieces often repeat the target's polytopes: one LP solve each
    pieces = [domain_from_spec(s, boxes) for s in spec["pieces"]]
    target = domain_from_spec(spec["target"], boxes) if spec.get("target") else None
    return DecompositionChain(pieces, np.asarray(spec["shifts"], dtype=float),
                              int(spec["r"]), direction_set(spec["dirs"]),
                              spec.get("provenance", "unknown"), target)


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    worst_violation: float
    witnesses: list
    n_sampled: int
    coverage_ok: Optional[bool]
    coverage_miss_rate: Optional[float]


def _sample_in(dom, n, seed, max_factor=60):
    """Up to n uniform points of ``dom``; empty result means an empty piece."""
    if np.any(dom.bbox[1] <= dom.bbox[0]):
        return np.zeros((0, dom.dim))
    return geo.rejection_sample(dom, n, seed, max(2 * n, 512), max_factor * n + 4096,
                                stop_at_n=True)[0]


def _candidate_order(k, r):
    """Check the most recent pieces first, then the base, then the rest."""
    recent = list(range(k - 1, max(-1, k - 2 - 2 * r), -1))
    seen = set(recent)
    order = recent + ([0] if 0 not in seen else [])
    seen.add(0)
    order.extend(j for j in range(k - 1, 0, -1) if j not in seen)
    return order


def verify_chain(chain, samples_per_piece=VERIFY_SAMPLES, seed=0, tol_rel=1e-9,
                 coverage_samples=COVERAGE_SAMPLES, check_coverage=True,
                 max_witnesses=10):
    """Sample each piece and check its backward shifts land in the prior union.

    A piece with no sample fails the check unless its bounding box is flat,
    which proves it empty (``intersection`` of disjoint parts gives one)."""
    scale = chain.target.scale() if chain.target is not None else \
        max(p.scale() for p in chain.pieces)
    tol = tol_rel * scale
    slack = geo.MEMBERSHIP_SLACK * max(1.0, scale)
    r = chain.order
    worst = 0.0
    witnesses = []
    unsampled = False
    n_sampled = 0
    for k in range(1, chain.n_pieces):
        piece = chain.pieces[k]
        pts = _sample_in(piece, samples_per_piece, seed + 17 * k)
        if len(pts) == 0:
            if np.all(piece.bbox[1] > piece.bbox[0]):
                unsampled = True
                if len(witnesses) < max_witnesses:
                    witnesses.append({"piece": k, "reason": "not sampled: no member found "
                                      "and its bounding box is not flat"})
            continue
        n_sampled += len(pts)
        prior = UnionRep(tuple(chain.pieces[i] for i in _candidate_order(k, r)))
        h = chain.shifts[k - 1]
        for j in range(1, r + 1):
            shifted = geo._translate(pts, -j * h)
            inside = prior.member(shifted, slack)
            if not inside.all():
                dists = prior.violation(shifted[~inside])
                real = dists > tol
                if real.any():
                    worst = max(worst, float(dists.max()))
                    for x, dval in zip(pts[~inside][real][:max_witnesses], dists[real]):
                        if len(witnesses) < max_witnesses:
                            witnesses.append({"piece": k, "j": j,
                                              "point": x.tolist(),
                                              "violation": float(dval)})
    cov_ok = miss_rate = None
    if check_coverage and chain.target is not None:
        tpts = _sample_in(chain.target, coverage_samples, seed + 9999)
        if len(tpts):
            cover = UnionRep(tuple(chain.pieces[::-1]))
            block = 2 * VERIFY_SAMPLES  # bounds the per-part temporaries
            inside = np.concatenate([cover.member(tpts[i:i + block], slack)
                                     for i in range(0, len(tpts), block)])
            miss_rate = float(1.0 - inside.mean())
            cov_ok = miss_rate <= COVERAGE_MISS_MAX
    ok = worst == 0.0 and not unsampled  # witnesses are capped, failures are not
    chain.verified = ok
    return VerifyResult(ok, worst, witnesses, n_sampled, cov_ok, miss_rate)


# ---------------------------------------------------------------------------
# shared construction helpers
# ---------------------------------------------------------------------------

def _polytope_with_bbox(A, b, bbox):
    return Domain(A.shape[1], PolytopeRep(np.asarray(A, float), np.asarray(b, float)),
                  np.asarray(bbox, float))


def _stack_with_polytope(A, b, bbox, dom):
    """Intersect a raw half-space system with ``dom`` (flattened if polytope)."""
    clipped = intersection((_polytope_with_bbox(A, b, bbox), dom))
    if isinstance(dom.rep, PolytopeRep):
        return _polytope_with_bbox(np.vstack([A, dom.rep.A]),
                                   np.concatenate([b, dom.rep.b]), clipped.bbox)
    return clipped


def _piece_nonempty(piece, seed=0, n_probe=512):
    return len(_sample_in(piece, 1, seed, max_factor=n_probe)) > 0


def _perp_basis(xi):
    """Deterministic orthonormal basis of the hyperplane orthogonal to xi."""
    d = xi.size
    M = np.eye(d)
    M[:, 0] = xi
    q, _ = np.linalg.qr(M)
    # first column of q is +-xi; flip for sign stability
    if q[:, 0] @ xi < 0:
        q = -q
    return q[:, 1:].T  # (d-1, d)


def _dilate(dom, c):
    """Dilation about the origin by factor c > 0."""
    if isinstance(dom.rep, PolytopeRep):
        return _polytope_with_bbox(dom.rep.A, c * dom.rep.b, c * dom.bbox)
    if isinstance(dom.rep, BallRep):
        return ball(c * dom.rep.center, c * dom.rep.radius)
    return affine_image(dom, c * np.eye(dom.dim), np.zeros(dom.dim))


# ---------------------------------------------------------------------------
# star-shaped decomposition
# ---------------------------------------------------------------------------

def _check_star_shaped(dom, seed=0, n_points=256, n_dirs=12, n_lambda=8):
    rng = np.random.default_rng(seed)
    pts = _sample_in(dom, n_points, seed)
    if len(pts) == 0:
        raise PreconditionError("cannot sample the domain")
    dirs = rng.standard_normal((n_dirs, dom.dim))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    lams = np.linspace(0.0, 1.0, n_lambda)
    for x in pts:
        for lam in lams:
            probe = lam * x + (1.0 - lam) * dirs  # mixes x with unit-sphere points
            if not np.all(dom.contains(probe)):
                raise PreconditionError(
                    "domain is not star-shaped with respect to the unit ball",
                    witnesses=[x.tolist()])


def _sphere_cover(d, R, radius, seed=0):
    """Greedy centers on the sphere of radius R with covering radius ``radius``."""
    if d == 2:
        theta = np.linspace(0.0, 2.0 * math.pi, 8192, endpoint=False)
        cand = R * np.column_stack([np.cos(theta), np.sin(theta)])
    else:
        n = 8192
        idx = np.arange(n) + 0.5
        if d == 3:
            phi = np.arccos(1.0 - 2.0 * idx / n)
            golden = math.pi * (3.0 - math.sqrt(5.0))
            th = golden * idx
            cand = R * np.column_stack([np.sin(phi) * np.cos(th),
                                        np.sin(phi) * np.sin(th), np.cos(phi)])
        else:
            rng = np.random.default_rng(seed)
            cand = rng.standard_normal((n, d))
            cand = R * cand / np.linalg.norm(cand, axis=1)[:, None]
    centers = [cand[0]]
    dist = np.linalg.norm(cand - cand[0], axis=1)
    while dist.max() > 0.95 * radius:
        i = int(np.argmax(dist))
        centers.append(cand[i])
        dist = np.minimum(dist, np.linalg.norm(cand - cand[i], axis=1))
    return np.array(centers)


def star_shaped_decomposition(dom, r, seed=0):
    """Cube-plus-cone-slab chain for a domain star-shaped about the unit ball.

    The domain must already be normalized (unit ball inside, radius-R ball
    outside).  Each covering cone is cut into slabs whose thickness equals the
    shift step along the cone direction.
    """
    _check_order(r)
    d = dom.dim
    _check_star_shaped(dom, seed=seed)
    if isinstance(dom.rep, PolytopeRep):
        R = float(np.max(np.linalg.norm(dom.vertices(), axis=1)))
    elif isinstance(dom.rep, BallRep):
        R = float(np.linalg.norm(dom.rep.center) + dom.rep.radius)
    else:
        R = float(np.max(np.linalg.norm(geo._bbox_corners(dom.bbox), axis=1)))
    centers = _sphere_cover(d, R, 1.0 / (2.0 * d), seed=seed)
    xis = centers / np.linalg.norm(centers, axis=1)[:, None]

    side = 1.0 / math.sqrt(d)
    cube = geo.box(-side * np.ones(d), side * np.ones(d))
    pieces = [cube]
    shifts = []
    delta = 0.999 * math.sqrt(3.0 * d + 1.0) / (2.0 * d * r)
    half = 1.0 / (2.0 * d)

    plan_pts = _sample_in(dom, 4096, seed + 1)
    for xi in xis:
        U = _perp_basis(xi)
        # extent of the domain inside this cone's extruded box
        if isinstance(dom.rep, PolytopeRep):
            from scipy.optimize import linprog
            A = np.vstack([U, -U, dom.rep.A])
            b = np.concatenate([half * np.ones(2 * (d - 1)), dom.rep.b])
            res = linprog(-xi, A_ub=A, b_ub=b, bounds=[(None, None)] * d, method="highs")
            t_max = -res.fun if res.status == 0 else 0.0
        else:
            mask = np.all(np.abs(plan_pts @ U.T) <= half, axis=1)
            t_max = float(np.max(plan_pts[mask] @ xi, initial=0.0)) + delta
        n_slab = int(math.ceil(max(t_max, 0.0) / delta))
        for i in range(1, n_slab + 1):
            A_slab = np.vstack([U, -U, xi[None, :], -xi[None, :]])
            b_slab = np.concatenate([half * np.ones(2 * (d - 1)),
                                     [i * delta, -(i - 1) * delta]])
            corners = _box_corners_frame(U, xi, half, (i - 1) * delta, i * delta)
            bbox = np.vstack([corners.min(axis=0), corners.max(axis=0)])
            piece = _stack_with_polytope(A_slab, b_slab, bbox, dom)
            if not _piece_nonempty(piece, seed=seed + i):
                break
            pieces.append(piece)
            shifts.append(delta * xi)
    chain = DecompositionChain(pieces, np.array(shifts), r,
                               direction_set(xis), "star_shaped", target=dom)
    return chain


def _box_corners_frame(U, xi, half, t_lo, t_hi):
    dm1 = U.shape[0]
    corners = []
    for k in range(1 << dm1):
        y = np.array([half if (k >> i) & 1 else -half for i in range(dm1)])
        base = y @ U
        corners.append(base + t_lo * xi)
        corners.append(base + t_hi * xi)
    return np.array(corners)


# ---------------------------------------------------------------------------
# planar two-direction chain
# ---------------------------------------------------------------------------

def _parallelogram_dirs(dom):
    """Edge directions if the planar domain is a parallelogram, else None."""
    verts = dom.rep.vertices
    if dom.dim != 2 or verts is None or len(verts) != 4:
        return None
    c = verts.mean(axis=0)
    v = verts - c
    # vertices of a parallelogram pair up antipodally about the center
    used = np.zeros(4, dtype=bool)
    for i in range(4):
        if used[i]:
            continue
        j = int(np.argmin(np.linalg.norm(v + v[i], axis=1) + 1e9 * used))
        if np.linalg.norm(v[j] + v[i]) > 1e-9 * dom.scale():
            return None
        used[i] = used[j] = True
    order = np.argsort(np.arctan2(v[:, 1], v[:, 0]))
    e1 = verts[order[1]] - verts[order[0]]
    e2 = verts[order[3]] - verts[order[0]]
    return direction_set([e1 / np.linalg.norm(e1), e2 / np.linalg.norm(e2)])


def planar_two_direction_chain(dom, r=1):
    """Two-direction chain for a normalized planar convex body.

    Picks the diameter direction and its perpendicular, seeds the chain with
    the largest inscribed axis-aligned (in the rotated frame) square centered
    on the diameter chord, then covers the chord strip with vertical slabs
    and the rest with horizontal slabs, each of thickness equal to its shift.
    """
    _check_order(r)
    if dom.dim != 2:
        raise PreconditionError("planar chain requires dimension 2")
    if not isinstance(dom.rep, (PolytopeRep, BallRep)):
        raise PreconditionError("planar chain requires a convex polytope or ball")

    # a parallelepiped is its own base piece, whatever its scale
    para = _parallelogram_dirs(dom)
    if para is not None:
        chain = DecompositionChain([dom], np.zeros((0, 2)), r, para,
                                   "planar", target=dom)
        return chain, para

    if geo.signed_boundary_distance(dom, np.zeros(2)) > -(1.0 - 1e-9):
        raise PreconditionError("domain must be normalized to contain the unit ball")

    if isinstance(dom.rep, PolytopeRep):
        verts = dom.vertices()
        besti, bestj, best = 0, 0, -1.0
        for i in range(len(verts)):
            dists = np.linalg.norm(verts - verts[i], axis=1)
            j = int(np.argmax(dists))
            if dists[j] > best:
                besti, bestj, best = i, j, float(dists[j])
        a, b = verts[besti], verts[bestj]
    else:
        c, rho = dom.rep.center, dom.rep.radius
        a, b = c - rho * np.array([0.0, 1.0]), c + rho * np.array([0.0, 1.0])
    L = float(np.linalg.norm(b - a))
    xi1 = (b - a) / L
    xi2 = np.array([-xi1[1], xi1[0]])
    x0 = float(xi2 @ a)

    # largest square centered on the chord line, axes (xi2, xi1)
    if isinstance(dom.rep, PolytopeRep):
        from scipy.optimize import linprog
        A, bb = dom.rep.A, dom.rep.b
        a1 = A @ xi1
        a2 = A @ xi2
        rows = []
        rhs = []
        for s1 in (-1.0, 1.0):
            for s2 in (-1.0, 1.0):
                rows.append(np.column_stack([a1, s1 * a1 + s2 * a2]))
                rhs.append(bb - x0 * a2)
        A_lp = np.vstack(rows)
        b_lp = np.concatenate(rhs)
        res = linprog(np.array([0.0, -1.0]), A_ub=A_lp, b_ub=b_lp,
                      bounds=[(None, None), (1e-12, None)], method="highs")
        if res.x is None:
            raise PreconditionError("no inscribed square centered on the chord")
        y_c, w = float(res.x[0]), float(res.x[1])
    else:
        c, rho = dom.rep.center, dom.rep.radius
        dx = abs(x0 - float(xi2 @ c))
        y_c = float(xi1 @ c)
        w = 0.5 * (-dx + math.sqrt(max(2.0 * rho * rho - dx * dx, 0.0)))
    if w <= 0:
        raise PreconditionError("degenerate inscribed square")

    def frame_poly(x2_lo, x2_hi, x1_lo, x1_hi):
        A = np.vstack([xi2, -xi2, xi1, -xi1])
        b_ = np.array([x2_hi, -x2_lo, x1_hi, -x1_lo])
        corners = np.array([[lo2, lo1] for lo2 in (x2_lo, x2_hi) for lo1 in (x1_lo, x1_hi)])
        pts = corners[:, 0][:, None] * xi2 + corners[:, 1][:, None] * xi1
        bbox = np.vstack([pts.min(axis=0), pts.max(axis=0)])
        return A, b_, bbox

    A_sq, b_sq, bbox_sq = frame_poly(x0 - w, x0 + w, y_c - w, y_c + w)
    square = _polytope_with_bbox(A_sq, b_sq, bbox_sq)
    pieces = [square]
    shifts = []
    delta = 0.999 * w / r

    if isinstance(dom.rep, PolytopeRep):
        y_lo = float(np.min(dom.vertices() @ xi1))
        y_hi = float(np.max(dom.vertices() @ xi1))
        x_lo = float(np.min(dom.vertices() @ xi2))
        x_hi = float(np.max(dom.vertices() @ xi2))
    else:
        c, rho = dom.rep.center, dom.rep.radius
        y_lo, y_hi = float(xi1 @ c) - rho, float(xi1 @ c) + rho
        x_lo, x_hi = float(xi2 @ c) - rho, float(xi2 @ c) + rho

    def add_slabs(lo_start, extent_hi, axis_vec, sign, strip):
        """March slabs of thickness delta from lo_start towards extent_hi."""
        n = int(math.ceil(max(extent_hi - lo_start, 0.0) / delta))
        for i in range(1, n + 1):
            t_lo = lo_start + (i - 1) * delta
            t_hi = lo_start + i * delta
            if axis_vec is xi1:
                lo1, hi1 = (t_lo, t_hi) if sign > 0 else (-t_hi, -t_lo)
                A_s, b_s, bb = frame_poly(x0 - w, x0 + w, lo1, hi1) if strip else (None,) * 3
            else:
                lo2, hi2 = (t_lo, t_hi) if sign > 0 else (-t_hi, -t_lo)
                A_s, b_s, bb = frame_poly(lo2, hi2, y_lo, y_hi)
            piece = _stack_with_polytope(A_s, b_s, bb, dom)
            if not _piece_nonempty(piece, seed=1 + i):
                break
            pieces.append(piece)
            shifts.append(sign * delta * axis_vec)

    # vertical slabs over the chord strip, up then down (signed coordinates)
    add_slabs(y_c + w, y_hi, xi1, +1.0, strip=True)
    add_slabs(-(y_c - w), -y_lo, xi1, -1.0, strip=True)
    # horizontal slabs over the full height, right then left
    add_slabs(x0 + w, x_hi, xi2, +1.0, strip=False)
    add_slabs(-(x0 - w), -x_lo, xi2, -1.0, strip=False)

    sym = direction_set([xi1, xi2]).symmetrized()
    chain = DecompositionChain(pieces, np.array(shifts), r, sym, "planar", target=dom)
    return chain, direction_set([xi1, xi2])


# ---------------------------------------------------------------------------
# ball slices
# ---------------------------------------------------------------------------

def _slice_pieces(center, rho, symdirs, eps0, r, clip_to=None, drop_empty=True):
    """Directional slices of the sigma-dilated ball around (center, rho).

    Each slice translated backwards by 1..r steps of (eps0 rho / 2r) along its
    direction lands inside the undilated ball.
    """
    sigma = 1.0 + eps0 * eps0 / (4.0 * r)
    pieces = []
    shifts = []
    for xi in symdirs.dirs:
        cone = cone_body(xi, 1.0 - eps0)
        slice_dom = intersection((ball(center, sigma * rho),
                                  affine_image(cone, sigma * rho * np.eye(len(center)),
                                               np.asarray(center, float))))
        if clip_to is not None:
            slice_dom = intersection((slice_dom, clip_to))
        if drop_empty and not _piece_nonempty(slice_dom, seed=7):
            continue
        pieces.append(slice_dom)
        shifts.append((eps0 / (2.0 * r)) * rho * xi)
    return pieces, shifts, sigma


def ball_direction_slices(B, dirset, r):
    """Chain fragment growing a ball to its sigma-dilation via cone slices."""
    _check_order(r)
    if not isinstance(B.rep, BallRep):
        raise PreconditionError("ball_direction_slices needs a ball domain")
    eps0 = dirset.spread
    if eps0 <= 0.0:
        raise SpanDeficiencyError("direction set must span the space")
    sym = dirset.symmetrized()
    center, rho = B.rep.center, B.rep.radius
    pieces, shifts, sigma = _slice_pieces(center, rho, sym, eps0, r,
                                          drop_empty=False)
    chain = DecompositionChain([B] + pieces, np.array(shifts), r, sym,
                               "ball_slices", target=ball(center, sigma * rho))
    return chain


# ---------------------------------------------------------------------------
# Lip-2 ball chain
# ---------------------------------------------------------------------------

def _ball_inside(dom, centers, delta, n_probe=128):
    """Whether the closed delta-ball at each center lies inside the domain."""
    centers = np.atleast_2d(centers)
    d = dom.dim
    if d == 2:
        th = np.linspace(0.0, 2.0 * math.pi, n_probe, endpoint=False)
        probes = np.column_stack([np.cos(th), np.sin(th)])
    else:
        rng = np.random.default_rng(4)
        probes = rng.standard_normal((max(n_probe, 64 * d), d))
        probes /= np.linalg.norm(probes, axis=1)[:, None]
    ok = dom.contains(centers)
    for u in probes:
        idx = ok.nonzero()[0]
        if idx.size == 0:
            break
        ok[idx] = dom.contains(geo._translate(np.take(centers, idx, axis=0), delta * u))
    return ok


def _nearest_dist(pts, centers):
    """Per row of ``pts``, the distance to the nearest row of ``centers``,
    64 rows at a time so the pairwise temporary stays small."""
    out = np.empty(len(pts))
    for i in range(0, len(pts), 64):
        out[i:i + 64] = np.min(np.linalg.norm(pts[i:i + 64, None, :]
                                              - centers[None, :, :], axis=2), axis=1)
    return out


def lip2_ball_chain(dom, dirset, delta, r=1, seed=0):
    """Ball-cover chain for a domain whose every point sits in an inner ball.

    Checks the inner-ball property by sampling (failure names a witness
    point), covers the domain with overlapping inner balls ordered into a
    connected walk, and expands each link with directional ball slices so
    that every shift direction comes from the given set.
    """
    _check_order(r)
    eps0 = dirset.spread
    if eps0 <= 0.0:
        raise SpanDeficiencyError("direction set must span the space")
    d = dom.dim
    sym = dirset.symmetrized()
    sigma = 1.0 + eps0 * eps0 / (4.0 * r)

    # feasible centers are tested at a slightly shrunken work radius: the
    # inner-ball property is tight (boundary points touch with zero slack)
    # and would otherwise be undecidable by sampling.  The shrink must stay
    # well below the shell sigma - 1 that provides the coverage margin.
    margin = sigma - 1.0
    delta_w = (1.0 - margin / 4.0) * delta
    pool_target = int(min(6144, max(256, 16.0 / margin ** 2)))
    feas = np.zeros((0, d))
    n_cand = 4096
    while len(feas) < pool_target and n_cand <= 65536:
        cand = _sample_in(dom, n_cand, seed + 1)
        feas = cand[_ball_inside(dom, cand, delta_w)]
        n_cand *= 4
    check_pts = _sample_in(dom, 600, seed + 2)
    if len(feas) == 0:
        raise PreconditionError("no inner ball of the requested radius fits",
                                witnesses=[check_pts[0].tolist()] if len(check_pts) else [])
    dists = _nearest_dist(check_pts, feas)
    bad = dists > (1.0 + margin / 4.0) * delta
    if bad.any():
        raise PreconditionError(
            "inner-ball (Lip-2) check failed: sampled point has no containing ball",
            witnesses=[check_pts[int(np.argmax(dists))].tolist()])
    delta = delta_w

    # greedy cover with spacing, then patch uncovered samples
    spacing = 0.55 * delta
    chosen = [feas[0]]
    for c in feas:
        if np.min(np.linalg.norm(np.array(chosen) - c, axis=1)) > spacing:
            chosen.append(c)
    centers = np.array(chosen)
    cover_d = _nearest_dist(check_pts, centers)
    for i in np.nonzero(cover_d > delta)[0]:
        j = int(np.argmin(np.linalg.norm(feas - check_pts[i], axis=1)))
        if np.linalg.norm(centers - feas[j], axis=1).min() > 1e-9 * delta:
            centers = np.vstack([centers, feas[j]])

    # connected walk over the cover graph
    n = len(centers)
    for threshold in (0.95 * delta, 1.3 * delta, 1.9 * delta):
        adj = np.linalg.norm(centers[:, None, :] - centers[None, :, :], axis=2) <= threshold
        np.fill_diagonal(adj, False)
        seen = {0}
        frontier = [0]
        while frontier:
            u = frontier.pop()
            for v in np.nonzero(adj[u])[0]:
                if int(v) not in seen:
                    seen.add(int(v))
                    frontier.append(int(v))
        if len(seen) == n:
            break
    else:
        raise PreconditionError("disconnected cover graph at the requested radius")
    # depth-first walk with explicit backtracking (pieces may repeat)
    walk = [0]
    visited = {0}
    dfs_stack = [(0, iter(np.nonzero(adj[0])[0]))]
    while dfs_stack:
        u, neighbors = dfs_stack[-1]
        for v in neighbors:
            v = int(v)
            if v not in visited:
                visited.add(v)
                walk.append(v)
                dfs_stack.append((v, iter(np.nonzero(adj[v])[0])))
                break
        else:
            dfs_stack.pop()
            if dfs_stack:
                walk.append(dfs_stack[-1][0])

    pieces = []
    shifts = []

    # seed: parallelepiped spanned by d independent directions at the first center
    c0 = centers[walk[0]]
    frame = _independent_subset(dirset.dirs, d)
    Binv = np.linalg.inv(frame.T)
    A_h = np.vstack([Binv, -Binv])
    b_h = np.concatenate([Binv @ c0 + delta / d, -(Binv @ c0) + delta / d])
    corners = np.array([c0 + delta * (z @ frame)
                        for z in geo._bbox_corners(np.vstack([-np.ones(d) / d,
                                                              np.ones(d) / d]))])
    seedp = _polytope_with_bbox(A_h, b_h, np.vstack([corners.min(axis=0),
                                                     corners.max(axis=0)]))
    pieces.append(seedp)

    def add_slices(center, rho):
        ps, ss, _ = _slice_pieces(center, rho, sym, eps0, r, clip_to=dom)
        pieces.extend(ps)
        shifts.extend(ss)

    def grow(center, rho_from, rho_to):
        rho = rho_from
        while rho < rho_to - 1e-12 * delta:
            add_slices(center, rho)
            rho = min(sigma * rho, rho_to)

    def walk_ball(c_from, c_to, rho):
        step = 0.98 * (sigma - 1.0) * rho
        vec = c_to - c_from
        dist = float(np.linalg.norm(vec))
        n_steps = int(math.ceil(dist / step)) if dist > 0 else 0
        m = c_from
        for i in range(1, n_steps + 1):
            add_slices(m, rho)
            m = c_from + vec * min(i * step / dist, 1.0)
        return m

    # grow the seed ball to the full shell at the first center
    grow(c0, eps0 * delta / d, delta)
    add_slices(c0, delta)

    covered = {walk[0]}
    for prev, nxt in zip(walk[:-1], walk[1:]):
        if nxt in covered:
            continue
        c_prev, c_next = centers[prev], centers[nxt]
        gap = float(np.linalg.norm(c_next - c_prev))
        rho0 = delta - 0.5 * gap
        if rho0 <= 0.05 * delta:
            raise PreconditionError("cover walk step too large for the overlap ball")
        m = 0.5 * (c_prev + c_next)
        m = walk_ball(m, c_next, rho0)
        grow(c_next, rho0, delta)
        add_slices(c_next, delta)
        covered.add(nxt)

    return DecompositionChain(pieces, np.array(shifts), r, sym, "lip2", target=dom)


def _independent_subset(dirs, d):
    """First d rows forming an invertible frame (QR-pivot order)."""
    chosen = []
    for v in dirs:
        if len(chosen) == d:
            break
        test = np.vstack(chosen + [v]) if chosen else v[None, :]
        if np.linalg.matrix_rank(test, tol=1e-10) == len(test):
            chosen.append(v)
    if len(chosen) < d:
        raise SpanDeficiencyError("direction set must span the space")
    return np.array(chosen)


# ---------------------------------------------------------------------------
# x-ray slab decomposition
# ---------------------------------------------------------------------------

def _slab_thickness(dom, c0, c1, r, diam):
    """Largest delta in [0, diam] with c0 dom + B(r delta) inside c1 dom (to 1e-15):
    min_i (c1 b_i - c0 h_i) / (r |a_i|) over the facets a_i . x <= b_i, with
    h_i = max_v a_i . v over the vertices; (c1 - c0)(rho - |c|) / r for a ball."""
    if isinstance(dom.rep, PolytopeRep):
        A, b = dom.rep.A, dom.rep.b
        h = np.max(dom.vertices() @ A.T, axis=0)
        room = np.min((c1 * b + 1e-15 - c0 * h) / (r * np.linalg.norm(A, axis=1)))
    else:
        c, rho = dom.rep.center, dom.rep.radius
        room = (c1 * rho + 1e-15 - (c1 - c0) * np.linalg.norm(c) - c0 * rho) / r
    return float(np.clip(room, 0.0, diam))


def _minkowski_segment(base, e, t1, t2, clip_dom):
    """(base + [-t2, -t1] e) clipped to ``clip_dom``, as a representable domain."""
    d = base.dim
    if isinstance(base.rep, PolytopeRep):
        from scipy.spatial import ConvexHull
        verts = base.vertices()
        pts = np.vstack([verts - t1 * e, verts - t2 * e])
        hull = ConvexHull(pts)
        A = hull.equations[:, :d]
        b = -hull.equations[:, d]
        bbox = np.vstack([pts.min(axis=0), pts.max(axis=0)])
        return _stack_with_polytope(A, b, bbox, clip_dom)
    if isinstance(base.rep, BallRep):
        c, rho = base.rep.center, base.rep.radius
        p1, p2 = c - t1 * e, c - t2 * e
        parts = [ball(p1, rho), ball(p2, rho)]
        if d == 2:
            u = (p2 - p1) / np.linalg.norm(p2 - p1)
            v = np.array([-u[1], u[0]])
            A = np.vstack([u, -u, v, -v])
            b = np.array([u @ p2, -(u @ p1), v @ p1 + rho, -(v @ p1) + rho])
            corners = np.array([p + s * rho * v for p in (p1, p2) for s in (-1, 1)])
            parts.append(_polytope_with_bbox(A, b,
                                             np.vstack([corners.min(axis=0),
                                                        corners.max(axis=0)])))
        else:
            for t in np.linspace(t1, t2, 33):
                parts.append(ball(c - t * e, rho))
        return intersection((union(parts), clip_dom))
    raise PreconditionError("x-ray slabs support polytope and ball domains")


def xray_slab_decomposition(dom, dirset, n0=1, r=1, n0_cap=12, seed=0):
    """Slab chain along the +/- ray directions of an x-rayed convex body.

    The base piece is a shrunken copy of the body; each direction contributes
    slabs of depth-delta ray segments whose forward shifts land in earlier
    slabs or the base.  Fails loudly if the boundary is not illuminated or no
    shrink index up to the cap yields a ray cover.
    """
    _check_order(r)
    d = dom.dim
    if n0 < 0:
        raise PreconditionError(f"shrink index n0 must be nonnegative, got {n0}")
    if not isinstance(dom.rep, (PolytopeRep, BallRep)):
        raise PreconditionError("x-ray slabs support polytope and ball domains")
    if not dom.strictly_inside(np.zeros(d)):
        raise PreconditionError("the origin must be interior to the domain")
    bpts = geo.boundary_points(dom, n=128, seed=seed)
    ok, wit = geo.xray_verifies(dom, dirset, bpts)
    if not ok:
        raise PreconditionError(
            "direction set does not x-ray the domain",
            witnesses=[w.tolist() for w in wit[:8]])
    sym = dirset.symmetrized()
    diam = geo.diameter(dom).value
    plan_pts = _sample_in(dom, 2048, seed + 3)

    for n in range(n0, n0_cap + 1):
        inner = _dilate(dom, 1.0 - 1.0 / (n + 2.0))
        reached = np.zeros(len(plan_pts), dtype=bool)
        for e in sym.dirs:
            sub = (~reached).nonzero()[0]
            if sub.size == 0:
                break
            reached[sub] = geo.ray_march(inner, plan_pts[sub], e, 2.0 * diam, 512)
        if reached.all():
            break
    else:
        raise PreconditionError(f"no shrink index up to {n0_cap} gives a ray cover")

    c0 = 1.0 - 1.0 / (n + 2.0)
    c1 = 1.0 - 1.0 / (n + 4.0)
    S0 = _dilate(dom, c0)
    S1 = _dilate(dom, c1)

    delta = 0.999 * _slab_thickness(dom, c0, c1, r, diam)
    if delta <= 0:
        raise PreconditionError("slab thickness collapsed to zero")

    pieces = [S1]
    shifts = []
    for e in sym.dirs:
        max_j = int(math.ceil(diam / delta)) + 2
        for j in range(1, max_j + 1):
            t1 = (r + j - 1) * delta
            t2 = (r + j) * delta
            piece = _minkowski_segment(S0, e, t1, t2, dom)
            if not _piece_nonempty(piece, seed=seed + j):
                break
            pieces.append(piece)
            shifts.append(-delta * e)
    return DecompositionChain(pieces, np.array(shifts), r, sym, "xray", target=dom)

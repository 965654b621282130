"""Domain decompositions whose pieces shift into the preceding union.

Every construction here outputs a ``DecompositionChain``: an ordered list of
pieces (E_0, ..., E_m) with one shift vector per later piece such that each
piece, translated backwards by 1..r multiples of its shift, lands inside the
union of the earlier pieces.  ``verify_chain`` checks that condition (and
coverage of a target domain) by rejection sampling, except for the ball
slices that closed-form inequalities prove (``_certified_pieces``).  The geometry
is geometry.py's: its one rejection sampler, union test, intersection and ray
march.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull

from .errors import PreconditionError, SpanDeficiencyError
from . import geometry as geo
from .geometry import (
    Domain, DirectionSet, PolytopeRep, BallRep, ConeBodyRep, UnionRep, IntersectionRep,
    AffineImageRep,
    ball, cone_body, direction_set, intersection, union, affine_image,
    domain_from_spec,
)

VERIFY_SAMPLES = 10_000
VERIFY_TOL_REL = 1e-9  # violations up to this times the chain's scale pass
MAX_WITNESSES = 10
COVERAGE_SAMPLES = 100_000
COVERAGE_MISS_MAX = 1e-3
XRAY_N0_CAP = 12  # the largest shrink index an x-ray slab chain tries


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
    method: str  # "construction" when _certified_pieces proves every piece, else "sampled"


def _sample_in(dom, n, seed, max_factor=60):
    """Up to n uniform points of ``dom``; empty result means an empty piece."""
    if np.any(dom.bbox[1] <= dom.bbox[0]):
        return np.zeros((0, dom.dim))
    return geo.rejection_sample(dom, n, seed, max(2 * n, 512), max_factor * n + 4096,
                                stop_at_n=True)[0]


def _candidate_order(k, r):
    """Check the 2r + 1 most recent pieces first, then the base, then the rest."""
    lo = max(0, k - 1 - 2 * r)
    return [*range(k - 1, lo - 1, -1), *([0] if lo > 0 else []), *range(lo - 1, 0, -1)]


def verify_chain(chain, samples_per_piece=VERIFY_SAMPLES, seed=0, check_coverage=True):
    """Check that each piece's backward shifts land in the prior union.

    A ball slice that ``_certified_pieces`` proves is not sampled; every other
    piece is, and ``method`` says which way the chain passed.  That proof
    rests on one premise it cannot get in closed form for every target: each
    ball B(c, rho) it shifts into lies in the target.  It is exact for a
    polytope or ball target and otherwise as strong as ``_ball_inside``'s
    probes, the test the lip2 builder accepts its inner balls by, so a notch
    thinner than the probe spacing passes both.  A sampled piece with no
    sample fails the check unless its bounding box is flat, which proves it
    empty (``intersection`` of disjoint parts gives one).  Coverage of the
    target is always sampled."""
    scale = chain.target.scale() if chain.target is not None else \
        max(p.scale() for p in chain.pieces)
    tol = VERIFY_TOL_REL * scale
    slack = geo.MEMBERSHIP_SLACK * max(1.0, scale)
    r = chain.order
    worst = 0.0
    witnesses = []
    unsampled = False
    n_sampled = 0
    certified = _certified_pieces(chain, tol)
    for k in range(1, chain.n_pieces):
        if k in certified:
            continue
        piece = chain.pieces[k]
        pts = _sample_in(piece, samples_per_piece, seed + 17 * k)
        if len(pts) == 0:
            if np.all(piece.bbox[1] > piece.bbox[0]):
                unsampled = True
                if len(witnesses) < MAX_WITNESSES:
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
                    for x, dval in zip(pts[~inside][real][:MAX_WITNESSES], dists[real]):
                        if len(witnesses) < MAX_WITNESSES:
                            witnesses.append({"piece": k, "j": j,
                                              "point": x.tolist(),
                                              "violation": float(dval)})
    cov_ok = miss_rate = None
    if check_coverage and chain.target is not None:
        tpts = _sample_in(chain.target, COVERAGE_SAMPLES, seed + 9999)
        if len(tpts):
            cover = UnionRep(tuple(chain.pieces[::-1]))
            block = 2 * VERIFY_SAMPLES  # bounds the per-part temporaries
            inside = np.concatenate([cover.member(tpts[i:i + block], slack)
                                     for i in range(0, len(tpts), block)])
            miss_rate = float(1.0 - inside.mean())
            cov_ok = miss_rate <= COVERAGE_MISS_MAX
    ok = worst == 0.0 and not unsampled  # witnesses are capped, failures are not
    chain.verified = ok
    method = "construction" if certified and len(certified) == chain.n_pieces - 1 \
        else "sampled"
    return VerifyResult(ok, worst, witnesses, n_sampled, cov_ok, miss_rate, method)


# ---------------------------------------------------------------------------
# the ball-slice certificate
# ---------------------------------------------------------------------------
# A slice S = {x in target : |x - c| <= R, (x - c) . xi >= e |x - c|} with
# shift h, translated back by j h (j = 1..r), stays in B(c, rho), rho its
# reach (``_slice_reach``).  A round, a run of consecutive slices about one
# centre with one radius, shifts into the ball B(c, rho) of its largest
# reach.  That ball lies in earlier pieces when it lies in the seed polytope,
# or in the target and in B(c', R') of an earlier round whose slices reach
# every direction (one per direction of the symmetric set, openings
# e' <= spread): those slices cover B(c', R') within the target.  Each
# inequality is read off the pieces' own parts and the chain's shifts; its
# excess is how far a point can end up outside (a distance, <= 0 when it
# holds).  A round whose excess is at most ``tol`` lands within tol of the
# earlier pieces, which is what sampling accepts.  The cover search's
# argmins are the rounds' dependency edges.

def _slice_shape(piece, target):
    """(center, R, xi, e) when ``piece`` is ball(c, R) intersected with
    c + R cone_body(xi, 1 - e) and then with ``target`` (the same object, or
    one with the same spec, as in a chain read back from its file), else None."""
    match piece:
        case IntersectionRep(parts=(IntersectionRep(parts=(
                BallRep(center=c, radius=R),
                AffineImageRep(base=ConeBodyRep(xi=xi, eps=eps), matrix=M, shift=s))), clip)):
            if np.array_equal(s, c) and np.array_equal(M, R * np.eye(c.size)) \
                    and (clip is target or clip.spec() == target.spec()):
                return c, R, xi, 1.0 - eps
    return None


def _slice_reach(R, xi, e, h, r):
    """max over the slice (R, xi, e) about c and j = 1..r of |x - c - j h|.
    With s = |x - c|, (x - c) . h >= k s for k = min(e a, a) - |h - a xi|,
    a = h . xi, so |x - c - j h|^2 is at most s^2 - 2 j k s + j^2 |h|^2:
    convex in s, largest at s = 0 or s = R."""
    a = float(h @ xi)
    k = min(e * a, a) - float(np.linalg.norm(h - a * xi))
    j = np.arange(1, r + 1, dtype=float)
    hh = float(h @ h)
    far = np.sqrt(np.maximum(R * R - 2.0 * j * k * R + j * j * hh, 0.0))
    return float(np.max(np.maximum(far, j * math.sqrt(hh))))


def _slice_rounds(chain):
    """The rounds of ``chain``: [first piece, stop, shapes] per run of
    consecutive ``_slice_shape`` pieces about one centre with one radius."""
    rounds = []
    for k in range(1, chain.n_pieces):
        sh = _slice_shape(chain.pieces[k], chain.target)
        if sh is None:
            continue
        if rounds and rounds[-1][1] == k and rounds[-1][2][0][1] == sh[1] \
                and np.array_equal(rounds[-1][2][0][0], sh[0]):
            rounds[-1][1] = k + 1
            rounds[-1][2].append(sh)
        else:
            rounds.append([k, k + 1, [sh]])
    return rounds


def _certified_pieces(chain, tol):
    """The ball slices whose backward shifts provably land in earlier pieces
    (see above); empty for a chain without a target or without slices.
    Whether B(c, rho) lies in the target is exact for a polytope or a ball
    and decided by ``_ball_inside``'s probes otherwise."""
    rounds = _slice_rounds(chain) if chain.target is not None else []
    if not rounds:
        return set()
    centers = np.array([sh[0][0] for _, _, sh in rounds])
    radii = np.array([sh[0][1] for _, _, sh in rounds])
    reach = np.array([max(_slice_reach(R, xi, e, chain.shifts[k - 1], chain.order)
                          for k, (_, R, xi, e) in enumerate(sh, start))
                      for start, _, sh in rounds])
    # how far a round's slices miss B(c', R') within the target: inf when a
    # direction has no slice; an opening past the spread misses directions
    # by an angle of at most (e - spread) / sqrt(1 - e^2), so by points
    # within R' times that
    spread = chain.dirset.spread
    signed = np.vstack([chain.dirset.dirs, -chain.dirset.dirs])
    miss = np.full(len(rounds), math.inf)
    for i, (_, _, sh) in enumerate(rounds):
        xis = np.array([s[2] for s in sh])
        if np.linalg.norm(signed[:, None, :] - xis[None, :, :], axis=2).min(axis=1).max() \
                <= 1e-12:
            e = max(s[3] for s in sh)
            miss[i] = radii[i] * max(e - spread, 0.0) / math.sqrt(1.0 - e * e)
    cover = np.full(len(rounds), math.inf)  # the best earlier round's excess
    for i in range(1, len(rounds)):
        gap = np.linalg.norm(centers[:i] - centers[i], axis=1) + reach[i] - radii[:i]
        cover[i] = np.min(np.maximum(gap, 0.0) + miss[:i])
    # B(c, rho) lies in a domain with a signed distance sd iff sd(c) + rho <= 0
    seed = chain.pieces[0].signed_distance(centers) + reach \
        if hasattr(chain.pieces[0], "signed_distance") else np.full(len(rounds), math.inf)
    host = chain.target.signed_distance(centers) + reach \
        if hasattr(chain.target, "signed_distance") \
        else np.where(_ball_inside(chain.target, centers, reach), 0.0, math.inf)
    ok = (seed <= tol) | (np.maximum(host, 0.0) + cover <= tol)
    return {k for (start, stop, _), good in zip(rounds, ok) if good
            for k in range(start, stop)}


# ---------------------------------------------------------------------------
# shared construction helpers
# ---------------------------------------------------------------------------

def _stack_with_polytope(A, b, bbox, dom):
    """Intersect a raw half-space system with ``dom`` (flattened if polytope)."""
    clipped = intersection((PolytopeRep(A, b, bbox), dom))
    if isinstance(dom, PolytopeRep):
        return PolytopeRep(np.vstack([A, dom.A]), np.concatenate([b, dom.b]), clipped.bbox)
    return clipped


def _piece_nonempty(piece, seed):
    return len(_sample_in(piece, 1, seed, max_factor=512)) > 0


def _march(pieces, shifts, n, piece_at, shift, seed):
    """Append piece_at(i) with ``shift`` for i = 1..n, up to the first piece
    that ``_piece_nonempty`` at seed + i finds empty."""
    for i in range(1, n + 1):
        piece = piece_at(i)
        if not _piece_nonempty(piece, seed=seed + i):
            break
        pieces.append(piece)
        shifts.append(shift)


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
    """Dilation about the origin by factor c > 0 of a polytope or a ball."""
    if isinstance(dom, BallRep):
        return ball(c * dom.center, c * dom.radius)
    return PolytopeRep(dom.A, c * dom.b, c * dom.bbox)


# ---------------------------------------------------------------------------
# star-shaped decomposition
# ---------------------------------------------------------------------------

def _check_star_shaped(dom, seed):
    rng = np.random.default_rng(seed)
    pts = _sample_in(dom, 256, seed)
    if len(pts) == 0:
        raise PreconditionError("cannot sample the domain")
    dirs = rng.standard_normal((12, dom.dim))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    lams = np.linspace(0.0, 1.0, 8)[:, None, None]
    # probes[i, l, k] mixes sample i with unit-sphere point k at weight lams[l]
    probes = lams * pts[:, None, None, :] + (1.0 - lams) * dirs
    ok = dom.contains(probes.reshape(-1, dom.dim)).reshape(len(pts), -1).all(axis=1)
    if not ok.all():
        raise PreconditionError("domain is not star-shaped with respect to the unit ball",
                                witnesses=[pts[int(np.argmin(ok))].tolist()])


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
    _check_star_shaped(dom, seed)
    if isinstance(dom, PolytopeRep):
        R = float(np.max(np.linalg.norm(dom.vertices, axis=1)))
    elif isinstance(dom, BallRep):
        R = float(np.linalg.norm(dom.center) + dom.radius)
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

    # the plan measures extents only where no LP gives them
    plan_pts = None if isinstance(dom, PolytopeRep) else _sample_in(dom, 4096, seed + 1)
    for xi in xis:
        U = _perp_basis(xi)
        # extent of the domain inside this cone's extruded box
        if plan_pts is None:
            A = np.vstack([U, -U, dom.A])
            b = np.concatenate([half * np.ones(2 * (d - 1)), dom.b])
            res = linprog(-xi, A_ub=A, b_ub=b, bounds=[(None, None)] * d, method="highs")
            t_max = -res.fun if res.status == 0 else 0.0
        else:
            mask = np.all(np.abs(plan_pts @ U.T) <= half, axis=1)
            t_max = float(np.max(plan_pts[mask] @ xi, initial=0.0)) + delta
        frame = np.vstack([U, xi])
        A_slab = np.vstack([U, -U, xi[None, :], -xi[None, :]])

        def slab(i):
            b_slab = np.concatenate([half * np.ones(2 * (d - 1)), [i * delta, -(i - 1) * delta]])
            corners = geo._bbox_corners(np.array([[-half] * (d - 1) + [(i - 1) * delta],
                                                  [half] * (d - 1) + [i * delta]])) @ frame
            bbox = np.vstack([corners.min(axis=0), corners.max(axis=0)])
            return _stack_with_polytope(A_slab, b_slab, bbox, dom)

        _march(pieces, shifts, int(math.ceil(max(t_max, 0.0) / delta)), slab, delta * xi, seed)
    chain = DecompositionChain(pieces, np.array(shifts), r,
                               direction_set(xis), "star_shaped", target=dom)
    return chain


# ---------------------------------------------------------------------------
# planar two-direction chain
# ---------------------------------------------------------------------------

def _parallelogram_dirs(dom):
    """Edge directions if the planar domain is a parallelogram, else None."""
    verts = dom.vertices
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
    poly = isinstance(dom, PolytopeRep)
    if not poly and not isinstance(dom, BallRep):
        raise PreconditionError("planar chain requires a convex polytope or ball")

    # a parallelepiped is its own base piece, whatever its scale
    para = _parallelogram_dirs(dom)
    if para is not None:
        chain = DecompositionChain([dom], np.zeros((0, 2)), r, para,
                                   "planar", target=dom)
        return chain, para

    if dom.signed_distance(np.zeros((1, 2)))[0] > -(1.0 - 1e-9):
        raise PreconditionError("domain must be normalized to contain the unit ball")

    if poly:  # the first pair at the largest vertex distance
        verts = dom.vertices
        dists = np.linalg.norm(verts[:, None, :] - verts[None, :, :], axis=2)
        a, b = verts[list(np.unravel_index(np.argmax(dists), dists.shape))]
    else:
        c, rho = dom.center, dom.radius
        a, b = c - rho * np.array([0.0, 1.0]), c + rho * np.array([0.0, 1.0])
    L = float(np.linalg.norm(b - a))
    xi1 = (b - a) / L
    xi2 = np.array([-xi1[1], xi1[0]])
    x0 = float(xi2 @ a)

    # largest square centered on the chord line, axes (xi2, xi1), and the
    # domain's extents along both axes
    if poly:
        A, bb = dom.A, dom.b
        a1 = A @ xi1
        a2 = A @ xi2
        A_lp = np.vstack([np.column_stack([a1, s1 * a1 + s2 * a2])
                          for s1 in (-1.0, 1.0) for s2 in (-1.0, 1.0)])
        b_lp = np.tile(bb - x0 * a2, 4)
        res = linprog(np.array([0.0, -1.0]), A_ub=A_lp, b_ub=b_lp,
                      bounds=[(None, None), (1e-12, None)], method="highs")
        if res.x is None:
            raise PreconditionError("no inscribed square centered on the chord")
        y_c, w = float(res.x[0]), float(res.x[1])
        y_lo, y_hi = float(np.min(verts @ xi1)), float(np.max(verts @ xi1))
        x_lo, x_hi = float(np.min(verts @ xi2)), float(np.max(verts @ xi2))
    else:
        dx = abs(x0 - float(xi2 @ c))
        y_c = float(xi1 @ c)
        w = 0.5 * (-dx + math.sqrt(max(2.0 * rho * rho - dx * dx, 0.0)))
        y_lo, y_hi = y_c - rho, y_c + rho
        x_lo, x_hi = float(xi2 @ c) - rho, float(xi2 @ c) + rho
    if w <= 0:
        raise PreconditionError("degenerate inscribed square")

    def frame_poly(x2_lo, x2_hi, x1_lo, x1_hi):
        A = np.vstack([xi2, -xi2, xi1, -xi1])
        b_ = np.array([x2_hi, -x2_lo, x1_hi, -x1_lo])
        pts = geo._bbox_corners(np.array([[x2_lo, x1_lo], [x2_hi, x1_hi]])) @ np.array([xi2, xi1])
        return PolytopeRep(A, b_, np.vstack([pts.min(axis=0), pts.max(axis=0)]))

    pieces = [frame_poly(x0 - w, x0 + w, y_c - w, y_c + w)]  # the square
    shifts = []
    delta = 0.999 * w / r

    def add_slabs(lo_start, extent_hi, axis_vec, sign):
        """March slabs of thickness delta from lo_start towards extent_hi."""
        def slab_at(i):
            t_lo = lo_start + (i - 1) * delta
            t_hi = lo_start + i * delta
            lo, hi = (t_lo, t_hi) if sign > 0 else (-t_hi, -t_lo)
            slab = (frame_poly(x0 - w, x0 + w, lo, hi) if axis_vec is xi1
                    else frame_poly(lo, hi, y_lo, y_hi))
            return _stack_with_polytope(slab.A, slab.b, slab.bbox, dom)

        _march(pieces, shifts, int(math.ceil(max(extent_hi - lo_start, 0.0) / delta)),
               slab_at, sign * delta * axis_vec, 1)

    # vertical slabs over the chord strip, up then down (signed coordinates)
    add_slabs(y_c + w, y_hi, xi1, +1.0)
    add_slabs(-(y_c - w), -y_lo, xi1, -1.0)
    # horizontal slabs over the full height, right then left
    add_slabs(x0 + w, x_hi, xi2, +1.0)
    add_slabs(-(x0 - w), -x_lo, xi2, -1.0)

    sym = direction_set([xi1, xi2]).symmetrized()
    chain = DecompositionChain(pieces, np.array(shifts), r, sym, "planar", target=dom)
    return chain, direction_set([xi1, xi2])


# ---------------------------------------------------------------------------
# ball slices
# ---------------------------------------------------------------------------

def _dilation(eps0, r):
    """The factor sigma = 1 + eps0^2 / 4r by which one round of slices grows a ball."""
    return 1.0 + eps0 * eps0 / (4.0 * r)


def _slice_pieces(center, rho, symdirs, eps0, r, clip_to):
    """Nonempty slices, clipped to ``clip_to``, of the sigma-dilated ball
    around (center, rho).

    Each slice translated backwards by 1..r steps of (eps0 rho / 2r) along its
    direction lands inside the undilated ball.  A slice contains its apex, the
    center, so it is sampled for emptiness only when the center lies outside
    ``clip_to``.
    """
    sigma = _dilation(eps0, r)
    pieces = []
    shifts = []
    for xi in symdirs.dirs:
        cone = cone_body(xi, 1.0 - eps0)
        slice_dom = intersection((ball(center, sigma * rho),
                                  affine_image(cone, sigma * rho * np.eye(len(center)),
                                               np.asarray(center, float))))
        slice_dom = intersection((slice_dom, clip_to))
        if not clip_to.contains(center) and not _piece_nonempty(slice_dom, seed=7):
            continue
        pieces.append(slice_dom)
        shifts.append((eps0 / (2.0 * r)) * rho * xi)
    return pieces, shifts


# ---------------------------------------------------------------------------
# Lip-2 ball chain
# ---------------------------------------------------------------------------

def _ball_inside(dom, centers, delta):
    """Whether the closed delta-ball at each center lies inside the domain, by
    probes on its sphere; ``delta`` is one radius or one per center."""
    centers = np.atleast_2d(centers)
    delta = np.broadcast_to(delta, len(centers))
    d = dom.dim
    if d == 2:
        th = np.linspace(0.0, 2.0 * math.pi, 128, endpoint=False)
        probes = np.column_stack([np.cos(th), np.sin(th)])
    else:
        rng = np.random.default_rng(4)
        probes = rng.standard_normal((max(128, 64 * d), d))
        probes /= np.linalg.norm(probes, axis=1)[:, None]
    ok = dom.contains(centers)
    for u in probes:
        idx = ok.nonzero()[0]
        if idx.size == 0:
            break
        pts = np.take(centers, idx, axis=0)
        # the (d, n) product keeps numpy's inner loop on the long axis
        ok[idx] = dom.contains(pts + (delta[idx] * u[:, None]).T)
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
    if not 0.0 < delta < math.inf:
        raise PreconditionError(f"delta must be positive and finite, got {delta}")
    eps0 = dirset.spread
    if eps0 <= 0.0:
        raise SpanDeficiencyError("direction set must span the space")
    d = dom.dim
    sym = dirset.symmetrized()
    sigma = _dilation(eps0, r)

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

    # depth-first order over the cover graph at the first threshold that
    # connects it; each centre is reached from its parent in the search
    for threshold in (0.95 * delta, 1.3 * delta, 1.9 * delta):
        adj = np.linalg.norm(centers[:, None, :] - centers[None, :, :], axis=2) <= threshold
        np.fill_diagonal(adj, False)
        order, pred = _depth_first(adj)
        if len(order) == len(centers):
            break
    else:
        raise PreconditionError("disconnected cover graph at the requested radius")

    pieces = []
    shifts = []

    # seed: parallelepiped spanned by d independent directions at the first center
    c0 = centers[0]
    frame = _independent_subset(dirset.dirs, d)
    Binv = np.linalg.inv(frame.T)
    A_h = np.vstack([Binv, -Binv])
    b_h = np.concatenate([Binv @ c0 + delta / d, -(Binv @ c0) + delta / d])
    corners = np.array([c0 + delta * (z @ frame)
                        for z in geo._bbox_corners(np.vstack([-np.ones(d) / d,
                                                              np.ones(d) / d]))])
    pieces.append(PolytopeRep(A_h, b_h, np.vstack([corners.min(axis=0),
                                                   corners.max(axis=0)])))

    def add_slices(center, rho):
        ps, ss = _slice_pieces(center, rho, sym, eps0, r, dom)
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

    for v in order[1:]:
        c_prev, c_next = centers[pred[v]], centers[v]
        gap = float(np.linalg.norm(c_next - c_prev))
        rho0 = delta - 0.5 * gap
        if rho0 <= 0.05 * delta:
            raise PreconditionError("cover walk step too large for the overlap ball")
        m = 0.5 * (c_prev + c_next)
        m = walk_ball(m, c_next, rho0)
        grow(c_next, rho0, delta)
        add_slices(c_next, delta)

    return DecompositionChain(pieces, np.array(shifts), r, sym, "lip2", target=dom)


def _depth_first(adj):
    """The depth-first preorder of the graph ``adj`` from vertex 0, neighbours
    in index order, and the vertex each one was reached from (0 from 0)."""
    order, pred, stack = [], {}, [(0, 0)]
    while stack:
        v, u = stack.pop()
        if v not in pred:
            order.append(v)
            pred[v] = u
            stack.extend((w, v) for w in np.flatnonzero(adj[v])[::-1].tolist())
    return order, pred


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
    """Largest delta in [0, diam] with c0 dom + B(r delta) inside c1 dom: for a
    convex body that is (c1 - c0) times the distance from the origin to the
    boundary, over r (zero when the origin lies outside)."""
    depth = -float(dom.signed_distance(np.zeros((1, dom.dim)))[0])
    return float(np.clip((c1 - c0) * depth / r, 0.0, diam))


def _minkowski_segment(base, e, t1, t2, clip_dom):
    """(base + [-t2, -t1] e) clipped to ``clip_dom``, as a representable domain."""
    d = base.dim
    if isinstance(base, PolytopeRep):
        verts = base.vertices
        pts = np.vstack([verts - t1 * e, verts - t2 * e])
        eq = ConvexHull(pts).equations  # one row per triangle of a facet
        key = np.column_stack([eq[:, :d], eq[:, d] / clip_dom.scale()])
        order = np.lexsort(np.round(key, 9).T[::-1])  # canonical row order
        eq, key = eq[order], key[order]
        # one row per facet, with its smallest offset so the piece never grows
        same = np.max(np.abs(key[:, None] - key[None]), axis=2) <= 1e-9
        lead = np.unique(np.argmax(same, axis=1))
        A = eq[lead, :d]
        b = np.min(np.where(same[lead], -eq[:, d], np.inf), axis=1)
        bbox = np.vstack([pts.min(axis=0), pts.max(axis=0)])
        return _stack_with_polytope(A, b, bbox, clip_dom)
    if isinstance(base, BallRep):
        c, rho = base.center, base.radius
        p1, p2 = c - t1 * e, c - t2 * e
        parts = [ball(p1, rho), ball(p2, rho)]
        if d == 2:
            u = (p2 - p1) / np.linalg.norm(p2 - p1)
            v = np.array([-u[1], u[0]])
            A = np.vstack([u, -u, v, -v])
            b = np.array([u @ p2, -(u @ p1), v @ p1 + rho, -(v @ p1) + rho])
            corners = np.array([p + s * rho * v for p in (p1, p2) for s in (-1, 1)])
            parts.append(PolytopeRep(A, b, np.vstack([corners.min(axis=0),
                                                      corners.max(axis=0)])))
        else:
            for t in np.linspace(t1, t2, 33):
                parts.append(ball(c - t * e, rho))
        return intersection((union(parts), clip_dom))
    raise PreconditionError("x-ray slabs support polytope and ball domains")


def xray_slab_decomposition(dom, dirset, n0=1, r=1, seed=0):
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
    if not isinstance(dom, (PolytopeRep, BallRep)):
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

    for n in range(n0, XRAY_N0_CAP + 1):
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
        raise PreconditionError(f"no shrink index up to {XRAY_N0_CAP} gives a ray cover")

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
        _march(pieces, shifts, int(math.ceil(diam / delta)) + 2,
               lambda j: _minkowski_segment(S0, e, (r + j - 1) * delta, (r + j) * delta, dom),
               -delta * e, seed)
    return DecompositionChain(pieces, np.array(shifts), r, sym, "xray", target=dom)

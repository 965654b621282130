import itertools
import json
import math

import numpy as np
import pytest
from scipy.spatial import ConvexHull, QhullError

import whitneylab as w
from whitneylab.errors import PreconditionError

from conftest import random_convex_polygon

CUBE_DIAGONALS = np.array([[1, 1, 1], [1, 1, -1], [1, -1, 1], [1, -1, -1]]) / math.sqrt(3.0)


class TestMembership:
    def test_ball_center(self):
        assert w.ball([0, 0, 0], 1.0).contains([0, 0, 0])

    def test_cone_member(self):
        K = w.cone_body([0, 1], 0.1)
        # hand oracle: ||(0, .5)|| * 0.9 = 0.45 <= 0.5 <= 1
        assert K.contains([0.0, 0.5])

    def test_cone_non_member(self):
        K = w.cone_body([0, 1], 0.1)
        # hand oracle: ||(1, .5)|| * 0.9 = 1.00623 > 0.5
        assert math.hypot(1.0, 0.5) * 0.9 > 0.5
        assert not K.contains([1.0, 0.5])

    def test_dimension_mismatch(self):
        with pytest.raises(PreconditionError):
            w.ball([0, 0], 1.0).contains([1.0, 0.0, 0.0])

    def test_batch_matches_single(self, unit_square):
        pts = np.array([[0.5, 0.5], [2.0, 0.0], [1.0, 1.0]])
        batch = unit_square.contains(pts)
        singles = [unit_square.contains(p) for p in pts]
        assert list(batch) == singles

    def test_bbox_contains_members(self):
        K = w.cone_body([0.6, 0.8], 0.2)
        plan = w.sample_plan(K, 512, seed=3)
        lo, hi = K.bbox
        assert np.all(plan.points >= lo - 1e-12) and np.all(plan.points <= hi + 1e-12)


class TestDiameter:
    def test_unit_cube(self, unit_square):
        res = w.diameter(unit_square)
        assert res.value == pytest.approx(math.sqrt(2), abs=1e-12)
        assert not res.approximate

    def test_ball(self):
        assert w.diameter(w.ball([1, 2], 0.7)).value == pytest.approx(1.4)

    def test_cone_body_vs_boundary_sampling_oracle(self):
        K = w.cone_body([0, 1], 0.1)
        # oracle: dense sampling of the extreme set (apex + rim circle)
        rim_rho = math.sqrt(1.0 / 0.81 - 1.0)
        th = np.linspace(0, 2 * math.pi, 100_000)
        rim = np.column_stack([rim_rho * np.cos(th), np.ones_like(th)])
        ext = np.vstack([[[0.0, 0.0]], rim])
        sub = ext[:: 37]
        best = 0.0
        for p in sub:
            best = max(best, float(np.max(np.linalg.norm(ext - p, axis=1))))
        val = w.diameter(K).value
        assert val == pytest.approx(best, rel=1e-3)
        assert val == pytest.approx(1.0 / 0.9, rel=1e-12)

    def test_isometry_invariance(self):
        poly = random_convex_polygon(5, normalized=False)
        th = 0.83
        R = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        img = w.as_polytope(w.AffineMap(R, np.array([3.0, -1.0])).apply_domain(poly))
        assert w.diameter(img).value == pytest.approx(w.diameter(poly).value, rel=1e-12)

    def test_sampled_domain_flag(self):
        dom = w.union([w.ball([0, 0], 1.0), w.ball([2, 0], 1.0)])
        plan = w.sample_plan(dom, 2048, seed=0)
        res = w.diameter(dom, plan)
        assert res.approximate
        assert 3.6 < res.value <= 4.0  # true diameter 4, sampled from below

    def test_collinear_points_take_the_pairwise_fallback(self):
        # more than 64 points: the hull is tried first, and Qhull rejects a flat set
        x = np.random.default_rng(0).permutation(100).astype(float)
        pts = np.column_stack([x, 2.0 * x])
        with pytest.raises(QhullError):
            ConvexHull(pts)
        assert w.geometry._max_pairwise(pts) == math.sqrt(99.0 ** 2 + 198.0 ** 2)


class TestInscribedBall:
    def test_cube(self):
        c, r = w.inscribed_ball(w.box([0] * 3, [1] * 3))
        assert np.allclose(c, 0.5) and r == pytest.approx(0.5)

    def test_simplex_incircle(self):
        dom = w.polytope([[-1, 0], [0, -1], [1, 1]], [0, 0, 1])
        _, r = w.inscribed_ball(dom)
        assert r == pytest.approx(1.0 / (2.0 + math.sqrt(2)), rel=1e-9)

    def test_degenerate_slab_errors(self):
        with pytest.raises(PreconditionError):
            w.inscribed_ball(w.polytope([[1, 0], [-1, 0], [0, 1], [0, -1]],
                                        [1, -1, 1, 1]))

    def test_unbounded_errors(self):
        with pytest.raises(PreconditionError):
            w.inscribed_ball(w.polytope([[1, 0], [-1, 0]], [1, 1]))

    def test_translation_and_dilation(self):
        dom = random_convex_polygon(2, normalized=False)
        _, r0 = w.inscribed_ball(dom)
        shift = np.array([5.0, -3.0])
        moved = w.as_polytope(w.AffineMap(np.eye(2), shift).apply_domain(dom))
        _, r1 = w.inscribed_ball(moved)
        scaled = w.as_polytope(w.AffineMap(2.5 * np.eye(2), np.zeros(2)).apply_domain(dom))
        _, r2 = w.inscribed_ball(scaled)
        assert r1 == pytest.approx(r0, rel=1e-9)
        assert r2 == pytest.approx(2.5 * r0, rel=1e-9)


class TestNormalize:
    def test_cube(self, unit_square):
        amap, R = w.normalize(unit_square)
        assert R == pytest.approx(math.sqrt(2), rel=1e-9)

    def test_already_normalized_identity(self):
        dom = w.box([-1, -1], [1, 1])
        amap, R = w.normalize(dom)
        assert np.allclose(amap.matrix, np.eye(2)) and np.allclose(amap.shift, 0)

    def test_long_box(self):
        amap, R = w.normalize(w.box([0, 0], [10, 1]))
        assert R == pytest.approx(math.sqrt(101), rel=1e-9)


class TestIllumination:
    def test_cube_vertex_diagonal(self):
        cube = w.box([-1] * 3, [1] * 3)
        e = -np.ones(3) / math.sqrt(3)
        assert w.illuminated(cube, [1, 1, 1], e)

    def test_cube_vertex_face_direction(self):
        cube = w.box([-1] * 3, [1] * 3)
        assert not w.illuminated(cube, [1, 1, 1], [-1, 0, 0])

    def test_ball_antipodal(self):
        B = w.ball([0, 0, 0], 1.0)
        x = np.array([0.6, 0.8, 0.0])
        assert w.illuminated(B, x, -x)

    def test_ray_march_matches_a_per_step_loop(self):
        cone = w.cone_body([0.0, 1.0], 0.2)
        pts = np.random.default_rng(1).uniform(-2, 2, size=(300, 2))
        e = np.array([0.6, 0.8])
        ts = np.linspace(0.0, 3.0, 65)[1:]
        want = np.array([cone.contains(p + ts[:, None] * e).any() for p in pts])
        assert 0 < want.sum() < len(pts)
        assert np.array_equal(w.geometry.ray_march(cone, pts, e, 3.0, 64), want)

    def test_not_on_boundary_errors(self, unit_square):
        with pytest.raises(PreconditionError):
            w.illuminated(unit_square, [0.5, 0.5], [1, 0])

    def test_affine_invariance(self):
        poly = random_convex_polygon(7, normalized=False)
        verts = poly.vertices
        A = np.array([[1.4, 0.3], [-0.2, 0.9]])
        shift = np.array([0.7, -0.4])
        img = w.as_polytope(w.AffineMap(A, shift).apply_domain(poly))
        rng = np.random.default_rng(0)
        for v in verts:
            e = rng.standard_normal(2)
            e /= np.linalg.norm(e)
            lhs = w.illuminated(poly, v, e)
            Ae = A @ e
            rhs = w.illuminated(img, A @ v + shift, Ae / np.linalg.norm(Ae))
            assert lhs == rhs


class TestXray:
    def test_ball_axes(self):
        # oracle: every boundary point has a nonzero coordinate, so a
        # sign-matched axis direction illuminates; exhaustive sphere check
        B = w.ball([0, 0], 1.0)
        E = w.direction_set(np.eye(2))
        sample = w.boundary_points(B, n=256, seed=0)
        ok, wit = w.xray_verifies(B, E, sample)
        assert ok and not wit

    def test_cube_axes_fails_at_vertex(self):
        cube = w.box([-1] * 3, [1] * 3)
        E = w.direction_set(np.eye(3))
        ok, wit = w.xray_verifies(cube, E, w.boundary_points(cube, n=64, seed=0))
        assert not ok
        assert any(np.allclose(np.abs(x), 1.0) for x in wit)
        assert any(np.allclose(x, [1, 1, 1]) for x in wit)

    def test_cube_diagonals_ok(self):
        cube = w.box([-1] * 3, [1] * 3)
        diag = w.direction_set(np.array(
            [[1, 1, 1], [1, 1, -1], [1, -1, 1], [1, -1, -1]]) / math.sqrt(3))
        ok, wit = w.xray_verifies(cube, diag, w.boundary_points(cube, n=128, seed=1))
        assert ok

    def test_symmetrization_idempotent(self):
        cube = w.box([-1] * 2, [1] * 2)
        E = w.direction_set([[1, 0], [0, 1]])
        sample = w.boundary_points(cube, n=48, seed=2)
        assert w.xray_verifies(cube, E, sample)[0] == \
            w.xray_verifies(cube, E.symmetrized(), sample)[0]

    def test_nested_ball_images_compose(self):
        # two affine levels over a disk give the witnesses of the one image
        # of the composed map y -> M2 (M1 y + s1) + s2
        M1, s1, M2, s2 = [[2.0, 0.0], [0.0, 1.0]], [0.5, 0.0], [[1.0, 1.0], [0.0, 1.0]], [1.0, -1.0]
        nested = w.affine_image(w.affine_image(w.ball([0.2, 0.1], 0.8), M1, s1), M2, s2)
        flat = w.affine_image(w.ball([0.2, 0.1], 0.8), np.dot(M2, M1), np.dot(M2, s1) + s2)
        E = w.direction_set([[1.0, 0.0]])
        pts = w.boundary_points(flat, n=4, seed=0)
        got, want = w.xray_verifies(nested, E, pts), w.xray_verifies(flat, E, pts)
        assert got[0] is want[0] is False
        assert np.allclose(got[1][-2:], want[1][-2:], rtol=0, atol=1e-12)

    def test_affine_polytope_sample_has_its_vertices(self):
        img = w.affine_image(w.box([-1, -1], [1, 1]), [[2, 1], [0, 1]], [0.5, 0])
        sample = w.boundary_points(img, n=8, seed=0)
        assert np.array_equal(sample[:4], img.vertices)

    def test_empty_sample_errors(self, unit_square, axes2):
        with pytest.raises(PreconditionError):
            w.xray_verifies(unit_square, axes2, np.zeros((0, 2)))


class TestDirectionSet:
    def test_axes_spread(self):
        assert w.direction_set(np.eye(2)).spread == pytest.approx(1 / math.sqrt(2), abs=1e-9)
        assert w.direction_set(np.eye(3)).spread == pytest.approx(1 / math.sqrt(3), rel=1e-15)

    @pytest.mark.parametrize("degrees", [1, 10, 30, 45, 60, 80, 90, 100, 120, 150, 179])
    def test_pair_spread_closed_form(self, degrees):
        # unit directions at angle a: the parallelogram |xi_i . y| <= 1 has
        # half-diagonals 1 / cos(a/2) and 1 / sin(a/2)
        a = math.radians(degrees)
        spread = w.direction_set([[1.0, 0.0], [math.cos(a), math.sin(a)]]).spread
        exact = min(math.sin(a / 2), math.cos(a / 2))
        assert abs(spread - exact) <= 4 * math.ulp(exact)

    def test_span_deficient_spread_zero(self):
        E = w.direction_set([[1.0, 0.0], [-1.0, 0.0]])
        assert E.spread == 0.0

    def test_unresolved_spread_is_zero(self):
        # these pass the rank test, but every 3 rows have |det| below the vertex
        # solver's 1e-12 cut (the spread is about 3.5e-10): 0, not a traceback
        E = w.direction_set([[1, 0, 0], [1, 1e-9, 0], [1, 0, 1e-9]])
        assert E.spans and E.spread == 0.0

    @pytest.mark.parametrize("dirs", [[], [[]]], ids=["no-rows", "empty-row"])
    def test_empty_set_is_named(self, dirs):
        with pytest.raises(PreconditionError, match="empty direction set"):
            w.direction_set(dirs)

    def test_unit_normalization(self):
        E = w.direction_set([[3.0, 4.0]])
        assert np.linalg.norm(E.dirs[0]) == pytest.approx(1.0, abs=1e-12)

    def test_symmetrized(self):
        E = w.direction_set([[1, 0], [0, 1]])
        sym = E.symmetrized()
        assert len(sym) == 4
        assert len(sym.symmetrized()) == 4

    def test_spread_is_computed_on_first_read(self, monkeypatch):
        calls = []
        spread = w.geometry._spread
        monkeypatch.setattr(w.geometry, "_spread", lambda dirs: calls.append(1) or spread(dirs))
        E = w.direction_set(CUBE_DIAGONALS)
        sym = E.symmetrized()
        assert calls == []
        value = E.spread
        assert E.spread == value and len(calls) == 1
        assert sym.spread == value and sym.spread == value and len(calls) == 2

    @pytest.mark.parametrize("dirs", [np.eye(2), [[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]],
                                      [[1.0, 0.0], [math.cos(math.radians(80.0)),
                                                    math.sin(math.radians(80.0))]],
                                      CUBE_DIAGONALS], ids=["axes", "E3", "pair80", "diagonals"])
    def test_symmetrized_keeps_the_spread(self, dirs):
        E = w.direction_set(dirs)
        assert E.symmetrized().spread == E.spread > 0.0


def _vertices_one_subset_at_a_time(A, b):
    """The vertex enumeration as one det and one solve per d-row subset."""
    m, d = A.shape
    scale = max(1.0, float(np.max(np.abs(b))))
    verts = []
    for idx in itertools.combinations(range(m), d):
        sub = A[list(idx)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        v = np.linalg.solve(sub, b[list(idx)])
        if np.all(A @ v <= b + 1e-9 * scale):
            verts.append(v)
    keep = []
    for v in verts:
        if not any(np.linalg.norm(v - u) < 1e-9 * scale for u in keep):
            keep.append(v)
    return np.array(keep).reshape(-1, d)


class TestPolytopeVertices:
    @pytest.mark.parametrize("d, k", [(2, 3), (2, 12), (3, 4), (3, 12)])
    def test_stacked_solves_give_the_bits_of_one_solve_per_subset(self, d, k):
        rng = np.random.default_rng(10 * d + k)
        dirs = rng.standard_normal((k, d))
        A = np.vstack([dirs, -dirs, dirs[:1]])  # a repeated row: singular subsets
        b = np.concatenate([rng.uniform(0.5, 2.0, 2 * k), [1.0]])
        got = w.geometry._polytope_vertices(A, b)
        want = _vertices_one_subset_at_a_time(A, b)
        assert len(got) > 0 and got.tobytes() == want.tobytes()

    def test_fewer_rows_than_the_dimension(self):
        assert w.geometry._polytope_vertices(np.ones((1, 2)), np.ones(1)).shape == (0, 2)


class TestSamplePlan:
    def test_members_and_volume(self, unit_square):
        plan = w.sample_plan(unit_square, 4096, seed=5)
        assert np.all(unit_square.contains(plan.points))
        assert plan.weights.sum() == pytest.approx(1.0, rel=0.05)

    def test_deterministic(self, unit_square):
        p1 = w.sample_plan(unit_square, 256, seed=9)
        p2 = w.sample_plan(unit_square, 256, seed=9)
        assert np.array_equal(p1.points, p2.points)

    def test_extra_points_must_be_members(self, unit_square):
        with pytest.raises(PreconditionError):
            w.sample_plan(unit_square, 64, seed=0, extra_points=[[2.0, 2.0]])

    def test_flat_domain_names_the_axis(self):
        apart = w.intersection([w.box([0, 0], [1, 1]), w.box([0, 2], [1, 3])])
        with pytest.raises(PreconditionError, match="extent 0.0 along axis 1"):
            w.sample_plan(apart, 64)

    @pytest.mark.parametrize("n, seed", [(100, 0), (3000, 4)])
    def test_documented_stream(self, n, seed):
        # batches of max(4n, 1024) bounding-box points, the first n members kept
        dom = w.ball([0.2, 0.1], 0.8)
        rng = np.random.default_rng(seed)
        got = np.zeros((0, 2))
        n_prop = 0
        while len(got) < n:
            pts = rng.uniform(dom.bbox[0], dom.bbox[1], size=(max(4 * n, 1024), 2))
            got = np.vstack([got, pts[dom.contains(pts)]])
            n_prop += len(pts)
        plan = w.sample_plan(dom, n, seed=seed)
        assert np.array_equal(plan.points, got[:n])
        area = float(np.prod(dom.bbox[1] - dom.bbox[0]))
        assert plan.weights.sum() == pytest.approx(area * len(got) / n_prop, rel=1e-12)


class TestSpecRoundTrip:
    def test_domain_specs(self):
        doms = [
            w.box([0, 0], [1, 2]),
            w.ball([1, -1], 0.5),
            w.cone_body([0, 1], 0.1),
            w.union([w.ball([0, 0], 1.0), w.box([0, 0], [1, 1])]),
            w.intersection([w.ball([0, 0], 1.0), w.box([0, 0], [1, 1])]),
            w.affine_image(w.ball([0, 0], 1.0), [[2, 0], [0, 1]], [1, 1]),
        ]
        rng = np.random.default_rng(0)
        pts = rng.uniform(-2, 2, size=(200, 2))
        for dom in doms:
            back = w.domain_from_spec(dom.spec())
            assert np.array_equal(dom.contains(pts), back.contains(pts))


REP_DOMAINS = {
    "polytope": lambda: w.box([0, 0], [1, 2]),
    "ball": lambda: w.ball([1, -1], 0.5),
    "cone_body": lambda: w.cone_body([0, 1], 0.1),
    "union": lambda: w.union([w.ball([0, 0], 1.0), w.box([0, 0], [1, 1])]),
    "intersection": lambda: w.intersection([w.ball([0, 0], 1.0), w.box([0, 0], [1, 1])]),
    "affine_image": lambda: w.affine_image(w.cone_body([0, 1], 0.2), [[2, 0.5], [0, 1]],
                                           [0.1, -0.3]),
}


class TestRepProtocol:
    @pytest.mark.parametrize("kind", sorted(REP_DOMAINS))
    def test_violation_vanishes_exactly_on_members(self, kind):
        dom = REP_DOMAINS[kind]()
        pts = np.random.default_rng(1).uniform(-2.5, 2.5, size=(2000, 2))
        inside = dom.contains(pts)
        viol = dom.violation(pts)
        assert inside.any() and not inside.all()
        assert np.all(viol[inside] <= 1e-9)
        assert np.all(viol[~inside] > 0.0)

    @pytest.mark.parametrize("kind", ["ball", "polytope"])
    def test_signed_distance_sign_matches_membership(self, kind):
        # the representations with a closed-form signed distance
        dom = REP_DOMAINS[kind]()
        pts = np.random.default_rng(2).uniform(-2.5, 2.5, size=(64, 2))
        sd = dom.signed_distance(pts)
        inside = dom.contains(pts)
        assert np.all(sd[inside] <= 1e-9) and np.all(sd[~inside] > -1e-9)


CONVEX_DOMAINS = {
    "unit_square": lambda: w.box([0, 0], [1, 1]),
    "heptagon": lambda: random_convex_polygon(4, normalized=False),
    "cube": lambda: w.box([-1, -1, -1], [1, 1, 1]),
    "disk": lambda: w.ball([0.3, -0.2], 1.3),
    "ball3": lambda: w.ball([0, 0, 0], 1.0),
    "cone_narrow": lambda: w.cone_body([0, 1], 0.01),
    "cone_wide": lambda: w.cone_body([0, 1], 0.4),
    "cone3": lambda: w.cone_body([0, 0, 1], 0.05),
    "intersection": lambda: w.intersection([w.ball([0, 0], 1.0), w.box([-0.5, -2], [2, 0.7])]),
}


class TestExitDistance:
    @pytest.mark.parametrize("kind", sorted(CONVEX_DOMAINS))
    def test_picks_the_shift_domain_points(self, kind):
        dom = CONVEX_DOMAINS[kind]()
        rng = np.random.default_rng(3)
        plan = w.sample_plan(dom, 600, seed=1)
        dirs = rng.standard_normal((8, dom.dim))
        if isinstance(dom, w.geometry.ConeBodyRep):
            # the axis points (apex and cap included), and directions inside,
            # along and against the opening
            axis = dom.xi
            plan = w.SamplePlan(np.vstack([plan.points, np.outer(np.linspace(0, 1, 5), axis)]),
                                np.ones(len(plan) + 5))
            dirs = np.vstack([dirs, axis, -axis, axis + 0.05 * dirs[0], -axis + 0.3 * dirs[1]])
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        band = 1e-9 * dom.scale()
        n_compared = 0
        for xi in dirs:
            u_max = dom.exit_distance(plan.points, xi)
            for r in (1, 2, 3):
                for u in rng.uniform(0.0, 1.2 * dom.scale(), 4):
                    want = np.zeros(len(plan), dtype=bool)
                    want[w.shift_domain(dom, plan, u * xi, r)] = True
                    keep = np.abs(r * u - u_max) > band
                    assert np.array_equal((r * u <= u_max)[keep], want[keep]), (xi, r, u)
                    n_compared += int(keep.sum())
        assert n_compared >= 0.99 * len(dirs) * 12 * len(plan)

    @pytest.mark.parametrize("kind", ["union", "affine_image"])
    def test_no_closed_form(self, kind):
        assert REP_DOMAINS[kind]().exit_distance(np.zeros((1, 2)), [1.0, 0.0]) is None


class TestNonFiniteSpecs:
    @pytest.mark.parametrize("build,field", [
        (lambda: w.ball([0.0, math.nan], 1.0), "center"),
        (lambda: w.ball([0.0, 0.0], math.inf), "radius"),
        (lambda: w.polytope([[1.0, math.nan], [-1.0, 0.0]], [1.0, 1.0]), "A"),
        (lambda: w.polytope([[1.0, 0.0], [-1.0, 0.0]], [1.0, -math.inf]), "b"),
        (lambda: w.cone_body([0.0, math.nan], 0.1), "xi"),
        (lambda: w.cone_body([0.0, 1.0], math.nan), "eps"),
        (lambda: w.direction_set([[1.0, 0.0], [math.inf, 1.0]]), "direction vectors"),
        (lambda: w.affine_image(w.ball([0, 0], 1.0), [[1.0, 0.0], [0.0, math.nan]],
                                [0.0, 0.0]), "matrix"),
    ])
    def test_rejected_at_construction(self, build, field):
        with pytest.raises(PreconditionError, match=f"^{field} must be finite"):
            build()


# -- coordinate-major kernels against the row-wise formulas they replaced ------

def _member_by_levels(dom, pts, slack):
    """Membership as it was computed before the kernels went coordinate-major:
    row-wise leaf formulas, and a survivor gather at every nesting level."""
    rep = dom
    geo = w.geometry
    if isinstance(rep, geo.PolytopeRep):
        if rep.A.shape[0] == 0:
            return np.zeros(len(pts), dtype=bool)
        return np.all(pts @ rep.A.T <= rep.b + slack, axis=1)
    if isinstance(rep, geo.BallRep):
        return np.linalg.norm(pts - rep.center, axis=1) <= rep.radius + slack
    if isinstance(rep, geo.ConeBodyRep):
        proj = pts @ rep.xi
        nrm = np.linalg.norm(pts, axis=1)
        return (nrm * (1.0 - rep.eps) <= proj + slack) & (proj <= 1.0 + slack)
    if isinstance(rep, geo.AffineImageRep):
        back = (pts - rep.shift) @ rep.inverse.T
        sv = np.linalg.svd(rep.matrix, compute_uv=False)
        return _member_by_levels(rep.base, back, slack / max(1.0, float(sv[0])))
    is_union = isinstance(rep, geo.UnionRep)
    out = np.full(len(pts), not is_union)
    for part in rep.parts:
        rem = (~out if is_union else out).nonzero()[0]
        if rem.size == 0:
            break
        out[rem] = _member_by_levels(part, pts[rem], slack)
    return out


def _facet_points(A, b, rng, slack):
    """Points on every facet of {A x <= b}, on the facets moved out and in by
    the slack, and the last bit either side of each."""
    d = A.shape[1]
    pts = []
    for a, bi in zip(A, b):
        for level in (bi, bi + slack, bi - slack):
            x = rng.uniform(-1.0, 1.0, size=(8, d))
            x += np.outer((level - x @ a) / (a @ a), a)
            pts += [x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf)]
    return np.vstack(pts)


class TestCoordinateMajorKernels:
    SLACK = 1e-12

    @pytest.mark.parametrize("d", range(1, 10))
    def test_row_norms_bits(self, d):
        rng = np.random.default_rng(d)
        for scale in (1e-150, 1e-3, 1.0, 1e150):
            v = rng.standard_normal((20_000, d)) * scale
            assert np.array_equal(w.geometry._row_norms(v), np.linalg.norm(v, axis=1))

    @pytest.mark.parametrize("rows", [0, 4, 30])
    @pytest.mark.parametrize("d", [2, 3])
    def test_polytope_on_facets(self, rows, d):
        rng = np.random.default_rng(10 * rows + d)
        A = rng.standard_normal((rows, d))
        b = rng.uniform(0.5, 2.0, rows)
        rep = w.geometry.PolytopeRep(A, b, None)
        pts = _facet_points(A, b, rng, self.SLACK) if rows else rng.standard_normal((50, d))
        pts = np.vstack([pts, rng.uniform(-2.0, 2.0, size=(500, d))])
        for slack in (0.0, self.SLACK, -self.SLACK):
            got = rep.member(pts, slack)
            want = (np.all(pts @ A.T <= b + slack, axis=1) if rows
                    else np.zeros(len(pts), dtype=bool))
            assert np.array_equal(got, want)
        if rows == 30:
            assert 0 < got.sum() < len(pts)

    @pytest.mark.parametrize("d", [2, 3, 9])
    def test_ball_on_its_sphere(self, d):
        rng = np.random.default_rng(d)
        center, radius = rng.standard_normal(d), 1.7
        u = rng.standard_normal((3000, d))
        u /= np.linalg.norm(u, axis=1)[:, None]
        on = center + radius * u
        pts = np.vstack([on, np.nextafter(on, np.inf), np.nextafter(on, -np.inf)])
        dom = w.ball(center, radius)
        for slack in (0.0, self.SLACK, -self.SLACK):
            assert np.array_equal(dom.member(pts, slack),
                                  _member_by_levels(dom, pts, slack))
        assert np.array_equal(dom.signed_distance(pts),
                              np.linalg.norm(pts - center, axis=1) - radius)

    @pytest.mark.parametrize("d", [2, 3, 9])
    def test_cone_body_on_its_surface(self, d):
        rng = np.random.default_rng(d)
        xi = rng.standard_normal(d)
        xi /= np.linalg.norm(xi)
        eps = 0.15
        dom = w.cone_body(xi, eps)
        # lateral surface: angle arccos(1 - eps) to the axis; then the cap
        perp = rng.standard_normal((2000, d))
        perp -= np.outer(perp @ xi, xi)
        perp /= np.linalg.norm(perp, axis=1)[:, None]
        c = 1.0 - eps
        t = rng.uniform(0.0, 1.0, 2000)[:, None]
        side = t * (c * xi + math.sqrt(1.0 - c * c) * perp) / c
        cap = xi + rng.uniform(0.0, math.sqrt(1.0 / c ** 2 - 1.0), 2000)[:, None] * perp
        base = np.vstack([side, cap])
        pts = np.vstack([base, np.nextafter(base, np.inf), np.nextafter(base, -np.inf),
                         rng.uniform(*dom.bbox, size=(2000, d))])
        for slack in (0.0, self.SLACK, -self.SLACK):
            got = dom.member(pts, slack)
            assert np.array_equal(got, _member_by_levels(dom, pts, slack))
        assert 0 < got.sum() < len(pts)

    def test_nested_intersection_and_union(self):
        inner = w.intersection([w.ball([0.2, 0.0], 1.4),
                                w.affine_image(w.cone_body([0.6, 0.8], 0.3),
                                               [[1.5, 0.2], [0.0, 1.5]], [-0.1, -0.2])])
        stadium = w.union([w.ball([0, 0], 1.0), w.ball([1, 0], 1.0), w.box([0, -1], [1, 1])])
        dom = w.intersection([inner, w.box([-1, -1], [2, 0.9]), stadium])
        spec = json.dumps(dom.spec())
        pts = np.random.default_rng(5).uniform(-2.0, 2.5, size=(20_000, 2))
        for slack in (0.0, 1e-12, -1e-9):
            got = dom.contains(pts, slack)
            assert np.array_equal(got, _member_by_levels(dom, pts, slack))
        assert 0 < got.sum() < len(pts)
        assert json.dumps(dom.spec()) == spec  # flattening leaves the parts alone
        plain, unions = dom._leaves
        assert [type(r).__name__ for r in plain] == ["BallRep", "AffineImageRep", "PolytopeRep"]
        assert unions == (stadium,)

    def test_lip2_stadium_slices(self):
        stadium = w.union([w.ball([0, 0], 1.0), w.ball([1, 0], 1.0), w.box([0, -1], [1, 1])])
        chain = w.lip2_ball_chain(stadium, w.direction_set([[1.0, 0.0], [0.0, 1.0]]),
                                  delta=1.0, r=1, seed=0)
        rng = np.random.default_rng(6)
        slack = w.geometry.MEMBERSHIP_SLACK * stadium.scale()
        n_in = 0
        for piece in chain.pieces:
            lo, hi = piece.bbox
            pts = rng.uniform(lo - 0.1, hi + 0.1, size=(400, 2))
            got = piece.contains(pts, slack)
            assert np.array_equal(got, _member_by_levels(piece, pts, slack))
            n_in += int(got.sum())
        assert 0 < n_in < 400 * chain.n_pieces

    @pytest.mark.parametrize("d", range(1, 5))
    def test_rejection_sample_is_the_uniform_stream(self, d):
        # the old proposals: rng.uniform(lo, hi) batches, boolean-masked
        rng = np.random.default_rng(40 + d)
        for dom in (w.ball(rng.uniform(-3.0, 1.0, d), 0.9),
                    w.box(-1.5 - rng.random(d), -0.5 + rng.random(d))):
            got, n_acc, n_prop = w.geometry.rejection_sample(dom, 3000, 7, 1024, 10 ** 6)
            old = np.random.default_rng(7)
            want = []
            while sum(map(len, want)) < 3000:
                pts = old.uniform(dom.bbox[0], dom.bbox[1], size=(1024, d))
                want.append(pts[dom.contains(pts)])
            assert (n_acc, n_prop) == (sum(map(len, want)), 1024 * len(want))
            assert np.array_equal(got.view(np.uint64), np.vstack(want)[:3000].view(np.uint64))
            assert np.any(dom.bbox[0] < 0.0)

    @pytest.mark.parametrize("dom", [
        w.union([w.ball([0, 0], 1.0), w.ball([1, 0], 1.0)]),
        w.cone_body([0.0, 0.0, 1.0], 0.3),
        w.intersection([w.ball([0, 0], 1.0), w.ball([1.9, 0], 1.0)]),
        w.union([w.ball([0, 0], 0.01), w.ball([1, 1], 0.01)]),  # after 1200-2500 draws
    ])
    def test_interior_anchor_is_the_single_draw_stream(self, dom):
        # the old search: one rng.uniform(lo, hi) point per strictly_inside call
        for seed in range(4):
            old, new = np.random.default_rng(seed), np.random.default_rng(seed)
            margin = 1e-7 * dom.scale()
            want = old.uniform(*dom.bbox)
            while not dom.strictly_inside(want, margin):
                want = old.uniform(*dom.bbox)
            got = w.geometry._interior_anchor(dom, new)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            assert np.array_equal(new.random(4), old.random(4))  # the stream goes on alike

    def test_interior_anchor_of_a_flat_box_raises(self):
        lens = w.intersection([w.ball([0, 0], 1.0), w.ball([3, 0], 1.0)])
        with pytest.raises(PreconditionError, match="along axis 0"):
            w.geometry._interior_anchor(lens, np.random.default_rng(0))

    @pytest.mark.parametrize("d", range(1, 10))
    def test_row_norms_about_a_center_bits(self, d):
        rng = np.random.default_rng(50 + d)
        c = rng.standard_normal(d)
        for scale in (1e-150, 1e-3, 1.0, 1e150):
            v = rng.standard_normal((20_000, d)) * scale + c
            v[:50] = c  # exact zeros
            assert np.array_equal(w.geometry._row_norms(v, c), np.linalg.norm(v - c, axis=1))

    @pytest.mark.parametrize("matrix, diagonal", [
        (1.7 * np.eye(2), True), (np.diag([2.0, -0.5, 3.0]), True),
        ([[1.5, 0.2], [0.0, 1.5]], False), ([[0.3, -1.0, 0.0], [1.1, 0.4, 0.2],
                                             [0.0, 0.5, 2.0]], False)])
    def test_affine_back_map_bits(self, matrix, diagonal):
        matrix = np.asarray(matrix, dtype=float)
        d = len(matrix)
        rng = np.random.default_rng(d)
        shift = rng.standard_normal(d)
        rep = w.affine_image(w.ball(np.zeros(d), 1.0), matrix, shift)
        assert (rep._inverse_diagonal is not None) == diagonal
        pts = np.vstack([rng.standard_normal((20_000, d)) * 3.0, shift, shift + 1e-300])
        assert np.array_equal(rep._back(pts), (pts - rep.shift) @ rep.inverse.T)

    def test_chunked_coverage_matches_one_call(self, monkeypatch):
        # the slabs cover [0, 1.5] x [0, 1] of the target [0, 2] x [0, 1]
        chain = w.DecompositionChain(
            [w.box([0, 0], [1, 1]), w.box([1.0, 0], [1.25, 1]), w.box([1.25, 0], [1.5, 1])],
            np.array([[0.25, 0], [0.25, 0]]), 2, w.direction_set([[1.0, 0.0]]), "test",
            target=w.box([0, 0], [2, 1]))
        n = 4 * w.decompose.VERIFY_SAMPLES + 123  # a ragged last block
        monkeypatch.setattr(w.decompose, "COVERAGE_SAMPLES", n)
        res = w.verify_chain(chain, samples_per_piece=200, seed=3)
        tpts = w.decompose._sample_in(chain.target, n, 3 + 9999)
        slack = w.geometry.MEMBERSHIP_SLACK * chain.target.scale()
        inside = w.geometry.UnionRep(tuple(chain.pieces[::-1])).member(tpts, slack)
        assert len(tpts) == n and 0.0 < res.coverage_miss_rate < 1.0
        assert res.coverage_miss_rate == float(1.0 - inside.mean())

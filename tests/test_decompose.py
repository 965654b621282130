import math

import numpy as np
import pytest

import whitneylab as w
from whitneylab import decompose as dc
from whitneylab.decompose import DecompositionChain, verify_chain
from whitneylab.errors import PreconditionError, SpanDeficiencyError

from conftest import random_convex_polygon, stadium_domain, thin_band_chain

E2 = w.direction_set([[1.0, 0.0], [0.0, 1.0]])


class TestVerifyChain:
    def test_adjacent_boxes_ok(self):
        K = w.box([0, 0], [1, 1])
        J = w.box([1, 0], [2, 1])
        chain = DecompositionChain([K, J], np.array([[1.0, 0.0]]), 1, E2, "test",
                                   target=w.box([0, 0], [2, 1]))
        res = verify_chain(chain, samples_per_piece=2000, seed=0)
        assert res.ok and res.worst_violation == 0.0
        assert res.coverage_ok

    def test_half_shift_r2_fails(self):
        K = w.box([0, 0], [1, 1])
        J = w.box([1, 0], [2, 1])
        chain = DecompositionChain([K, J], np.array([[0.5, 0.0]]), 2, E2, "test")
        res = verify_chain(chain, samples_per_piece=2000, seed=0)
        assert not res.ok
        assert res.worst_violation > 0.1
        assert any(wit["point"][0] > 1.0 for wit in res.witnesses)
        quiet = verify_chain(chain, samples_per_piece=2000, seed=0, max_witnesses=0)
        assert not quiet.ok and not chain.verified and quiet.witnesses == []

    def test_shift_direction_must_be_declared(self):
        K = w.box([0, 0], [1, 1])
        with pytest.raises(PreconditionError):
            DecompositionChain([K, K], np.array([[1.0, 1.0]]), 1, E2, "test")

    def test_coverage_miss_flagged(self):
        K = w.box([0, 0], [1, 1])
        chain = DecompositionChain([K], np.zeros((0, 2)), 1, E2, "test",
                                   target=w.box([0, 0], [2, 1]))
        res = verify_chain(chain, samples_per_piece=100, seed=0)
        assert res.ok  # condition trivially holds
        assert res.coverage_ok is False and res.coverage_miss_rate > 0.4

    def test_unsampled_piece_fails(self):
        chain = thin_band_chain()
        res = verify_chain(chain, samples_per_piece=2000, seed=0)
        assert not res.ok and not chain.verified
        assert res.n_sampled == 0
        assert res.witnesses == [{"piece": 1, "reason": "not sampled: no member found "
                                  "and its bounding box is not flat"}]

    def test_flat_box_piece_is_proven_empty(self):
        K = w.box([0, 0], [1, 1])
        empty = w.intersection([w.box([1, 0], [2, 1]), w.box([3, 0], [4, 1])])
        assert empty.bbox[1][0] == empty.bbox[0][0]
        chain = DecompositionChain([K, empty], np.array([[1.0, 0.0]]), 1, E2, "test")
        res = verify_chain(chain, samples_per_piece=500, seed=0)
        assert res.ok and chain.verified and res.n_sampled == 0


class TestStarShaped:
    def test_unit_ball(self):
        chain = w.star_shaped_decomposition(w.ball([0, 0], 1.0), 1, seed=0)
        res = verify_chain(chain, samples_per_piece=2000, seed=0)
        assert res.ok and res.coverage_ok

    def test_normalized_square(self):
        chain = w.star_shaped_decomposition(w.box([-1, -1], [1, 1]), 1, seed=0)
        assert chain.n_pieces <= 128
        res = verify_chain(chain, samples_per_piece=2000, seed=0)
        assert res.ok and res.coverage_ok

    def test_r2_square(self):
        chain = w.star_shaped_decomposition(w.box([-1, -1], [1, 1]), 2, seed=0)
        res = verify_chain(chain, samples_per_piece=1000, seed=0)
        assert res.ok

    def test_l_shape_not_star_shaped(self):
        # an L far from the origin ball: kink blocks hulls with B_1(0)
        L = w.union([w.box([-3, -3], [3, -2.0]), w.box([2.0, -3], [3, 3])])
        with pytest.raises(PreconditionError):
            w.star_shaped_decomposition(L, 1, seed=0)


class TestPlanar:
    def test_disk(self):
        chain, dirs = w.planar_two_direction_chain(w.ball([0, 0], 1.5), r=1)
        assert len(dirs) == 2
        assert abs(dirs.dirs[0] @ dirs.dirs[1]) <= 1e-12
        res = verify_chain(chain, samples_per_piece=2000, seed=0)
        assert res.ok and res.coverage_ok

    def test_square_is_single_parallelogram_piece(self):
        chain, dirs = w.planar_two_direction_chain(w.box([-1, -1], [1, 1]), r=1)
        assert chain.n_pieces == 1
        assert verify_chain(chain, samples_per_piece=500, seed=0).ok

    def test_base_square_itself(self):
        s = 1.0 / math.sqrt(2)
        chain, _ = w.planar_two_direction_chain(w.box([-s, -s], [s, s]), r=1)
        assert chain.n_pieces == 1

    def test_random_polygons(self):
        for seed in (0, 1):
            G = random_convex_polygon(seed)
            for r in (1, 2):
                chain, dirs = w.planar_two_direction_chain(G, r=r)
                res = verify_chain(chain, samples_per_piece=1500, seed=seed)
                assert res.ok, res.witnesses[:2]
                assert res.coverage_ok

    def test_rejects_unnormalized(self):
        small = random_convex_polygon(3)
        shrunk = w.as_polytope(
            w.AffineMap(0.3 * np.eye(2), np.zeros(2)).apply_domain(small))
        with pytest.raises(PreconditionError):
            w.planar_two_direction_chain(shrunk, r=1)


class TestBallSlices:
    def test_paper_scale_parameters(self):
        # axes in the plane: spread 1/sqrt2, so sigma = 1.125 and the step
        # magnitude is sqrt2/4 at r = 1
        frag = w.ball_direction_slices(w.ball([0, 0], 1.0), E2, 1)
        assert np.linalg.norm(frag.shifts[0]) == pytest.approx(math.sqrt(2) / 4, rel=1e-9)
        assert isinstance(frag.target.rep, type(w.ball([0, 0], 1.125).rep))
        assert frag.target.rep.radius == pytest.approx(1.125, rel=1e-9)

    def test_inclusion_by_sampling(self):
        frag = w.ball_direction_slices(w.ball([0.5, -0.25], 2.0), E2, 2)
        res = verify_chain(frag, samples_per_piece=3000, seed=0)
        assert res.ok and res.worst_violation == 0.0
        assert res.coverage_ok

    def test_span_deficient_errors(self):
        E = w.direction_set([[1.0, 0.0], [-1.0, 0.0]])
        with pytest.raises(SpanDeficiencyError):
            w.ball_direction_slices(w.ball([0, 0], 1.0), E, 1)


class TestLip2:
    def test_ball(self):
        chain = w.lip2_ball_chain(w.ball([0, 0], 2.0), E2, delta=1.0, r=1, seed=0)
        res = verify_chain(chain, samples_per_piece=1000, seed=0)
        assert res.ok, res.witnesses[:2]
        assert res.coverage_ok

    def test_stadium(self):
        chain = w.lip2_ball_chain(stadium_domain(), E2, delta=1.0, r=1, seed=0)
        res = verify_chain(chain, samples_per_piece=1000, seed=0)
        assert res.ok, res.witnesses[:2]
        assert res.coverage_ok

    def test_cusp_rejected(self):
        cusp = w.union([w.ball([-1, 0], 1.0), w.ball([1, 0], 1.0)])
        with pytest.raises(PreconditionError):
            w.lip2_ball_chain(cusp, E2, delta=0.5, r=1, seed=0)


class TestXray:
    def test_ball_axes(self):
        chain = w.xray_slab_decomposition(w.ball([0, 0], 1.0), E2, n0=1, r=1)
        res = verify_chain(chain, samples_per_piece=1500, seed=0)
        assert res.ok and res.coverage_ok

    def test_cube_axes_precondition_error(self):
        cube = w.box([-1] * 3, [1] * 3)
        with pytest.raises(PreconditionError) as err:
            w.xray_slab_decomposition(cube, w.direction_set(np.eye(3)), n0=1, r=1)
        assert any(np.allclose(np.abs(x), 1.0) for x in err.value.witnesses)

    def test_cube_diagonals(self):
        cube = w.box([-1] * 3, [1] * 3)
        diag = w.direction_set(np.array(
            [[1, 1, 1], [1, 1, -1], [1, -1, 1], [1, -1, -1]]) / math.sqrt(3))
        chain = w.xray_slab_decomposition(cube, diag, n0=1, r=1)
        res = verify_chain(chain, samples_per_piece=1000, seed=0)
        assert res.ok, res.witnesses[:2]
        assert res.coverage_ok


class TestChainSpec:
    def test_bounding_box_solved_once_per_distinct_polytope(self, monkeypatch):
        square, slab = w.box([0, 0], [1, 1]), w.box([1, 0], [1.5, 1])
        chain = DecompositionChain([square, slab, w.intersection([square, slab])],
                                   [[0.5, 0.0], [0.5, 0.0]], 1,
                                   w.direction_set([[1.0, 0.0]]), "test", target=square)
        solved = []
        solve = w.geometry._polytope_bbox
        monkeypatch.setattr(w.geometry, "_polytope_bbox",
                            lambda A, b: solved.append(1) or solve(A, b))
        back = w.chain_from_spec(chain.spec())
        assert len(solved) == 2
        for got, want in zip(back.pieces + [back.target], chain.pieces + [chain.target]):
            assert np.array_equal(got.bbox, want.bbox)
        w.chain_from_spec(chain.spec())
        assert len(solved) == 4  # nothing is kept between loads

    def test_round_trip(self):
        chain, _ = w.planar_two_direction_chain(w.ball([0, 0], 1.5), r=1)
        back = w.chain_from_spec(chain.spec())
        assert back.n_pieces == chain.n_pieces
        assert np.allclose(back.shifts, chain.shifts)
        res = verify_chain(back, samples_per_piece=500, seed=0)
        assert res.ok


def _chain_recipe(dom, n, seed, max_factor=60):
    """The chain sampler's documented stream, written out: uniform batches of
    max(2n, 512) bounding-box points until n members or max_factor n + 4096
    proposals, the first n members kept; a flat box is an empty piece."""
    lo, hi = dom.bbox
    if np.any(hi <= lo):
        return np.zeros((0, dom.dim))
    rng = np.random.default_rng(seed)
    got, n_got, n_prop = [], 0, 0
    while n_got < n and n_prop < max_factor * n + 4096:
        pts = rng.uniform(lo, hi, size=(max(2 * n, 512), dom.dim))
        mask = dom.contains(pts)
        got.append(pts[mask])
        n_got += int(mask.sum())
        n_prop += len(pts)
    return np.vstack(got)[:n] if n_got else np.zeros((0, dom.dim))


def _sampled_against_recipe(monkeypatch, dom, n, seed, max_factor=60):
    """The early-stopping chain sample of ``dom`` checked bit for bit against
    the whole-batch recipe; returns (points, rows per ``dom.contains`` call,
    rows the recipe tests)."""
    rows = []
    contains = w.Domain.contains

    def counting(self, x, slack=None):
        if self is dom:
            rows.append(len(x))
        return contains(self, x, slack)

    with monkeypatch.context() as m:
        m.setattr(w.Domain, "contains", counting)
        want = _chain_recipe(dom, n, seed, max_factor)
        whole = sum(rows)
        rows.clear()
        got = dc._sample_in(dom, n, seed, max_factor)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert sum(rows) <= whole and max(rows) <= max(2 * n, 512)
    return got, rows, whole


@pytest.fixture(scope="module")
def sampled_chains():
    """The pieces verify_chain samples in the benchmark's lip2 stadium chain
    (every 20th slice) and x-ray cube and disk chains (every piece), with
    their seeds."""
    lip2 = w.lip2_ball_chain(stadium_domain(), E2, delta=1.0, r=1, seed=0)
    diag = w.direction_set(np.array([[1, 1, 1], [1, 1, -1], [1, -1, 1], [1, -1, -1]])
                           / math.sqrt(3.0))
    cube = w.xray_slab_decomposition(w.box([-1] * 3, [1] * 3), diag, r=1, seed=1)
    disk = w.xray_slab_decomposition(w.ball([0, 0], 1.0), E2, r=1, seed=1)
    return {"lip2": [(lip2.pieces[k], 17 * k) for k in range(1, lip2.n_pieces, 20)],
            "xray_cube": [(piece, 1 + 17 * k) for k, piece in enumerate(cube.pieces)],
            "xray_disk": [(piece, 1 + 17 * k) for k, piece in enumerate(disk.pieces)]}


class TestChainSampler:
    @pytest.mark.parametrize("dom, n, seed", [
        (w.ball([0.3, -0.2], 1.0), 100, 0),
        (random_convex_polygon(3), 700, 5),
        (stadium_domain(), 1500, 7),
        (w.cone_body([0.0, 0.0, 1.0], 0.3), 2000, 2),
        # about 300 members within the proposal cap: a partial sample
        (w.union([w.ball([0, 0], 0.03), w.ball([1, 1], 0.03)]), 1000, 1),
    ])
    def test_matches_the_documented_stream(self, monkeypatch, dom, n, seed):
        pts, rows, whole = _sampled_against_recipe(monkeypatch, dom, n, seed)
        assert 0 < len(pts) <= n and np.all(dom.contains(pts))
        if len(pts) < n:  # a partial sample tests exactly the whole batches
            assert sum(rows) == whole

    @pytest.mark.parametrize("radius, found", [(0.01, 1), (1e-4, 0)])
    def test_emptiness_probe(self, monkeypatch, radius, found):
        # one point, at most 512 + 4096 proposals: at seed 1 the first member
        # of the r = 0.01 pair comes in the fifth batch of 512
        pair = w.union([w.ball([0, 0], radius), w.ball([1, 1], radius)])
        pts, rows, whole = _sampled_against_recipe(monkeypatch, pair, 1, 1, max_factor=512)
        assert len(pts) == found
        if not found:  # a piece that never reaches n tests exactly the whole batches
            assert sum(rows) == whole == 512 + 4096

    # the disk's slabs accept about a quarter: their n-th member often sits
    # just inside the second batch, which a chunk must not overrun
    @pytest.mark.parametrize("name", ["lip2", "xray_cube", "xray_disk"])
    def test_verify_pieces_stop_at_n(self, monkeypatch, sampled_chains, name):
        n = dc.VERIFY_SAMPLES
        for piece, seed in sampled_chains[name]:
            pts, rows, whole = _sampled_against_recipe(monkeypatch, piece, n, seed)
            assert len(pts) == n
            if name == "xray_cube":  # 99.9% acceptance: the recipe's second batch is waste
                assert sum(rows) < whole

    @pytest.mark.parametrize("dom", [
        w.intersection([w.box([0, 0], [1, 1]), w.box([2, 0], [3, 1])]),  # disjoint
        w.polytope([[0, 1], [0, -1], [1, 0], [-1, 0]], [0, 0, 1, 1]),      # a segment
    ])
    def test_flat_box_is_empty(self, dom):
        assert dc._sample_in(dom, 10, 0).shape == (0, 2)


def _slab_inequality(dom, c0, c1, r, delta):
    """Whether c0 dom + B(r delta) lies in c1 dom, as the slab chain needs it."""
    if isinstance(dom.rep, w.geometry.PolytopeRep):
        A, b = dom.rep.A, dom.rep.b
        h = np.max(dom.vertices() @ A.T, axis=0)
        return bool(np.all(c0 * h + r * delta * np.linalg.norm(A, axis=1) <= c1 * b + 1e-15))
    c, rho = dom.rep.center, dom.rep.radius
    return (c1 - c0) * np.linalg.norm(c) + c0 * rho + r * delta <= c1 * rho + 1e-15


class TestSlabThickness:
    @pytest.mark.parametrize("dom", [random_convex_polygon(4), w.box([-1] * 3, [1] * 3),
                                     w.ball([0.3, -0.2, 0.1], 1.5)],
                             ids=["polygon", "cube", "off-centre ball"])
    @pytest.mark.parametrize("n, r", [(1, 1), (3, 2)])
    def test_closed_form(self, dom, n, r):
        c0, c1 = 1.0 - 1.0 / (n + 2.0), 1.0 - 1.0 / (n + 4.0)
        diam = w.diameter(dom).value
        delta = dc._slab_thickness(dom, c0, c1, r, diam)
        assert 0.0 < delta < diam
        # the largest thickness, to 1e-9
        assert _slab_inequality(dom, c0, c1, r, delta)
        assert not _slab_inequality(dom, c0, c1, r, delta * (1.0 + 1e-9))
        lo, hi = 0.0, diam
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if _slab_inequality(dom, c0, c1, r, mid) else (lo, mid)
        assert delta == pytest.approx(lo, rel=1e-12)

    def test_origin_outside_the_shrink_gives_zero(self):
        off = w.box([0.5, 0.5], [1.5, 1.5])
        assert dc._slab_thickness(off, 2 / 3, 0.8, 1, 2.0) == 0.0

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import ConvexHull

import whitneylab as w
from whitneylab import decompose as dc
from whitneylab.cli import run
from whitneylab.decompose import DecompositionChain, verify_chain
from whitneylab.errors import PreconditionError, SpanDeficiencyError

from conftest import random_convex_polygon, stadium_domain, thin_band_chain

E2 = w.direction_set([[1.0, 0.0], [0.0, 1.0]])
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def bench():
    """The benchmark's ``perfbench/workloads.py`` module."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        import workloads
    return workloads


class TestVerifyChain:
    def test_adjacent_boxes_ok(self):
        K = w.box([0, 0], [1, 1])
        J = w.box([1, 0], [2, 1])
        chain = DecompositionChain([K, J], np.array([[1.0, 0.0]]), 1, E2, "test",
                                   target=w.box([0, 0], [2, 1]))
        res = verify_chain(chain, samples_per_piece=2000, seed=0)
        assert res.ok and res.worst_violation == 0.0
        assert res.coverage_ok

    def test_half_shift_r2_fails(self, monkeypatch):
        K = w.box([0, 0], [1, 1])
        J = w.box([1, 0], [2, 1])
        chain = DecompositionChain([K, J], np.array([[0.5, 0.0]]), 2, E2, "test")
        res = verify_chain(chain, samples_per_piece=2000, seed=0)
        assert not res.ok
        assert res.worst_violation > 0.1
        assert any(wit["point"][0] > 1.0 for wit in res.witnesses)
        # about half of the 2000 points fail, and only MAX_WITNESSES are kept
        assert len(res.witnesses) == dc.MAX_WITNESSES == 10
        monkeypatch.setattr(dc, "MAX_WITNESSES", 0)
        quiet = verify_chain(chain, samples_per_piece=2000, seed=0)
        assert not quiet.ok and not chain.verified and quiet.witnesses == []

    def test_prior_unions_build_no_bounding_box(self, monkeypatch):
        # verify_chain builds a union of the prior pieces for every piece; an
        # eager box would be a pass over them each time, O(pieces^2) in all
        def no_box(self):
            raise AssertionError("verify_chain read a union's bounding box")
        monkeypatch.setattr(w.geometry.UnionRep, "bbox", property(no_box))
        chain = DecompositionChain([w.box([0, 0], [1, 1]), w.box([1, 0], [2, 1])],
                                   np.array([[0.5, 0.0]]), 2, E2, "test",
                                   target=w.box([0, 0], [2, 1]))
        res = verify_chain(chain, samples_per_piece=2000, seed=0)
        assert not res.ok and res.worst_violation > 0.1 and res.coverage_ok

    def test_shift_direction_must_be_declared(self):
        K = w.box([0, 0], [1, 1])
        with pytest.raises(PreconditionError):
            DecompositionChain([K, K], np.array([[1.0, 1.0]]), 1, E2, "test")

    def test_nan_distance_is_a_violation(self):
        # a shift set to NaN after the chain is built: no shifted sample has a distance
        chain = DecompositionChain([w.box([0, 0], [1, 1]), w.box([1, 0], [2, 1])],
                                   np.array([[1.0, 0.0]]), 1, E2, "test")
        chain.shifts[0] = [math.nan, 0.0]
        res = verify_chain(chain, samples_per_piece=500, seed=0)
        assert not res.ok and not chain.verified and res.method == "sampled"
        assert res.worst_violation == math.inf and len(res.witnesses) == dc.MAX_WITNESSES

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

    def test_disjoint_stack_is_proven_empty(self):
        # the triangle's box overlaps the slab's, the sets do not: the stacked
        # half-spaces have no vertex, so the piece's box is flat
        triangle = w.polytope([[-1, 0], [0, -1], [1, 1]], [0, 0, 1])
        slab = w.polytope([[1, 1], [-1, -1], [1, -1], [-1, 1]], [1.6, -1.2, 1.0, 1.0])
        assert np.all(np.maximum(triangle.bbox[0], slab.bbox[0])
                      < np.minimum(triangle.bbox[1], slab.bbox[1]))
        piece = dc._stack_with_polytope(slab.A, slab.b, triangle)
        chain = DecompositionChain([w.box([0, 0], [1, 1]), piece], np.array([[1.0, 0.0]]), 1,
                                   E2, "test")
        res = verify_chain(chain, samples_per_piece=500, seed=0)
        assert res.ok and chain.verified and res.n_sampled == 0 and res.witnesses == []

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

    def test_l_shape_witness_is_the_first_failing_sample(self):
        L = w.union([w.box([-3, -3], [3, -2.0]), w.box([2.0, -3], [3, 3])])
        # reference: the per-point loop over samples and mixing weights, with
        # the sample size, directions and weights that _check_star_shaped uses
        seed, n_points, n_dirs, n_lambda = 0, 256, 12, 8
        rng = np.random.default_rng(seed)
        pts = dc._sample_in(L, n_points, seed)
        dirs = rng.standard_normal((n_dirs, 2))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        want = next(x for x in pts
                    if any(not np.all(L.contains(lam * x + (1.0 - lam) * dirs))
                           for lam in np.linspace(0.0, 1.0, n_lambda)))
        with pytest.raises(PreconditionError) as err:
            dc._check_star_shaped(L, seed)
        assert err.value.witnesses == [want.tolist()]


class TestPlanar:
    def test_disk(self):
        chain = w.planar_two_direction_chain(w.ball([0, 0], 1.5), r=1)
        xi1, xi2 = chain.dirset.dirs[:2]
        assert len(chain.dirset) == 4 and abs(xi1 @ xi2) <= 1e-12
        res = verify_chain(chain, samples_per_piece=2000, seed=0)
        assert res.ok and res.coverage_ok

    def test_square_is_single_parallelogram_piece(self):
        chain = w.planar_two_direction_chain(w.box([-1, -1], [1, 1]), r=1)
        assert chain.n_pieces == 1
        assert verify_chain(chain, samples_per_piece=500, seed=0).ok

    def test_base_square_itself(self):
        s = 1.0 / math.sqrt(2)
        chain = w.planar_two_direction_chain(w.box([-s, -s], [s, s]), r=1)
        assert chain.n_pieces == 1

    def test_random_polygons(self):
        for seed in (0, 1):
            G = random_convex_polygon(seed)
            for r in (1, 2):
                chain = w.planar_two_direction_chain(G, r=r)
                res = verify_chain(chain, samples_per_piece=1500, seed=seed)
                assert res.ok, res.witnesses[:2]
                assert res.coverage_ok

    def test_benchmark_sliver_gets_its_samples(self, bench, monkeypatch):
        # piece 7 of the benchmark's seed-1 planar chain is a thin sliver; in
        # its exact box the chain sampler reaches all its points.  With the
        # vertex test on, most links are not sampled at all; off, every one is
        # sampled in full
        spec = bench.random_polygon(np.random.default_rng([1, 2]), normalized=True)
        chain = w.planar_two_direction_chain(w.domain_from_spec(spec), r=2)
        sliver = chain.pieces[7]
        assert len(dc._sample_in(sliver, dc.VERIFY_SAMPLES, 1 + 17 * 7)) == dc.VERIFY_SAMPLES
        monkeypatch.setattr(dc, "_absorbed", lambda *args: False)
        res = verify_chain(chain, seed=1)
        assert res.ok and chain.verified
        assert res.n_sampled == dc.VERIFY_SAMPLES * (chain.n_pieces - 1)

    def test_rejects_unnormalized(self):
        small = random_convex_polygon(3)
        shrunk = w.as_polytope(
            w.affine_image(small, 0.3 * np.eye(2), np.zeros(2)))
        with pytest.raises(PreconditionError):
            w.planar_two_direction_chain(shrunk, r=1)


class TestBallSlices:
    @staticmethod
    def _fragment(center, rho, dirset, r):
        """The ball, then its slices: a chain that grows it to its sigma-dilation."""
        eps0, sym = dirset.spread, dirset.symmetrized()
        target = w.ball(center, dc._dilation(eps0, r) * rho)
        pieces, shifts = dc._slice_pieces(np.asarray(center, float), rho, sym, eps0, r, target)
        return DecompositionChain([w.ball(center, rho)] + pieces, np.array(shifts), r, sym,
                                  "ball_slices", target=target)

    def test_paper_scale_parameters(self):
        # axes in the plane: spread 1/sqrt2, so sigma = 1.125 and the step
        # magnitude is sqrt2/4 at r = 1
        frag = self._fragment([0, 0], 1.0, E2, 1)
        assert frag.n_pieces == 5
        assert np.linalg.norm(frag.shifts, axis=1) == pytest.approx([math.sqrt(2) / 4] * 4,
                                                                    rel=1e-9)
        assert frag.target.radius == pytest.approx(1.125, rel=1e-9)

    def test_inclusion_by_sampling(self):
        frag = self._fragment([0.5, -0.25], 2.0, E2, 2)
        res = verify_chain(frag, samples_per_piece=3000, seed=0)
        assert res.ok and res.worst_violation == 0.0
        assert res.coverage_ok

    def test_span_deficient_errors(self):
        E = w.direction_set([[1.0, 0.0], [-1.0, 0.0]])
        with pytest.raises(SpanDeficiencyError):
            w.lip2_ball_chain(w.ball([0, 0], 2.0), E, delta=1.0)


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


@pytest.fixture(scope="module")
def lip2_chains():
    """The lip2 stadium and radius-2 ball chains of criterion 7, built once."""
    return {"stadium": w.lip2_ball_chain(stadium_domain(), E2, delta=1.0, r=1, seed=0),
            "ball": w.lip2_ball_chain(w.ball([0, 0], 2.0), E2, delta=1.0, r=1, seed=0)}


def _certified(chain):
    return dc._certified_pieces(chain, dc.VERIFY_TOL_REL * chain.target.scale())


def _host_balls(chain):
    """The rounds of ``chain`` and the centre and reach of each one's ball."""
    rounds = dc._slice_rounds(chain)
    centers = np.array([sh[0][0] for _, _, sh in rounds])
    reach = np.array([max(dc._slice_reach(R, xi, e, chain.shifts[k - 1], chain.order)
                          for k, (_, R, xi, e) in enumerate(sh, start))
                      for start, _, sh in rounds])
    return rounds, centers, reach


def _seeded(chain):
    """The slices of the rounds whose ball B(c, reach) lies in the seed piece."""
    rounds, centers, reach = _host_balls(chain)
    inside = chain.pieces[0].signed_distance(centers) + reach <= 0.0
    return {k for (start, stop, _), ok in zip(rounds, inside) if ok for k in range(start, stop)}


def _stray_pieces(chain, ks, n=100):
    """The pieces among ``ks`` with a sampled point whose backward shifts
    leave the earlier pieces."""
    stray = []
    for k in ks:
        pts = dc._sample_in(chain.pieces[k], n, k)
        prior = w.union(chain.pieces[:k])
        if not all(prior.contains(pts - j * chain.shifts[k - 1]).all()
                   for j in range(1, chain.order + 1)):
            stray.append(k)
    return stray


def _with(chain, keep=None, shifts=None):
    """A copy of ``chain`` with only the pieces ``keep`` or other shifts."""
    keep = range(chain.n_pieces) if keep is None else keep
    shifts = chain.shifts if shifts is None else shifts
    return DecompositionChain([chain.pieces[k] for k in keep],
                              np.array([shifts[k - 1] for k in keep[1:]]),
                              chain.order, chain.dirset, chain.provenance, chain.target)


class TestLip2Certificate:
    def test_rounds_cover_every_slice_once(self, lip2_chains):
        # 130 rounds of 4 slices on the stadium, the first 4 inside the seed square
        chain = lip2_chains["stadium"]
        rounds = dc._slice_rounds(chain)
        assert (len(rounds), {len(sh) for _, _, sh in rounds}) == (130, {4})
        assert [k for start, stop, _ in rounds for k in range(start, stop)] == \
            list(range(1, chain.n_pieces))
        assert _seeded(chain) == set(range(1, 17))

    @pytest.mark.parametrize("name", ["stadium", "ball"])
    def test_certified_reloaded_and_sampled_runs_agree(self, lip2_chains, name, monkeypatch):
        chain = lip2_chains[name]
        cert = verify_chain(chain, samples_per_piece=1000, seed=0)
        assert cert.ok and cert.method == "construction" and cert.n_sampled == 0
        # a chain read back from its file has slices of the same shape
        back = w.chain_from_spec(chain.spec())
        assert back.pieces[1].parts[1] is not back.target
        assert verify_chain(back, samples_per_piece=1000, seed=0) == cert
        # without the certificate every piece is sampled and passes as before
        monkeypatch.setattr(dc, "_certified_pieces", lambda chain, tol: set())
        res = verify_chain(chain, samples_per_piece=1000, seed=0)
        assert res.ok and res.method == "sampled", res.witnesses[:2]
        assert res.n_sampled == 1000 * (chain.n_pieces - 1)
        assert res.coverage_miss_rate == cert.coverage_miss_rate

    @pytest.mark.parametrize("name", ["stadium", "ball"])
    def test_host_balls_are_proved_without_probes(self, lip2_chains, name, monkeypatch):
        def probe(*args):
            raise AssertionError("the certificate ran _ball_inside's probes")
        monkeypatch.setattr(dc, "_ball_inside", probe)
        res = verify_chain(lip2_chains[name], samples_per_piece=1000, seed=0)
        assert res.ok and res.method == "construction" and res.n_sampled == 0

    def test_stadium_host_balls_need_the_grid(self, lip2_chains):
        # the union's signed distance at the centre proves 89 of the 130
        # host balls; the grid proves the other 41
        chain = lip2_chains["stadium"]
        _, centers, reach = _host_balls(chain)
        one_point = chain.target.signed_distance(centers) + reach <= 0.0
        assert one_point.sum() == 89
        assert np.all(dc._ball_excess(chain.target, centers, reach) <= 0.0)

    def test_a_slot_between_the_probes_is_refused(self):
        # [-1, 1]^2 less the slot {x > 0.5, 0.017 < y < 0.027}, 0.01 wide,
        # which B(0, 0.9) crosses between the probes at angles 0 and 2 pi / 128
        slotted = w.union([w.box([-1, -1], [1, 0.017]), w.box([-1, 0.027], [1, 1]),
                           w.box([-1, 0.017], [0.5, 0.027])])
        center, radius = np.zeros((1, 2)), np.array([0.9])
        assert not slotted.contains([0.7, 0.022])
        assert dc._ball_inside(slotted, center, 0.9).all()
        assert dc._ball_excess(slotted, center, radius)[0] > 0.0

    @pytest.mark.parametrize("d, proved", [(2, True), (3, True), (4, False)])
    def test_grid_proves_a_ball_across_overlapping_parts(self, d, proved):
        # [0, 0.7] x [0, 1]^(d-1) and [0.3, 1] x [0, 1]^(d-1): each part is 0.2
        # deep at the centre, the union 0.5, so B(c, 0.3) needs the grid,
        # which past d = 3 is not tried
        parts = w.union([w.box([0.0] * d, [0.7] + [1.0] * (d - 1)),
                         w.box([0.3] + [0.0] * (d - 1), [1.0] * d)])
        center = np.full((1, d), 0.5)
        assert parts.signed_distance(center)[0] + 0.3 > 0.0
        assert (dc._ball_excess(parts, center, np.array([0.3]))[0] == 0.0) == proved

    @pytest.mark.parametrize("r, worst", [(1, 0.910), (2, 0.946)])
    def test_slice_reach_is_the_sampled_maximum(self, r, worst):
        # the closed form bounds max |x - c - j h| / rho over a slice from
        # above, and the slice's corners, on its rim and its cone, attain it
        c, rho = np.array([0.5, -0.25]), 2.0
        eps0, sym = E2.spread, E2.symmetrized()
        pieces, shifts = dc._slice_pieces(c, rho, sym, eps0, r, w.ball(c, 10.0))
        for piece, h in zip(pieces, shifts):
            _, R, xi, e = dc._slice_shape(piece, piece.parts[1])
            bound = dc._slice_reach(R, xi, e, h, r) / rho
            pts = dc._sample_in(piece, 20_000, 3)
            corners = c + R * (e * xi + math.sqrt(1.0 - e * e) * np.outer([1, -1], [-xi[1], xi[0]]))
            assert piece.contains(corners).all()

            def reach(x):
                return max(np.linalg.norm(x - c - j * h, axis=1).max()
                           for j in range(1, r + 1)) / rho
            assert reach(pts) <= bound and reach(corners) == pytest.approx(bound, abs=1e-12)
            assert bound == pytest.approx(worst, abs=1e-3)

    def test_doubled_dilation_is_rejected(self, monkeypatch):
        # sigma = 1 + eps0^2 / 2r: the slices reach past the ball that the
        # next round's slices were sized to fill; what stays certified lands
        monkeypatch.setattr(dc, "_dilation", lambda eps0, r: 1.0 + eps0 * eps0 / (2.0 * r))
        chain = w.lip2_ball_chain(w.ball([0, 0], 2.0), E2, delta=1.0, r=1, seed=0)
        cert = _certified(chain)
        assert _seeded(chain) < cert < set(range(1, chain.n_pieces))
        assert _stray_pieces(chain, sorted(cert)) == []
        assert verify_chain(chain, samples_per_piece=20, seed=0).method == "sampled"

    def test_quadrupled_shift_is_rejected(self, lip2_chains):
        # at s = 0 the shifted apex sits 2 eps0 rho = 1.41 rho from c: only
        # the small rounds of the walks still fit in an earlier round's ball
        chain = lip2_chains["stadium"]
        moved = _with(chain, shifts=4.0 * chain.shifts)
        cert = _certified(moved)
        assert _seeded(moved) < cert and len(cert) < chain.n_pieces // 4
        assert _stray_pieces(moved, sorted(cert)) == []
        assert len(_stray_pieces(moved, range(1, chain.n_pieces), n=50)) > chain.n_pieces // 3

    def test_opening_above_the_spread_is_rejected(self):
        # the slices of a round no longer reach the diagonals, so only the
        # rounds inside the seed square keep their certificate
        E = w.direction_set(E2.dirs)
        E.__dict__["spread"] = 1.05 * E2.spread
        chain = w.lip2_ball_chain(w.ball([0, 0], 2.0), E, delta=1.0, r=1, seed=0)
        assert chain.dirset.spread == E2.spread
        assert _seeded(chain) and _certified(chain) == _seeded(chain)

    def test_round_missing_a_direction_covers_nothing(self, lip2_chains):
        # one direction's slices taken out of every round: only the rounds
        # inside the seed square keep their certificate
        chain = lip2_chains["stadium"]
        gone = _with(chain, keep=[0] + [k for k in range(1, chain.n_pieces) if k % 4 != 1])
        assert {len(sh) for _, _, sh in dc._slice_rounds(gone)} == {3}
        assert _certified(gone) == _seeded(gone) == set(range(1, 13))
        assert verify_chain(gone, samples_per_piece=20, seed=0).method == "sampled"

    def test_slices_of_another_domain_are_sampled(self, lip2_chains):
        chain = lip2_chains["ball"]
        wider = DecompositionChain(chain.pieces, chain.shifts, chain.order, chain.dirset,
                                   chain.provenance, w.ball([0, 0], 2.5))
        assert dc._slice_rounds(wider) == [] and _certified(wider) == set()

    def test_apex_in_the_domain_skips_the_emptiness_probe(self, monkeypatch):
        probed = []
        monkeypatch.setattr(dc, "_piece_nonempty", lambda piece, seed: probed.append(1) or True)
        sym = E2.symmetrized()
        dc._slice_pieces(np.array([0.0, 0.0]), 0.5, sym, E2.spread, 1, w.ball([0, 0], 1.0))
        assert probed == []
        dc._slice_pieces(np.array([1.2, 0.0]), 0.5, sym, E2.spread, 1, w.ball([0, 0], 1.0))
        assert len(probed) == 4


class TestXray:
    def test_ball_axes(self):
        chain = w.xray_slab_decomposition(w.ball([0, 0], 1.0), E2, n0=1, r=1)
        res = verify_chain(chain, samples_per_piece=1500, seed=0)
        assert res.ok and res.coverage_ok

    def test_ball_in_three_dimensions(self):
        # past d = 2 a ball's slab is the union of 35 balls along its segment
        axes = w.direction_set(np.eye(3))
        chain = w.xray_slab_decomposition(w.ball([0, 0, 0], 1.0), axes, n0=1, r=1, seed=1)
        assert chain.n_pieces == 187
        assert len(chain.pieces[1].parts[0].parts) == 35
        assert np.all(np.count_nonzero(chain.shifts, axis=1) == 1)  # each along +/- an axis
        res = verify_chain(chain, samples_per_piece=2000)
        assert res.ok and res.method == "sampled" and res.worst_violation == 0.0
        assert res.coverage_ok and res.coverage_miss_rate == pytest.approx(3e-5, rel=1e-9)

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

    def test_cube_diagonal_pieces_have_one_row_per_facet(self):
        # qhull gives one row per triangle; a piece keeps one per facet
        cube = w.box([-1] * 3, [1] * 3)
        diag = w.direction_set(np.array(
            [[1, 1, 1], [1, 1, -1], [1, -1, 1], [1, -1, -1]]) / math.sqrt(3))
        chain = w.xray_slab_decomposition(cube, diag, n0=1, r=1, seed=1)
        for piece in chain.pieces:  # the shrunken cube and its slabs, all polytopes
            rows = np.column_stack([piece.A, piece.b])
            gap = np.max(np.abs(rows[:, None] - rows[None]), axis=2)
            np.fill_diagonal(gap, np.inf)
            assert gap.min() > 1e-9


class TestSegmentMeets:
    """``_segment_meets``: whether p + t e, t in [0, t_hi], meets a polytope or a
    ball, the x-ray builder's test for its shrink index."""

    @staticmethod
    def _domains():
        rng = np.random.default_rng(5)
        for seed in range(3):
            yield random_convex_polygon(seed, normalized=seed % 2 == 0)
        hull = ConvexHull(rng.standard_normal((12, 3)))
        yield w.polytope(hull.equations[:, :3], -hull.equations[:, 3])
        yield w.box([-1.0] * 3, [1.0] * 3)
        yield w.ball([0.3, -0.2], 0.9)
        yield w.ball([0.1, 0.4, -0.3], 1.2)

    def test_matches_a_per_step_loop(self):
        rng = np.random.default_rng(0)
        ts = np.linspace(0.0, 2.0, 4001)
        for dom in self._domains():
            pts = rng.uniform(-3.0, 3.0, size=(150, dom.dim))
            e = rng.standard_normal(dom.dim)
            e /= np.linalg.norm(e)
            want = np.array([dom.contains(p + ts[:, None] * e).any() for p in pts])
            got = dc._segment_meets(dom, pts, e, 2.0)
            assert 0 < want.sum() < len(pts) and dom.contains(pts).any()
            assert np.array_equal(got, want)

    def test_box_face_parallel_to_the_ray(self):
        # along e1 the face rows y <= 1 and -y <= 1 have a . e = 0: from
        # (-3, 2) the ray passes over the face y = 1, where the x rows alone
        # allow t in [2, 4]; from (3, 0) they allow t in [-4, -2], behind p;
        # (-3, 1) runs along that face, and t_hi = 1 stops short of the square
        sq = w.box([-1.0, -1.0], [1.0, 1.0])
        e = np.array([1.0, 0.0])
        pts = np.array([[-3.0, 2.0], [3.0, 0.0], [-3.0, 0.5], [0.5, 0.5], [-3.0, 1.0]])
        assert dc._segment_meets(sq, pts, e, 10.0).tolist() == [False, False, True, True, True]
        assert dc._segment_meets(sq, pts, e, 1.0).tolist() == [False, False, False, True, False]

    def test_ball_behind_and_beside_the_ray(self):
        disk = w.ball([0.0, 0.0], 1.0)
        e = np.array([1.0, 0.0])
        pts = np.array([[3.0, 0.0], [-3.0, 0.0], [-3.0, 1.5], [-3.0, 1.0]])
        assert dc._segment_meets(disk, pts, e, 10.0).tolist() == [False, True, False, True]
        assert dc._segment_meets(disk, pts, e, 1.5).tolist() == [False, False, False, False]


class TestMarchEmptiness:
    def test_thin_polytope_band_keeps_a_march_going(self):
        # the band |x - y| <= 5e-6 across the unit square has area 1e-5, so a
        # bounding-box proposal almost never lands in it, but its vertex
        # candidates span R^2
        band = w.polytope([[1, 0], [-1, 0], [0, 1], [0, -1], [1, -1], [-1, 1]],
                          [1, 0, 1, 0, 5e-6, 5e-6])
        pieces, shifts = [], []
        dc._march(pieces, shifts, 4, lambda i: band, np.array([0.1, 0.0]), 0)
        assert pieces == [band] * 4 and len(shifts) == 4

    @pytest.mark.parametrize("empty", ["disjoint stack", "segment"])
    def test_polytope_without_volume_stops_a_march(self, empty):
        triangle = w.polytope([[-1, 0], [0, -1], [1, 1]], [0, 0, 1])
        slab = w.polytope([[1, 1], [-1, -1], [1, -1], [-1, 1]], [1.6, -1.2, 1.0, 1.0])
        stop = (dc._stack_with_polytope(slab.A, slab.b, triangle) if empty == "disjoint stack"
                else w.box([0, 0], [1, 0]))
        square = w.box([0, 0], [1, 1])
        pieces, shifts = [], []
        dc._march(pieces, shifts, 3, lambda i: [square, stop, square][i - 1],
                  np.array([0.1, 0.0]), 0)
        assert pieces == [square] and len(shifts) == 1


class TestChainSpec:
    def test_boundedness_solved_once_per_distinct_matrix(self, monkeypatch):
        # the boxes are read off the vertices; reading a chain solves one
        # boundedness LP per distinct A, and a repeat of A solves none
        square, slab = w.box([0, 0], [1, 1]), w.box([1, 0], [1.5, 1])
        triangle = w.polytope([[-1, 0], [0, -1], [1, 1]], [0, 0, 1])
        chain = DecompositionChain([square, slab, w.intersection([square, slab]), triangle],
                                   [[0.5, 0.0]] * 3, 1, w.direction_set([[1.0, 0.0]]),
                                   "test", target=square)
        solved = []
        solve = w.geometry.linprog
        monkeypatch.setattr(w.geometry, "linprog",
                            lambda *a, **k: solved.append(1) or solve(*a, **k))
        w.geometry._bounded.cache_clear()
        back = w.chain_from_spec(chain.spec())
        assert len(solved) == 2  # the boxes' A and the triangle's
        for got, want in zip(back.pieces + [back.target], chain.pieces + [chain.target]):
            assert np.array_equal(got.bbox, want.bbox)
        w.chain_from_spec(chain.spec())
        assert len(solved) == 2

    def test_round_trip(self):
        chain = w.planar_two_direction_chain(w.ball([0, 0], 1.5), r=1)
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
    if isinstance(dom, w.geometry.PolytopeRep):
        A, b = dom.A, dom.b
        h = np.max(dom.vertices @ A.T, axis=0)
        return bool(np.all(c0 * h + r * delta * np.linalg.norm(A, axis=1) <= c1 * b + 1e-15))
    c, rho = dom.center, dom.radius
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


def _walk_links(adj):
    """The reference for ``_depth_first``: the (prev, next) links of a walk
    with explicit backtracking, a centre linked where it first appears, and
    whether the walk reached every centre."""
    walk, visited = [0], {0}
    stack = [(0, iter(np.nonzero(adj[0])[0]))]
    while stack:
        u, neighbors = stack[-1]
        for v in neighbors:
            v = int(v)
            if v not in visited:
                visited.add(v)
                walk.append(v)
                stack.append((v, iter(np.nonzero(adj[v])[0])))
                break
        else:
            stack.pop()
            if stack:
                walk.append(stack[-1][0])
    links, covered = [], {0}
    for prev, nxt in zip(walk[:-1], walk[1:]):
        if nxt not in covered:
            links.append((prev, nxt))
            covered.add(nxt)
    return links, len(visited) == len(adj)


def _candidate_order_by_sets(k, r):
    """The reference for ``_candidate_order``'s closed form, built with sets."""
    recent = list(range(k - 1, max(-1, k - 2 - 2 * r), -1))
    seen = set(recent)
    order = recent + ([0] if 0 not in seen else [])
    seen.add(0)
    order.extend(j for j in range(k - 1, 0, -1) if j not in seen)
    return order


class TestReferenceCopies:
    def test_depth_first_order_links_as_the_walk(self):
        rng = np.random.default_rng(0)
        connected = 0
        for _ in range(300):
            pts = rng.random((int(rng.integers(1, 60)), 2))
            adj = np.linalg.norm(pts[:, None] - pts[None], axis=2) <= rng.uniform(0.05, 0.5)
            np.fill_diagonal(adj, False)
            order, pred = dc._depth_first(adj)
            links, reached = _walk_links(adj)
            assert [(pred[v], v) for v in order[1:]] == links
            assert (len(order) == len(adj)) == reached
            connected += reached
        assert 30 < connected < 270  # both verdicts occur

    def test_candidate_order_closed_form(self):
        for r in range(1, 6):
            for k in range(1, 700):
                assert dc._candidate_order(k, r) == _candidate_order_by_sets(k, r)


# ---------------------------------------------------------------------------
# polytope links settled by their vertices
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def benchmark_chains(bench, tmp_path_factory):
    """(decompose payload, program seed) of the ``chains`` workload's five
    chains at benchmark seeds 1-3, by (name, seed); the lip2 chain has one
    fixed program seed, so it is built once."""
    out = {}
    for seed in (1, 2, 3):
        work = tmp_path_factory.mktemp(f"chains{seed}")
        for exp in bench.build("chains", work, seed):
            name = exp.name.split()[-1]
            if exp.argv[0] != "decompose" or (name == "lip2" and seed > 1):
                continue
            assert run(exp.argv) == 0
            out[name, seed] = (json.loads(exp.out.read_text()),
                               int(exp.argv[exp.argv.index("--seed") + 1]))
    return out


def _all_sampled(chain, seed, monkeypatch, **kw):
    """``verify_chain`` with the vertex test switched off."""
    with monkeypatch.context() as mp:
        mp.setattr(dc, "_absorbed", lambda *args: False)
        return verify_chain(chain, seed=seed, **kw)


def _same_verdict(res, ref):
    """Every field but ``n_sampled`` and ``method`` equal."""
    return dataclasses.replace(ref, n_sampled=res.n_sampled, method=res.method) == res


def _reversed_cover_miss(chain, seed):
    """The coverage miss rate with the cover tried last piece first (the
    order before the largest-box-first one)."""
    slack = w.geometry.MEMBERSHIP_SLACK * max(1.0, chain.target.scale())
    pts = dc._sample_in(chain.target, dc.COVERAGE_SAMPLES, seed + 9999)
    return float(1.0 - w.geometry.UnionRep(tuple(chain.pieces[::-1])).member(pts, slack).mean())


def _pushed(chain, k, row):
    """``chain`` with facet ``row`` of polytope piece k moved out by half its shift."""
    P, h = chain.pieces[k], chain.shifts[k - 1]
    b = P.b.copy()
    b[row] += 0.5 * np.linalg.norm(h) * np.linalg.norm(P.A[row])
    pieces = [*chain.pieces[:k], w.geometry.PolytopeRep(P.A, b), *chain.pieces[k + 1:]]
    return DecompositionChain(pieces, chain.shifts, chain.order, chain.dirset, "pushed",
                              target=chain.target)


class TestVertexTest:
    def test_benchmark_chains_keep_their_verdicts(self, benchmark_chains, monkeypatch):
        for (name, _), (payload, seed) in benchmark_chains.items():
            chain = dc.chain_from_spec(payload["chain"])
            res = verify_chain(chain, seed=seed)
            ref = _all_sampled(chain, seed, monkeypatch)
            assert res.ok and _same_verdict(res, ref), name
            assert res.n_sampled <= ref.n_sampled

    def test_decompose_labels(self, benchmark_chains):
        want = {"planar": "sampled", "star": "exact", "xray_cube": "exact",
                "lip2": "construction", "xray_disk": "sampled"}
        for (name, _), (payload, _) in benchmark_chains.items():
            assert payload["method"] == want[name] and payload["verified"], name

    def test_coverage_order_keeps_the_miss_rate(self, benchmark_chains):
        for (name, _), (payload, seed) in benchmark_chains.items():
            chain = dc.chain_from_spec(payload["chain"])
            assert verify_chain(chain, seed=seed).coverage_miss_rate \
                == _reversed_cover_miss(chain, seed), name
        # test_cli's TestCoverageGate chain: [0, 1]^2 covers half its target
        half = DecompositionChain([w.box([0, 0], [1, 1])], np.zeros((0, 2)), 1, E2, "test",
                                  target=w.box([0, 0], [2, 1]))
        res = verify_chain(half, seed=0)
        assert res.coverage_miss_rate == _reversed_cover_miss(half, 0)
        assert res.coverage_miss_rate == pytest.approx(0.5, abs=0.01)

    @pytest.mark.parametrize("name, mutate", [
        ("star", lambda ch: DecompositionChain(ch.pieces, 2 * ch.shifts, ch.order, ch.dirset,
                                               "doubled", target=ch.target)),
        ("planar", lambda ch: DecompositionChain(ch.pieces, 2 * ch.shifts, ch.order, ch.dirset,
                                                 "doubled", target=ch.target)),
        # the facets whose push leaves the earlier pieces, found by trying each
        ("planar", lambda ch: _pushed(ch, 6, 0)),
        ("xray_cube", lambda ch: _pushed(ch, 85, 11)),
    ], ids=["star-doubled", "planar-doubled", "planar-pushed", "xray_cube-pushed"])
    def test_mutants_fail_as_sampled(self, benchmark_chains, monkeypatch, name, mutate):
        payload, seed = benchmark_chains[name, 1]
        chain = mutate(dc.chain_from_spec(payload["chain"]))
        res = verify_chain(chain, seed=seed)
        ref = _all_sampled(chain, seed, monkeypatch)
        assert not ref.ok and ref.witnesses and ref.worst_violation > 0.0
        assert _same_verdict(res, ref) and res.method == "sampled"

    def test_link_in_two_pieces_but_neither_is_sampled(self, monkeypatch):
        # [0.5, 1.5] x [0, 1] lies in [0, 1]^2 union [1, 2] x [0, 1], in neither alone
        pieces = [w.box([0, 0], [1, 1]), w.box([1, 0], [2, 1]), w.box([1.5, 0], [2.5, 1])]
        chain = DecompositionChain(pieces, np.array([[1.0, 0.0], [1.0, 0.0]]), 1, E2, "test",
                                   target=w.box([0, 0], [2.5, 1]))
        assert dc._absorbed(chain, 1, 1e-9) and not dc._absorbed(chain, 2, 1e-9)
        res = verify_chain(chain, samples_per_piece=2000, seed=0)
        assert res.ok and res.method == "sampled" and res.n_sampled == 2000
        assert _same_verdict(res, _all_sampled(chain, 0, monkeypatch, samples_per_piece=2000))

    def test_each_multiple_of_the_shift_is_tested(self, monkeypatch):
        # at r = 2, J - h lies in K and J - 2h does not
        chain = DecompositionChain([w.box([0.5, 0], [2, 1]), w.box([2, 0], [3, 1])],
                                   np.array([[1.0, 0.0]]), 2, E2, "test")
        res = verify_chain(chain, samples_per_piece=2000, seed=0)
        assert not res.ok and res.method == "sampled" and res.worst_violation > 0.4
        assert _same_verdict(res, _all_sampled(chain, 0, monkeypatch, samples_per_piece=2000))

    def test_planar_keeps_a_sampled_link(self, bench):
        # verify-chain's benchmark check needs n_sampled > 0: an r = 2 planar
        # chain keeps a link across its two slab families
        for seed in range(1, 41):
            spec = bench.random_polygon(np.random.default_rng([seed, 2]), normalized=True)
            chain = w.planar_two_direction_chain(w.domain_from_spec(spec), r=2)
            res = verify_chain(chain, samples_per_piece=4096, seed=seed)
            assert res.ok and res.method == "sampled" and res.n_sampled > 0, seed

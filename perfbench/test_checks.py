"""Tests of the benchmark's checkers: each accepts a right output and rejects
a slightly wrong one.

    python3 -m pytest -q perfbench/test_checks.py
"""
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks as C  # noqa: E402

SQUARE = {"type": "polytope", "A": [[1, 0], [0, 1], [-1, 0], [0, -1]], "b": [1, 1, 0, 0]}
AXES = [[1.0, 0.0], [0.0, 1.0]]
E3 = [[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]]
PAIR_80 = [[1.0, 0.0], [math.cos(math.radians(80.0)), math.sin(math.radians(80.0))]]


def box(lo, hi):
    d = len(lo)
    return {"type": "polytope", "A": np.vstack([np.eye(d), -np.eye(d)]).tolist(),
            "b": list(hi) + [-v for v in lo]}


# -- membership and sampling ---------------------------------------------------

@pytest.mark.parametrize("spec, inside, outside", [
    (SQUARE, [0.5, 0.5], [1.0 + 1e-6, 0.5]),
    ({"type": "ball", "center": [1, 0], "radius": 2}, [2.9, 0.0], [3.0 + 1e-6, 0.0]),
    ({"type": "cone_body", "xi": [0, 1], "eps": 0.1}, [0.3, 0.9], [0.0, 1.0 + 1e-6]),
    ({"type": "union", "parts": [SQUARE, box([1, 0], [2, 1])]}, [1.5, 0.5], [2.5, 0.5]),
    ({"type": "intersection", "parts": [SQUARE, {"type": "ball", "center": [0, 0], "radius": 1}]},
     [0.7, 0.7], [0.8, 0.8]),
    ({"type": "affine_image", "base": SQUARE, "matrix": [[2, 0], [0, 1]], "shift": [1, 0]},
     [2.9, 0.5], [0.9, 0.5]),
])
def test_membership(spec, inside, outside):
    region = C.compile_domain(spec)
    got = region.contains(np.array([inside, outside], dtype=float))
    assert got.tolist() == [True, False]
    lo, hi = region.bbox
    assert np.all(lo <= inside) and np.all(inside <= hi)


def test_cone_membership_matches_its_definition():
    region = C.compile_domain({"type": "cone_body", "xi": [0, 0, 1], "eps": 0.2})
    pts = np.random.default_rng(0).uniform(-1.5, 1.5, (4000, 3))
    proj, nrm = pts[:, 2], np.linalg.norm(pts, axis=1)
    want = (0.8 * nrm <= proj) & (proj <= 1.0)
    assert want.any() and np.array_equal(region.contains(pts), want)
    assert np.all(pts[want] >= region.bbox[0]) and np.all(pts[want] <= region.bbox[1])


def test_sampler_stays_inside_and_plan_weighs_the_area():
    disk = C.compile_domain({"type": "ball", "center": [0, 0], "radius": 1})
    pts = C.sample_in(disk, 500, np.random.default_rng(1))
    assert len(pts) == 500 and np.all(np.linalg.norm(pts, axis=1) <= 1.0)
    pts, w = C.sample_plan(disk, 4096, seed=3)
    assert len(pts) == 4096 and abs(w.sum() - math.pi) < 0.05
    assert np.array_equal(pts, C.sample_plan(disk, 4096, seed=3)[0])


def test_empty_polytope_has_no_box_and_no_samples():
    empty = C.compile_domain({"type": "polytope", "A": [[1, 0], [-1, 0], [0, 1], [0, -1]],
                              "b": [0, -1, 1, 1]})
    assert empty.bbox is None
    assert len(C.sample_in(empty, 10, np.random.default_rng(0))) == 0


def test_plan_is_the_programs_plan():
    src = HERE.parent / "src"
    if not (src / "whitneylab").is_dir():
        pytest.skip("whitneylab sources not present")
    sys.path.insert(0, str(src))
    import whitneylab as w
    spec = {"type": "polytope", "A": [[0.6, 0.8], [-1, 0], [0, -1], [0.8, -0.6]],
            "b": [1.0, 0.2, 0.3, 0.9]}
    pts, wts = C.sample_plan(C.compile_domain(spec), 2048, seed=5)
    plan = w.sample_plan(w.domain_from_spec(spec), n_points=2048, seed=5)
    assert np.max(np.abs(pts - plan.points)) < 1e-12
    assert np.allclose(wts, plan.weights, rtol=1e-12)


# -- flat spaces and fits ----------------------------------------------------------

def grid_points(n=41):
    g = np.linspace(0.0, 1.0, n)
    return np.column_stack([a.ravel() for a in np.meshgrid(g, g)])


def test_flat_bases():
    pts = grid_points(5)
    assert C.flat_basis(AXES, 2)(pts).shape == (25, 4)
    assert C.flat_basis(E3, 2)(pts).shape == (25, 3)
    assert C.flat_basis(E3, 1)(pts).shape == (25, 1)
    with pytest.raises(ValueError):
        C.flat_basis(AXES, 3)


def test_minimax_of_x_squared_is_one_eighth():
    pts = grid_points()
    err = C.fit_minimax(C.flat_basis(AXES, 2)(pts), pts[:, 0] ** 2)
    assert err == pytest.approx(0.125, rel=1e-9)


def test_l1_fit_matches_the_primal_program():
    from scipy.optimize import linprog
    rng = np.random.default_rng(2)
    pts = rng.uniform(0, 1, (300, 2))
    f = np.sin(3 * pts[:, 0]) + pts[:, 1] ** 3
    w = rng.uniform(0.5, 1.5, 300)
    Phi = C.flat_basis(E3, 2)(pts)
    n, k = Phi.shape
    res = linprog(np.concatenate([np.zeros(k), w]),
                  A_ub=np.block([[Phi, -np.eye(n)], [-Phi, -np.eye(n)]]),
                  b_ub=np.concatenate([f, -f]), bounds=[(None, None)] * k + [(0, None)] * n,
                  method="highs")
    assert C.fit_l1(Phi, f, w) == pytest.approx(res.fun, rel=1e-9)


def test_l2_fit_of_x_squared():
    # midpoint rule on [0, 1]^2; the best fit is x - 1/6, with L2 error 1/sqrt(180)
    g = (np.arange(400) + 0.5) / 400
    pts = np.column_stack([a.ravel() for a in np.meshgrid(g, g)])
    w = np.full(len(pts), 1.0 / len(pts))
    err = C.fit_l2(C.flat_basis(AXES, 2)(pts), pts[:, 0] ** 2, w)
    assert err == pytest.approx(1.0 / math.sqrt(180.0), rel=1e-4)


@pytest.fixture(scope="module")
def approx_case():
    region = C.compile_domain(SQUARE)
    pts, w = C.sample_plan(region, 1024, seed=0)
    f = C.random_polynomial(4, 7, 2)
    return region, pts, w, f


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_approx_check_rejects_a_fit_error_raised_by_one_percent(approx_case, p):
    region, pts, w, f = approx_case
    err = C.best_fit(C.flat_basis(E3, 2)(pts), f(pts), w, p)
    good = {"error": err, "status": "optimal"}
    assert C.check_approx(region, pts, w, f, E3, 2, p, good) == []
    assert C.check_approx(region, pts, w, f, E3, 2, p, {**good, "error": 1.01 * err})
    assert C.check_approx(region, pts, w, f, E3, 2, p, {**good, "error": err / 1.01})


def test_approx_check_at_half(approx_case):
    region, pts, w, f = approx_case
    norm = C.lp_norm(f(pts), w, 0.5)
    good = {"error": 0.3 * norm, "status": "local_optimum"}
    assert C.check_approx(region, pts, w, f, E3, 2, 0.5, good) == []
    assert C.check_approx(region, pts, w, f, E3, 2, 0.5, {**good, "error": 1.01 * norm})
    assert C.check_approx(region, pts, w, f, E3, 2, 0.5, {**good, "status": "optimal"})


# -- modulus and ratio witnesses ------------------------------------------------

def test_grid_modulus_of_x_squared():
    region = C.compile_domain(SQUARE)
    pts = grid_points()
    w = np.full(len(pts), 1.0 / len(pts))
    f = C.Polynomial([[2, 0]], [1.0])
    t = C.diameter(region)
    value, fmax = C.grid_modulus(f, region, pts, w, [[1.0, 0.0]], 2, t, math.inf)
    # Delta^2_h x^2 = 2 h^2; the stencil x, x+h, x+2h fits iff h <= 1/2 from x = 0
    us = t * np.arange(1, 65) / 64
    assert value == pytest.approx(2.0 * us[us <= 0.5].max() ** 2, rel=1e-12)
    assert fmax == pytest.approx(1.0)


@pytest.fixture(scope="module")
def ratio_case():
    rp = C.RatioPlan(SQUARE, AXES, 512, seed=0)
    spec = {"kind": "random_poly", "degree": 5, "seed": 3}
    f = C.random_polynomial(5, 3, 2)
    err = C.best_fit(C.flat_basis(AXES, 2)(rp.pts), f(rp.pts), rp.w, 1.0)
    grid, _ = C.grid_modulus(f, rp.region, rp.pts, rp.w, AXES, 2, rp.t, 1.0)
    return rp, spec, err / grid


def test_ratio_check_accepts_the_witness(ratio_case):
    rp, spec, ratio = ratio_case
    payload = {"lower_bound": ratio, "n_defined": 4,
               "witness": {"function": spec, "ratio": ratio}}
    assert C.check_whitney_estimate(rp, 2, 1.0, payload) == []


@pytest.mark.parametrize("factor", [1.01, 1 / 1.01])
def test_ratio_check_rejects_a_ratio_off_by_one_percent(ratio_case, factor):
    rp, spec, ratio = ratio_case
    bad = factor * ratio
    payload = {"lower_bound": bad, "n_defined": 4, "witness": {"function": spec, "ratio": bad}}
    assert C.check_whitney_estimate(rp, 2, 1.0, payload)


def test_ratio_check_rejects_a_nonpositive_bound(ratio_case):
    rp, spec, _ = ratio_case
    assert C.check_ratio(rp, 2, 1.0, 0.0, spec)
    assert C.check_ratio(rp, 2, 1.0, math.inf, spec)


# -- counterexample ---------------------------------------------------------------

def test_chord_log_ratio_value():
    delta = 1.0 - math.sin(math.radians(80.0))
    assert C.chord_log_ratio(delta, 0.01) == pytest.approx(2.2431, abs=1e-4)


def test_chord_log_ratio_against_bisected_chords():
    """Largest ratio of x.xi between chord ends, over chords of the planar
    cone along the 80 degree direction, found by bisection."""
    eps = 0.01
    eta = np.array(PAIR_80[1])
    cone = C.ConeBody([0.0, 1.0], eps)
    best = 0.0
    for a in np.linspace(-0.14, 0.14, 281):
        base = np.array([a, 1.0])
        if not cone.contains(base[None, :], 0.0)[0]:
            continue
        ends = []
        for sign in (1.0, -1.0):
            lo, hi = 0.0, 50.0
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                pt = base + sign * mid * eta
                inside = (np.linalg.norm(pt) * (1 - eps) <= pt[1])
                lo, hi = (mid, hi) if inside else (lo, mid)
            ends.append((base + sign * lo * eta)[1])
        best = max(best, max(ends) / min(ends))
    delta = 1.0 - eta[1]
    assert math.log(best) == pytest.approx(C.chord_log_ratio(delta, eps), rel=1e-4)


def certificate_payload(d, r, eps, dirs):
    xi = np.eye(d)[-1]
    delta = 1.0 - float(np.max(np.abs(np.asarray(dirs) @ xi)))
    cap = 2.0 ** (r - 1) * C.chord_log_ratio(delta, eps)
    rows = []
    for n in (1, 4, 16, 64, 256):
        floor = C.counterexample_floor(n, d, r)
        rows.append({"n": n, "modulus": min(1.0, cap) if n == 1 else 0.9993 * cap,
                     "floor": floor, "numeric_er": floor + 1.0})
    return {"margin_delta": delta, "modulus_bounded": True, "rows": rows}


def check_cert(payload, d=2, r=1, eps=0.01, dirs=PAIR_80):
    return C.check_counterexample(d, r, eps, [1, 4, 16, 64, 256], dirs, np.eye(d)[-1], payload)


def test_counterexample_check_accepts_a_saturated_column():
    assert check_cert(certificate_payload(2, 1, 0.01, PAIR_80)) == []
    assert check_cert(certificate_payload(2, 2, 0.01, PAIR_80), r=2) == []


def test_counterexample_check_rejects_a_modulus_column_scaled_by_1_01():
    payload = certificate_payload(2, 1, 0.01, PAIR_80)
    for row in payload["rows"]:
        row["modulus"] *= 1.01
    assert check_cert(payload)


@pytest.mark.parametrize("field, change", [
    ("floor", lambda row: row["floor"] + 1e-6),
    ("numeric_er", lambda row: row["floor"] - 1e-3),
])
def test_counterexample_check_rejects_a_wrong_row(field, change):
    payload = certificate_payload(2, 1, 0.01, PAIR_80)
    payload["rows"][2][field] = change(payload["rows"][2])
    assert check_cert(payload)


def test_counterexample_check_rejects_unsettled_rows():
    payload = certificate_payload(2, 1, 0.01, PAIR_80)
    payload["rows"][4]["modulus"] *= 1 - 1e-6
    assert check_cert(payload)


# -- chains -------------------------------------------------------------------------

def slab_chain(shift=(0.25, 0.0), last=((1.25, 0.0), (1.5, 1.0)), target_hi=1.5):
    pieces = [box([0, 0], [1, 1]), box([1.0, 0], [1.25, 1]), box(*last)]
    chain = {"pieces": pieces, "shifts": [list(shift), list(shift)], "r": 2,
             "dirs": [[1.0, 0.0]], "provenance": "test", "target": box([0, 0], [target_hi, 1])}
    return chain, {"n_pieces": 3, "verified": True, "worst_violation": 0.0, "chain": chain}


def test_chain_check_accepts_a_valid_chain():
    chain, payload = slab_chain()
    assert C.check_chain(chain, payload, np.random.default_rng(0)) == []


def test_chain_check_rejects_a_shift_rotated_by_one_degree():
    a = math.radians(1.0)
    chain, payload = slab_chain(shift=(0.25 * math.cos(a), 0.25 * math.sin(a)))
    problems = C.check_chain(chain, payload, np.random.default_rng(0))
    assert any("listed direction" in p for p in problems)


def test_chain_check_rejects_a_piece_that_does_not_shift_back():
    chain, payload = slab_chain(last=((1.3, 0.0), (1.6, 1.0)), target_hi=1.6)
    problems = C.check_chain(chain, payload, np.random.default_rng(0))
    assert any("leave the earlier pieces" in p for p in problems)


def test_chain_check_rejects_a_gap_in_coverage():
    chain, payload = slab_chain(target_hi=1.6)
    problems = C.check_chain(chain, payload, np.random.default_rng(0))
    assert any("coverage" in p for p in problems)


def test_chain_bound_closed_form_matches_the_recursion():
    chain, _ = slab_chain()
    for p in (0.5, 1.0, math.inf):
        theta = min(p, 1.0)
        wt = 1.5 ** theta
        for _ in range(2):
            wt = 1.0 + 4.0 * wt
        assert C.chain_bound_closed_form(2, 2, 1.5, p) == pytest.approx(wt ** (1 / theta),
                                                                         rel=1e-14)
    value = C.chain_bound_closed_form(2, 2, 1.0, 1.0)
    assert C.check_chain_bound(chain, 1.0, 1.0, {"value": value}) == []
    assert C.check_chain_bound(chain, 1.0, 1.0, {"value": value * (1 + 1e-10)})


def test_verify_chain_check():
    assert C.check_verify_chain({"ok": True, "worst_violation": 0.0, "n_sampled": 10}) == []
    assert C.check_verify_chain({"ok": False, "worst_violation": 0.1, "n_sampled": 10})

"""The benchmark's workloads: inputs made from the seed, the experiments
that run on them, and the check of each experiment's output.

Every experiment is one ``whitneylab.cli.run(argv)`` call that writes its
result to a JSON file with ``--out``. The program's ``--seed`` is the
benchmark's seed, except for the lip2 chain (see ``chains``).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull

import checks

AXES = [[1.0, 0.0], [0.0, 1.0]]
E3 = [[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]]
# the 80 degree pair keeps the margin delta = 1 - sin 80deg above eps = 0.01
PAIR_80 = [[1.0, 0.0], [math.cos(math.radians(80.0)), math.sin(math.radians(80.0))]]
CUBE_DIAGONALS = (np.array([[1, 1, 1], [1, 1, -1], [1, -1, 1], [1, -1, -1]])
                  / math.sqrt(3.0)).tolist()
LIP2_SEED = 0
APPROX_INPUT_SEED = 0


@dataclass
class Experiment:
    name: str
    argv: list
    out: Path                          # the JSON file the experiment writes
    check: Callable[[dict], list]      # output payload -> problems


def random_polygon(rng, normalized):
    """Hull of 7 points at jittered equal angles and radii in [1.3, 1.9].
    Normalised, it has the unit disk as its largest inscribed disk."""
    n = 7
    ang = np.sort(2.0 * math.pi * np.arange(n) / n + rng.uniform(-0.3, 0.3, n))
    rad = rng.uniform(1.3, 1.9, n)
    hull = ConvexHull(np.column_stack([rad * np.cos(ang), rad * np.sin(ang)]))
    A = hull.equations[:, :2]
    b = -hull.equations[:, 2]
    if normalized:
        # Chebyshev centre c and radius rho: max rho s.t. A c + rho |a| <= b
        res = linprog([0.0, 0.0, -1.0], A_ub=np.column_stack([A, np.linalg.norm(A, axis=1)]),
                      b_ub=b, bounds=[(None, None), (None, None), (0, None)], method="highs")
        c, rho = res.x[:2], res.x[2] * (1.0 - 1e-9)
        b = (b - A @ c) / rho
    return {"type": "polytope", "A": A.tolist(), "b": b.tolist()}


def box(lo, hi):
    d = len(lo)
    eye = np.eye(d)
    return {"type": "polytope", "A": np.vstack([eye, -eye]).tolist(),
            "b": list(map(float, hi)) + [-float(v) for v in lo]}


def stadium():
    """Convex hull of the unit disks at (0, 0) and (1, 0)."""
    return {"type": "union", "parts": [
        {"type": "ball", "center": [0.0, 0.0], "radius": 1.0},
        {"type": "ball", "center": [1.0, 0.0], "radius": 1.0},
        box([0.0, -1.0], [1.0, 1.0])]}


def _write(work, name, obj):
    path = work / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def _read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def estimate(work, seed):
    """whitney-estimate on the unit square with the axes (r=2, p=inf and
    p=1), and report on a random polygon with three directions at each of
    r = 1, 2 and p = 1, inf."""
    rng = np.random.default_rng([seed, 1])
    square = box([0.0, 0.0], [1.0, 1.0])
    polygon = random_polygon(rng, normalized=False)
    f_sq, f_axes = _write(work, "square.json", square), _write(work, "axes.json", {"dirs": AXES})
    f_poly, f_e3 = _write(work, "polygon.json", polygon), _write(work, "e3.json", {"dirs": E3})
    plans = {}

    def plan(key, dom, dirs, density):
        # built on first use, so the checks pay for it, not the set-up
        if key not in plans:
            plans[key] = checks.RatioPlan(dom, dirs, density, seed)
        return plans[key]

    exps = []
    for p in ("inf", "1"):
        out = work / f"estimate_p{p}.json"
        exps.append(Experiment(
            f"whitney-estimate p={p}",
            ["whitney-estimate", "--domain", f_sq, "--dirs", f_axes, "--order", "2",
             "--p", p, "--budget", "4", "--density", "4096", "--seed", str(seed),
             "--out", str(out)],
            out,
            lambda pay, p=p: checks.check_whitney_estimate(
                plan("square", square, AXES, 4096), 2, checks.parse_p(p), pay)))
    # one report per (r, p), so that no single experiment sets exp_p50_s
    for r in ("1", "2"):
        for p in ("1", "inf"):
            out = work / f"report_r{r}_p{p}.json"
            exps.append(Experiment(
                f"report r={r} p={p}",
                ["report", "--domain", f_poly, "--dirs", f_e3, "--r-list", r, "--p-list", p,
                 "--budget", "2", "--density", "2048", "--seed", str(seed),
                 "--format", "json", "--out", str(out)],
                out,
                lambda pay, r=r, p=p: checks.check_report(
                    plan("polygon", polygon, E3, 2048), [int(r)], [p], pay)))
    return exps


def chains(work, seed):
    """decompose (build, sampled verification, coverage) for planar and star
    chains on a normalised random polygon, lip2 on the stadium, and xray on
    the unit disk and on the cube with its four diagonals; then verify-chain
    and chain-bound on the planar chain file.

    The lip2 chain is built with a fixed program seed: its piece count moves
    between about 360 and 670 with that seed, which would swamp the rest of
    the workload's time.
    """
    rng = np.random.default_rng([seed, 2])
    check_rng = np.random.default_rng([seed, 3])
    f_poly = _write(work, "npolygon.json", random_polygon(rng, normalized=True))
    f_axes = _write(work, "axes.json", {"dirs": AXES})
    f_stadium = _write(work, "stadium.json", stadium())
    f_disk = _write(work, "disk.json", {"type": "ball", "center": [0.0, 0.0], "radius": 1.0})
    f_cube = _write(work, "cube.json", box([-1.0] * 3, [1.0] * 3))
    f_diag = _write(work, "diagonals.json", {"dirs": CUBE_DIAGONALS})
    s = str(seed)

    def decompose(name, dom, method, order, extra=(), listed=None, cli_seed=s):
        out = work / f"{name}.json"
        argv = ["decompose", "--domain", dom, "--method", method, "--order", str(order),
                *extra, "--seed", cli_seed, "--out", str(out)]
        return Experiment(f"decompose {name}", argv, out,
                          lambda pay: checks.check_chain(pay["chain"], pay, check_rng,
                                                         listed_dirs=listed))

    planar = work / "planar.json"
    exps = [decompose("planar", f_poly, "planar", 2)]
    exps.append(Experiment(
        "verify-chain planar",
        ["verify-chain", "--chain", str(planar), "--seed", s, "--out", str(work / "verify.json")],
        work / "verify.json", checks.check_verify_chain))
    exps.append(Experiment(
        "chain-bound planar",
        ["chain-bound", "--chain", str(planar), "--skip-verify", "--w0", "1", "--p", "1",
         "--out", str(work / "bound.json")],
        work / "bound.json",
        lambda pay: checks.check_chain_bound(_read_json(planar)["chain"], 1.0, 1.0, pay)))
    exps.append(decompose("star", f_poly, "star", 1))
    exps.append(decompose("lip2", f_stadium, "lip2", 1,
                          ["--dirs", f_axes, "--delta", "1.0", "--eps", "0.25"],
                          listed=AXES, cli_seed=str(LIP2_SEED)))
    exps.append(decompose("xray_disk", f_disk, "xray", 1, ["--dirs", f_axes], listed=AXES))
    exps.append(decompose("xray_cube", f_cube, "xray", 1, ["--dirs", f_diag],
                          listed=CUBE_DIAGONALS))
    return exps


def certificate(work, seed):
    """counterexample at (d, r, eps) = (2, 1, .01), (2, 2, .01), (3, 1, .05),
    and approx of a random quartic on a random polygon with three
    directions at p = 0.5, 1, 2, inf. The seed drives the plans and the
    restarts of the p<1 solver."""
    # fixed, not from the seed: the p<1 solver's iterations move 2.5x between
    # random quartics, and by about 5% with the plan and restart streams
    rng = np.random.default_rng([APPROX_INPUT_SEED, 4])
    polygon = random_polygon(rng, normalized=False)
    exps_f = checks.graded_lex_exponents(2, 4)
    poly = {"kind": "polynomial", "exponents": exps_f.tolist(),
            "coeffs": rng.standard_normal(len(exps_f)).tolist()}
    dirs3 = np.eye(3)
    dirs3[-1] = 1.0 / math.sqrt(3.0)
    dirs_of = {2: PAIR_80, 3: dirs3.tolist()}
    files = {d: _write(work, f"dirs{d}.json", {"dirs": dirs}) for d, dirs in dirs_of.items()}
    f_poly, f_e3 = _write(work, "polygon.json", polygon), _write(work, "e3.json", {"dirs": E3})
    f_fn = _write(work, "quartic.json", poly)
    n_list = [1, 4, 16, 64, 256]
    exps = []
    for d, r, eps in ((2, 1, 0.01), (2, 2, 0.01), (3, 1, 0.05)):
        out = work / f"cert_{d}{r}.json"
        exps.append(Experiment(
            f"counterexample d={d} r={r}",
            ["counterexample", "--dim", str(d), "--order", str(r), "--eps", str(eps),
             "--n", ",".join(map(str, n_list)), "--density", "8192", "--dirs", files[d],
             "--seed", str(seed), "--format", "json", "--out", str(out)],
            out,
            lambda pay, d=d, r=r, eps=eps: checks.check_counterexample(
                d, r, eps, n_list, dirs_of[d], np.eye(d)[-1], pay)))
    density = 4096
    cache = {}

    def plan():
        if not cache:
            region = checks.compile_domain(polygon)
            cache["plan"] = (region, *checks.sample_plan(region, density, seed))
        return cache["plan"]

    f = checks.Polynomial(poly["exponents"], poly["coeffs"])
    for p in ("0.5", "1", "2", "inf"):
        out = work / f"approx_p{p}.json"
        exps.append(Experiment(
            f"approx p={p}",
            ["approx", "--function", f_fn, "--domain", f_poly, "--dirs", f_e3, "--order", "2",
             "--p", p, "--density", str(density), "--seed", str(seed), "--out", str(out)],
            out,
            lambda pay, p=p: checks.check_approx(*plan(), f, E3, 2, checks.parse_p(p), pay)))
    return exps


BUILDERS = {"estimate": estimate, "chains": chains, "certificate": certificate}


def build(name, work, seed):
    """Write the workload's inputs under ``work``; return its experiments."""
    return BUILDERS[name](Path(work), seed)

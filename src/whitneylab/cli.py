"""Command-line entry point: one experiment per invocation, seeded and
reproducible, with machine-readable JSON or CSV output.

Exit codes: 0 success, 1 malformed config, 2 precondition failure,
3 numerical non-convergence.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys

import numpy as np

from . import __version__
from .errors import ConvergenceError, PreconditionError


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _parse_p(text):
    if text.strip().lower() in ("inf", "infinity", "oo"):
        return math.inf
    try:
        p = float(text)
    except ValueError as exc:
        raise ConfigError(f"invalid p value {text!r}") from exc
    if p <= 0:
        raise ConfigError("p must be positive")
    return p


# argparse ``type=`` functions: an ArgumentTypeError names the option (exit 1)

def _parse_ints(text):
    try:
        return [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def _positive_int(text):
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return n


def _parse_p_list(text):
    """Comma-separated p values, each with its text as the report prints it."""
    try:
        return [(s, _parse_p(s)) for s in text.split(",") if s.strip()]
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_vector(text):
    try:
        v = np.asarray(json.loads(text), dtype=float)
    except (ValueError, TypeError):
        v = None
    if v is None or v.ndim != 1 or not np.all(np.isfinite(v)) or not v.any():
        raise argparse.ArgumentTypeError(
            f"expected a JSON list of finite numbers, not all zero, got {text!r}")
    return v.tolist()


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}:{exc.lineno}:{exc.colno}: malformed JSON ({exc.msg})") from exc


def _load_spec(path, build, dim=None):
    """``build`` applied to the JSON file at ``path``; a spec that does not parse
    (missing key, wrong type or shape) or has a dimension other than ``dim`` is a
    configuration error."""
    spec = _load_json(path)
    try:
        obj = build(spec)
    except PreconditionError:  # a ValueError, but it keeps exit code 2
        raise
    except KeyError as exc:
        raise ConfigError(f"{path}: missing key {exc}") from exc
    except (TypeError, ValueError, IndexError, AttributeError, OverflowError) as exc:
        raise ConfigError(f"{path}: malformed spec ({exc})") from exc
    if dim is not None and obj.dim != dim:
        raise ConfigError(f"{path}: dimension {obj.dim} differs from the domain's {dim}")
    return obj


def _load_chain(path):
    """A chain spec file, or the file ``decompose --out`` writes (chain under "chain")."""
    from .decompose import chain_from_spec

    def build(spec):
        chain = spec if "pieces" in spec else spec.get("chain")
        if not isinstance(chain, dict):
            raise ConfigError(f"{path}: no chain (no 'pieces' and no 'chain' entry)")
        return chain_from_spec(chain)
    return _load_spec(path, build)


def _fmt(x):
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _config_hash(args_dict):
    blob = json.dumps(args_dict, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _meta(args_dict, seed):
    return {"tool_version": __version__, "seed": seed,
            "config_hash": _config_hash(args_dict)}


def _emit(payload, out, fmt, csv_rows=None, csv_header=None):
    """Write JSON (default) or CSV; CSV uses 17 significant digits and LF."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(csv_header)
        for row in csv_rows:
            writer.writerow([_fmt(v) for v in row])
        text = buf.getvalue()
    else:
        text = json.dumps(payload, sort_keys=True, indent=2, default=str) + "\n"
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _build_parser():
    top = _Parser(prog="whitneylab", description=__doc__)
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--density", type=_positive_int, default=4096)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=["json", "csv"], default="json")

    p = sub.add_parser("basis", help="build the directionally-flat polynomial basis")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--dirs", required=True)
    common(p)

    p = sub.add_parser("modulus", help="sampled directional modulus of smoothness")
    p.add_argument("--function", required=True)
    p.add_argument("--domain", required=True)
    p.add_argument("--dirs", required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--p", default="inf")
    common(p)

    p = sub.add_parser("approx", help="best L^p approximation on a sampled plan")
    p.add_argument("--function", required=True)
    p.add_argument("--domain", required=True)
    p.add_argument("--dirs", required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--p", default="inf")
    common(p)

    p = sub.add_parser("whitney-estimate", help="empirical lower bound on the ratio constant")
    p.add_argument("--domain", required=True)
    p.add_argument("--dirs", required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--p", default="inf")
    p.add_argument("--family", default="random_poly",
                   choices=["random_poly", "perturbed_basis"])
    p.add_argument("--budget", type=int, default=64)
    common(p)

    p = sub.add_parser("chain-bound", help="certified bound from a verified chain")
    p.add_argument("--chain", required=True)
    p.add_argument("--w0", type=float, required=True)
    p.add_argument("--p", default="inf")
    p.add_argument("--skip-verify", action="store_true",
                   help="trust the chain file without re-verifying")
    common(p)

    p = sub.add_parser("decompose", help="construct a decomposition chain")
    p.add_argument("--domain", required=True)
    p.add_argument("--method", required=True,
                   choices=["star", "planar", "lip2", "xray"])
    p.add_argument("--dirs", default=None)
    p.add_argument("--order", type=int, default=1)
    p.add_argument("--n0", type=int, default=1)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--eps", type=float, default=0.125,
                   help="accepted for compatibility; has no effect")
    common(p)

    p = sub.add_parser("verify-chain", help="verify the shift condition by sampling")
    p.add_argument("--chain", required=True)
    common(p)

    p = sub.add_parser("counterexample", help="log-ridge divergence table on a cone body")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--n", required=True, type=_parse_ints, help="comma-separated n values")
    p.add_argument("--xi", default=None, type=_parse_vector,
                   help="JSON list of --dim numbers; default last axis")
    p.add_argument("--dirs", default=None,
                   help="direction-set JSON file; default margin-safe pair")
    common(p)
    p.set_defaults(format="csv")

    p = sub.add_parser("xray-check", help="verify illumination by +/- directions")
    p.add_argument("--domain", required=True)
    p.add_argument("--dirs", required=True)
    p.add_argument("--samples", type=int, default=256)
    common(p)

    p = sub.add_parser("report", help="lower/upper bound table over (r, p) grids")
    p.add_argument("--domain", required=True)
    p.add_argument("--dirs", required=True)
    p.add_argument("--r-list", default="1,2", type=_parse_ints)
    p.add_argument("--p-list", default="1,inf", type=_parse_p_list)
    p.add_argument("--budget", type=int, default=32)
    p.add_argument("--chain", default=None)
    p.add_argument("--w0", type=float, default=None)
    common(p)
    p.set_defaults(format="csv")

    return top


def run(argv):
    """Execute one subcommand; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
        return _dispatch(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        if getattr(exc, "witnesses", None):
            print(f"witnesses: {exc.witnesses[:5]}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"did not converge: {exc}", file=sys.stderr)
        return 3


def _dispatch(args):
    from . import geometry as geo
    from . import polyspace, modulus, approx, decompose, whitney

    a = vars(args).copy()
    cmd = a.pop("command")
    a.pop("out", None)     # output destination and rendering are not part of
    a.pop("format", None)  # the experiment configuration
    seed = a.get("seed", 0)
    meta = _meta(a, seed)

    def domain_and_dirs():
        dom = _load_spec(args.domain, geo.domain_from_spec)
        return dom, _load_spec(args.dirs, geo.direction_set_from_spec, dom.dim)

    def function(dim):
        return _load_spec(args.function, lambda s: modulus.function_from_spec(s, dim), dim)

    if cmd == "basis":
        dirs = _load_spec(args.dirs, geo.direction_set_from_spec, args.dim)
        basis = polyspace.build_basis(args.dim, args.order, dirs)
        payload = {"meta": meta, "n_basis": basis.n_basis, **basis.spec()}
        _emit(payload, args.out, args.format,
              csv_rows=[[args.dim, args.order, basis.n_basis]],
              csv_header=["d", "r", "n_basis"])
        return 0

    if cmd == "modulus":
        dom, dirs = domain_and_dirs()
        f = function(dom.dim)
        plan = geo.sample_plan(dom, n_points=args.density, seed=seed)
        t = args.t if args.t else geo.diameter(dom, plan).value
        res = modulus.set_modulus(f, dom, plan, dirs, args.order, t, _parse_p(args.p))
        payload = {"meta": meta, "value": res.value, "argmax_u": res.argmax_u,
                   "argmax_xi": res.argmax_xi.tolist(),
                   "n_valid_points": res.n_valid_points, "reliable": res.reliable}
        _emit(payload, args.out, args.format,
              csv_rows=[[res.value, res.argmax_u, res.n_valid_points]],
              csv_header=["value", "argmax_u", "n_valid_points"])
        return 0

    if cmd == "approx":
        dom, dirs = domain_and_dirs()
        f = function(dom.dim)
        plan = geo.sample_plan(dom, n_points=args.density, seed=seed)
        basis = polyspace.build_basis(dom.dim, args.order, dirs)
        res = approx.best_approx(f, dom, plan, basis, _parse_p(args.p), seed=seed)
        payload = {"meta": meta, **res.spec()}
        _emit(payload, args.out, args.format,
              csv_rows=[[res.error, res.status, res.iterations]],
              csv_header=["error", "status", "iterations"])
        return 0 if res.status != "max_iter" else 3

    if cmd == "whitney-estimate":
        dom, dirs = domain_and_dirs()
        plan = geo.sample_plan(dom, n_points=args.density, seed=seed)
        family = {"kind": args.family}
        est = whitney.empirical_whitney_constant(
            dom, plan, dirs, args.order, _parse_p(args.p), family,
            budget=args.budget, seed=seed)
        payload = {"meta": meta, **est.spec()}
        _emit(payload, args.out, args.format,
              csv_rows=[[est.lower_bound, est.n_defined]],
              csv_header=["lower_bound", "n_defined"])
        return 0

    if cmd == "chain-bound":
        chain = _load_chain(args.chain)
        verification = "skipped" if args.skip_verify else "sampled"
        if args.skip_verify:
            chain.verified = True
        else:
            res = decompose.verify_chain(chain, samples_per_piece=args.density,
                                         seed=seed, check_coverage=False)
            if not res.ok:
                raise PreconditionError("chain failed verification",
                                        witnesses=res.witnesses)
        bound = whitney.chain_upper_bound(chain, args.w0, _parse_p(args.p))
        payload = {"meta": meta, "value": bound.value, "log2_value": bound.log2_value,
                   "closed_form": bound.closed_form, "theta": bound.theta,
                   "n_links": bound.n_links, "w0": args.w0, "verification": verification}
        if args.out or args.format == "csv":
            _emit(payload, args.out, args.format,
                  csv_rows=[[bound.value, bound.closed_form, args.w0, verification]],
                  csv_header=["value", "closed_form", "w0", "verification"])
        else:
            if args.skip_verify:  # the bare value alone would read as verified
                print("verification: skipped", file=sys.stderr)
            print(_fmt(bound.value))
        return 0

    if cmd == "decompose":
        dom = _load_spec(args.domain, geo.domain_from_spec)
        dirs = _load_spec(args.dirs, geo.direction_set_from_spec, dom.dim) if args.dirs else None
        if args.method == "star":
            chain = decompose.star_shaped_decomposition(dom, args.order, seed=seed)
        elif args.method == "planar":
            chain, _ = decompose.planar_two_direction_chain(dom, r=args.order)
        elif args.method == "lip2":
            if dirs is None or args.delta is None:
                raise ConfigError("lip2 needs --dirs and --delta")
            chain = decompose.lip2_ball_chain(dom, dirs, args.delta, r=args.order, seed=seed)
        else:
            if dirs is None:
                raise ConfigError("xray needs --dirs")
            chain = decompose.xray_slab_decomposition(dom, dirs, n0=args.n0,
                                                      r=args.order, seed=seed)
        res = decompose.verify_chain(chain, seed=seed)
        payload = {"meta": meta, "n_pieces": chain.n_pieces,
                   "verified": res.ok, "worst_violation": res.worst_violation,
                   "coverage_miss_rate": res.coverage_miss_rate,
                   "chain": chain.spec()}
        _emit(payload, args.out, args.format,
              csv_rows=[[chain.n_pieces, res.ok, res.worst_violation]],
              csv_header=["n_pieces", "verified", "worst_violation"])
        return 0

    if cmd == "verify-chain":
        chain = _load_chain(args.chain)
        res = decompose.verify_chain(chain, samples_per_piece=args.density, seed=seed)
        payload = {"meta": meta, "ok": res.ok,
                   "worst_violation": res.worst_violation,
                   "witnesses": res.witnesses, "n_sampled": res.n_sampled,
                   "coverage_miss_rate": res.coverage_miss_rate}
        _emit(payload, args.out, args.format,
              csv_rows=[[res.ok, res.worst_violation, res.n_sampled]],
              csv_header=["ok", "worst_violation", "n_sampled"])
        return 0 if res.ok else 2

    if cmd == "counterexample":
        d = args.dim
        if d < 2:
            raise ConfigError(f"--dim must be at least 2, got {d}")
        xi = np.eye(d)[-1] if args.xi is None else np.asarray(args.xi)
        if xi.size != d:
            raise ConfigError(f"--xi has {xi.size} entries, --dim is {d}")
        if args.dirs:
            dirs = _load_spec(args.dirs, geo.direction_set_from_spec, d)
        else:
            dirs = _default_margin_dirs(d)
        cert = whitney.counterexample_certificate(
            d, xi, args.eps, dirs, args.order, args.n,
            density=args.density, seed=seed)
        payload = {"meta": meta, "margin_delta": cert.margin_delta,
                   "modulus_bounded": cert.modulus_bounded,
                   "rows": [dict(n=row.n, modulus=row.modulus, floor=row.floor,
                                 numeric_er=row.numeric_er) for row in cert.rows]}
        _emit(payload, args.out, args.format,
              csv_rows=[[row.n, row.modulus, row.floor, row.numeric_er]
                        for row in cert.rows],
              csv_header=["n", "modulus", "floor", "numeric_Er"])
        return 0

    if cmd == "xray-check":
        dom, dirs = domain_and_dirs()
        sample = geo.boundary_points(dom, n=args.samples, seed=seed)
        ok, wit = geo.xray_verifies(dom, dirs, sample)
        payload = {"meta": meta, "ok": ok,
                   "witnesses": [w.tolist() for w in wit[:16]]}
        _emit(payload, args.out, args.format,
              csv_rows=[[ok, len(wit)]], csv_header=["ok", "n_witnesses"])
        return 0 if ok else 2

    if cmd == "report":
        dom, dirs = domain_and_dirs()
        plan = geo.sample_plan(dom, n_points=args.density, seed=seed)
        dom_id = _config_hash({"domain": dom.spec()})
        e_id = _config_hash({"dirs": dirs.spec()})
        chain = None
        if args.chain:
            chain = _load_chain(args.chain)
            vres = decompose.verify_chain(chain, seed=seed, check_coverage=False)
            if not vres.ok:
                raise PreconditionError("chain failed verification")
        rows = []
        for r in args.r_list:
            for p_text, p in args.p_list:
                est = whitney.empirical_whitney_constant(
                    dom, plan, dirs, r, p, {"kind": "random_poly"},
                    budget=args.budget, seed=seed)
                upper = ""
                w0_note = ""
                if chain is not None and args.w0 is not None and chain.order == r:
                    bound = whitney.chain_upper_bound(chain, args.w0, p)
                    est.attach_upper_bound(bound.value)
                    upper = bound.value
                    w0_note = f"w0={_fmt(args.w0)}"
                rows.append([dom_id, e_id, r, p_text, est.lower_bound, upper,
                             w0_note, json.dumps(est.witness["function"],
                                                 sort_keys=True)])
        payload = {"meta": meta,
                   "rows": [dict(zip(["domain_id", "E_id", "r", "p",
                                      "lower_bound", "upper_bound",
                                      "w0_assumption", "witness_spec"], row))
                            for row in rows]}
        _emit(payload, args.out, args.format,
              csv_rows=rows,
              csv_header=["domain_id", "E_id", "r", "p", "lower_bound",
                          "upper_bound", "w0_assumption", "witness_spec"])
        return 0

    raise ConfigError(f"unknown command {cmd!r}")


def _default_margin_dirs(d):
    from .geometry import direction_set
    if d == 2:
        ang = math.radians(80.0)
        return direction_set([[1.0, 0.0], [math.cos(ang), math.sin(ang)]])
    dirs = np.eye(d)
    dirs[-1] = np.ones(d) / math.sqrt(d)
    return direction_set(dirs)


def main():
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

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

from . import __version__, approx, decompose, modulus, polyspace, whitney
from . import geometry as geo
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
    if not p > 0:
        raise ConfigError(f"p must be positive, got {text!r}")
    return p


# argparse ``type=`` functions: an ArgumentTypeError names the option (exit 1)

def _parse_ints(text):
    values = [_positive_int(s) for s in text.split(",") if s.strip()]
    if not values:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated positive integers, got {text!r}")
    return values


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
    def build(spec):
        chain = spec if "pieces" in spec else spec.get("chain")
        if not isinstance(chain, dict):
            raise ConfigError(f"{path}: no chain (no 'pieces' and no 'chain' entry)")
        return decompose.chain_from_spec(chain)
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
        text = json.dumps(payload, sort_keys=True, default=str) + "\n"
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _domain_dirs(args):
    dom = _load_spec(args.domain, geo.domain_from_spec)
    return dom, _load_spec(args.dirs, geo.direction_set_from_spec, dom.dim)


def _function(args, dim):
    return _load_spec(args.function, lambda s: modulus.function_from_spec(s, dim), dim)


def _plan(args, dom):
    return geo.sample_plan(dom, n_points=args.density, seed=args.seed)


def _verify(chain, seed, **kw):
    """Run ``verify_chain`` on ``chain`` and return its method; a failing
    chain, or one that misses its target, is a precondition failure."""
    res = decompose.verify_chain(chain, seed=seed, **kw)
    if not res.ok:
        raise PreconditionError("chain failed verification", witnesses=res.witnesses)
    if not chain.verified:
        raise PreconditionError(f"chain misses {res.coverage_miss_rate:.4g} of its target")
    return res.method


# One function per subcommand: each returns (exit code, payload fields, CSV
# header, CSV rows); ``run`` adds the meta block and writes the output.

def _cmd_basis(args):
    dirs = _load_spec(args.dirs, geo.direction_set_from_spec, args.dim)
    basis = polyspace.build_basis(args.dim, args.order, dirs)
    return (0, {"n_basis": basis.n_basis, **basis.spec()},
            ["d", "r", "n_basis"], [[args.dim, args.order, basis.n_basis]])


def _cmd_modulus(args):
    p = _parse_p(args.p)
    dom, dirs = _domain_dirs(args)
    f = _function(args, dom.dim)
    plan = _plan(args, dom)
    t = args.t if args.t is not None else geo.diameter(dom, plan).value
    res = modulus.set_modulus(f, dom, plan, dirs, args.order, t, p)
    return (0, {"value": res.value, "argmax_u": res.argmax_u,
                "argmax_xi": res.argmax_xi.tolist(),
                "n_valid_points": res.n_valid_points, "reliable": res.reliable},
            ["value", "argmax_u", "n_valid_points"],
            [[res.value, res.argmax_u, res.n_valid_points]])


def _cmd_approx(args):
    p = _parse_p(args.p)
    dom, dirs = _domain_dirs(args)
    f = _function(args, dom.dim)
    plan = _plan(args, dom)
    basis = polyspace.build_basis(dom.dim, args.order, dirs)
    res = approx.best_approx(f, dom, plan, basis, p)
    return (3 if res.status == "max_iter" else 0, res.spec(),
            ["error", "status", "iterations"], [[res.error, res.status, res.iterations]])


def _cmd_whitney_estimate(args):
    dom, dirs = _domain_dirs(args)
    est = whitney.empirical_whitney_constant(
        dom, _plan(args, dom), dirs, args.order, _parse_p(args.p), args.family,
        budget=args.budget, seed=args.seed)
    return (0, est.spec(), ["lower_bound", "n_defined"], [[est.lower_bound, est.n_defined]])


def _cmd_chain_bound(args):
    p = _parse_p(args.p)
    chain = _load_chain(args.chain)
    if args.skip_verify:
        chain.verified = True
        verification = "skipped"
    else:
        verification = _verify(chain, args.seed, samples_per_piece=args.density)
    bound = whitney.chain_upper_bound(chain, args.w0, p)
    if not args.out and args.format == "json":  # the bare value, and no payload
        if args.skip_verify:  # the bare value alone would read as verified
            print("verification: skipped", file=sys.stderr)
        print(_fmt(bound.value))
        return 0, None, None, None
    return (0, {"value": bound.value, "log2_value": bound.log2_value,
                "closed_form": bound.closed_form, "theta": bound.theta,
                "n_links": bound.n_links, "w0": args.w0, "verification": verification},
            ["value", "closed_form", "w0", "verification"],
            [[bound.value, bound.closed_form, args.w0, verification]])


def _cmd_decompose(args):
    dom = _load_spec(args.domain, geo.domain_from_spec)
    dirs = _load_spec(args.dirs, geo.direction_set_from_spec, dom.dim) if args.dirs else None
    seed = args.seed
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
    return (0, {"n_pieces": chain.n_pieces, "verified": chain.verified, "method": res.method,
                "worst_violation": res.worst_violation,
                "coverage_miss_rate": res.coverage_miss_rate, "chain": chain.spec()},
            ["n_pieces", "verified", "worst_violation"],
            [[chain.n_pieces, chain.verified, res.worst_violation]])


def _cmd_verify_chain(args):
    chain = _load_chain(args.chain)
    res = decompose.verify_chain(chain, samples_per_piece=args.density, seed=args.seed)
    return (0 if chain.verified else 2,
            {"ok": res.ok, "method": res.method, "worst_violation": res.worst_violation,
             "witnesses": res.witnesses, "n_sampled": res.n_sampled,
             "coverage_miss_rate": res.coverage_miss_rate},
            ["ok", "worst_violation", "n_sampled"],
            [[res.ok, res.worst_violation, res.n_sampled]])


def _cmd_counterexample(args):
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
        d, xi, args.eps, dirs, args.order, args.n, density=args.density, seed=args.seed)
    return (0, {"margin_delta": cert.margin_delta,
                "modulus_bounded": cert.modulus_bounded,
                "rows": [dict(n=row.n, modulus=row.modulus, floor=row.floor,
                              numeric_er=row.numeric_er) for row in cert.rows]},
            ["n", "modulus", "floor", "numeric_Er"],
            [[row.n, row.modulus, row.floor, row.numeric_er] for row in cert.rows])


def _default_margin_dirs(d):
    if d == 2:
        ang = math.radians(80.0)
        return geo.direction_set([[1.0, 0.0], [math.cos(ang), math.sin(ang)]])
    dirs = np.eye(d)
    dirs[-1] = np.ones(d) / math.sqrt(d)
    return geo.direction_set(dirs)


def _cmd_xray_check(args):
    dom, dirs = _domain_dirs(args)
    sample = geo.boundary_points(dom, n=args.samples, seed=args.seed)
    ok, wit = geo.xray_verifies(dom, dirs, sample)
    return (0 if ok else 2, {"ok": ok, "witnesses": [w.tolist() for w in wit[:16]]},
            ["ok", "n_witnesses"], [[ok, len(wit)]])


def _cmd_report(args):
    if (args.chain is None) != (args.w0 is None):
        raise ConfigError("--chain and --w0 must be given together")
    dom, dirs = _domain_dirs(args)
    chain = None
    if args.chain is not None:
        chain = _load_chain(args.chain)
        if chain.order not in args.r_list:  # its bound would fill no row
            raise ConfigError(f"--chain has order r={chain.order}, which --r-list "
                              f"{','.join(map(str, args.r_list))} does not contain")
        _verify(chain, args.seed)
    plan = _plan(args, dom)
    dom_id = _config_hash({"domain": dom.spec()})
    e_id = _config_hash({"dirs": dirs.spec()})
    rows = []
    for r in args.r_list:
        for p_text, p in args.p_list:
            est = whitney.empirical_whitney_constant(
                dom, plan, dirs, r, p, "random_poly",
                budget=args.budget, seed=args.seed)
            upper = w0_note = ""
            if chain is not None and chain.order == r:
                upper = whitney.chain_upper_bound(chain, args.w0, p).value
                est.attach_upper_bound(upper)
                w0_note = f"w0={_fmt(args.w0)}" + (" contradicted" if est.inconsistent else "")
            rows.append([dom_id, e_id, r, p_text, est.lower_bound, upper, w0_note,
                         json.dumps(est.witness["function"], sort_keys=True)])
    header = ["domain_id", "E_id", "r", "p", "lower_bound", "upper_bound",
              "w0_assumption", "witness_spec"]
    return 0, {"rows": [dict(zip(header, row)) for row in rows]}, header, rows


def _build_parser():
    top = _Parser(prog="whitneylab", description=__doc__)
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    def opt(flag, **kw):
        return flag, kw

    common = (opt("--seed", type=int, default=0),
              opt("--density", type=_positive_int, default=4096),
              opt("--out", default=None),
              opt("--format", choices=["json", "csv"], default="json"))

    def command(name, run, help, *options, fmt="json"):
        parser = sub.add_parser(name, help=help)
        for flag, kw in options + common:
            parser.add_argument(flag, **kw)
        parser.set_defaults(run=run, format=fmt)

    domain, dirs = opt("--domain", required=True), opt("--dirs", required=True)
    order, p = opt("--order", type=int, required=True), opt("--p", default="inf")
    function, chain = opt("--function", required=True), opt("--chain", required=True)
    dim = opt("--dim", type=int, required=True)

    command("basis", _cmd_basis, "build the directionally-flat polynomial basis",
            dim, order, dirs)
    command("modulus", _cmd_modulus, "sampled directional modulus of smoothness",
            function, domain, dirs, order, opt("--t", type=float, default=None), p)
    command("approx", _cmd_approx, "best L^p approximation on a sampled plan",
            function, domain, dirs, order, p)
    command("whitney-estimate", _cmd_whitney_estimate,
            "empirical lower bound on the ratio constant", domain, dirs, order, p,
            opt("--family", default="random_poly", choices=["random_poly", "perturbed_basis"]),
            opt("--budget", type=_positive_int, default=64))
    command("chain-bound", _cmd_chain_bound, "certified bound from a verified chain",
            chain, opt("--w0", type=float, required=True), p,
            opt("--skip-verify", action="store_true",
                help="trust the chain file without re-verifying"))
    command("decompose", _cmd_decompose, "construct a decomposition chain", domain,
            opt("--method", required=True, choices=["star", "planar", "lip2", "xray"]),
            opt("--dirs", default=None), opt("--order", type=int, default=1),
            opt("--n0", type=int, default=1), opt("--delta", type=float, default=None),
            opt("--eps", type=float, default=0.125,
                help="accepted for compatibility; has no effect"))
    command("verify-chain", _cmd_verify_chain, "verify the shift condition by sampling",
            chain)
    command("counterexample", _cmd_counterexample, "log-ridge divergence table on a cone body",
            dim, order, opt("--eps", type=float, required=True),
            opt("--n", required=True, type=_parse_ints, help="comma-separated n values"),
            opt("--xi", default=None, type=_parse_vector,
                help="JSON list of --dim numbers; default last axis"),
            opt("--dirs", default=None, help="direction-set JSON file; default margin-safe pair"),
            fmt="csv")
    command("xray-check", _cmd_xray_check, "verify illumination by +/- directions",
            domain, dirs, opt("--samples", type=_positive_int, default=256))
    command("report", _cmd_report, "lower/upper bound table over (r, p) grids", domain, dirs,
            opt("--r-list", default="1,2", type=_parse_ints),
            opt("--p-list", default="1,inf", type=_parse_p_list),
            opt("--budget", type=_positive_int, default=32),
            opt("--chain", default=None), opt("--w0", type=float, default=None), fmt="csv")
    return top


def run(argv):
    """Execute one subcommand; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
        # the output destination and rendering are not part of the experiment configuration
        config = {k: v for k, v in vars(args).items()
                  if k not in ("command", "run", "out", "format")}
        code, fields, header, rows = args.run(args)
        if fields is not None:
            _emit({"meta": _meta(config, args.seed), **fields}, args.out, args.format,
                  csv_rows=rows, csv_header=header)
        return code
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


def main():
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

"""Spans and counters around whitneylab's public functions, for traced runs.

``install`` replaces functions of the whitneylab modules with wrappers that
record a span (name, start, end, parent) per call, and counts at the same
boundary. It patches every module attribute that refers to the original, so
calls made through ``from .x import f`` are traced as well. Where a stage of
a layer has no public entry point (the solver branches of ``approx``), its
private helper is wrapped. A hook whose target is gone raises, so a traced
run fails rather than report the metric it feeds as 0.

``Domain.contains``, ``monomial_matrix`` and ``design_matrix`` are called
from everywhere at high rates, so they are timed probes rather than spans:
their calls, points and time are counted, but their time stays in the self
time of the span that called them. The self time of a span is its duration
minus the time covered by its child spans.
"""
from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

import numpy as np

clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, child time]
        self.stack = []
        self.depth = defaultdict(int)
        self.counts = defaultdict(float)

    def open(self, name):
        idx = len(self.spans)
        self.spans.append([name, clock(), None, self.stack[-1] if self.stack else -1, 0.0])
        self.stack.append(idx)
        self.depth[name] += 1
        return idx

    def close(self, idx):
        end = clock()
        span = self.spans[idx]
        span[2] = end
        self.stack.pop()
        self.depth[span[0]] -= 1
        if span[3] >= 0:
            self.spans[span[3]][4] += end - span[1]

    def inside(self, name):
        return self.depth[name] > 0

    def current(self):
        return self.spans[self.stack[-1]][0] if self.stack else None

    def totals(self):
        """Per span name: (calls, total time, self time)."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for name, start, end, _, child in self.spans:
            if end is None:
                continue
            agg = out[name]
            agg[0] += 1
            agg[1] += end - start
            agg[2] += end - start - child
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, _ in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")


def _span(tracer, name, fn, after=None, when=None):
    """Wrap fn in a span; ``after(result, args, kwargs)`` adds counts and
    ``when(args, kwargs)`` decides whether this call gets a span. A call
    made while a span of the same name is open (recursion) gets none."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.inside(name) or (when is not None and not when(args, kwargs)):
            return fn(*args, **kwargs)
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(result, args, kwargs)
        return result
    return wrapper


def _probe(tracer, prefix, fn, count):
    """Time and count fn without making it a span."""
    c = tracer.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = clock()
        result = fn(*args, **kwargs)
        c[prefix + "_s"] += clock() - t0
        c[prefix + "_calls"] += 1
        count(result, args)
        return result
    return wrapper


def _rebind(package_modules, orig, new):
    for mod in package_modules:
        for name, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, name, new)


def install(tracer):
    """Patch whitneylab's modules; raises AttributeError if a hook target is gone."""
    import whitneylab
    from whitneylab import approx, cli, decompose, geometry, modulus, polyspace, whitney

    mods = [whitneylab, approx, cli, decompose, geometry, modulus, polyspace, whitney]
    c = tracer.counts

    def hook(mod, attr, make):
        orig = getattr(mod, attr, None)
        if orig is None:
            raise AttributeError(f"trace: no hook target {mod.__name__}.{attr}")
        new = make(orig)
        if isinstance(mod, type):
            setattr(mod, attr, new)
        else:
            _rebind(mods, orig, new)

    # geometry ---------------------------------------------------------------
    def count_contains(result, args):
        n = np.size(result)
        c["geometry.contains_points"] += n
        if tracer.inside("geometry.sample_plan"):
            c["geometry.sample_proposed"] += n
            c["geometry.sample_accepted"] += int(np.sum(result))
        if tracer.inside("decompose.verify_chain"):
            c["decompose.verify_contains_points"] += n

    hook(geometry.Domain, "contains",
         lambda f: _probe(tracer, "geometry.contains", f, count_contains))
    for attr in ("domain_from_spec", "sample_plan", "diameter"):
        hook(geometry, attr, lambda f, a=attr: _span(tracer, f"geometry.{a}", f))

    # polyspace ----------------------------------------------------------------
    def count_monomials(result, args):
        c["polyspace.monomial_entries"] += np.size(result)

    hook(polyspace, "monomial_matrix",
         lambda f: _probe(tracer, "polyspace.monomial_matrix", f, count_monomials))
    hook(polyspace, "design_matrix",
         lambda f: _probe(tracer, "polyspace.design_matrix", f, lambda r, a: None))
    hook(polyspace, "build_basis", lambda f: _span(tracer, "polyspace.build_basis", f))

    # modulus ------------------------------------------------------------------
    def count_shift(result, args, kwargs):
        c["modulus.stencil_valid"] += len(result)
        c["modulus.stencil_tested"] += len(args[1])

    def count_fd(result, args, kwargs):
        c["modulus.finite_difference_points"] += np.size(result)

    def count_feval(result, args, kwargs):
        c["modulus.f_eval_points"] += np.size(result)

    hook(modulus, "set_modulus", lambda f: _span(tracer, "modulus.set_modulus", f))
    hook(modulus, "shift_domain",
         lambda f: _span(tracer, "modulus.shift_domain", f, after=count_shift))
    hook(modulus, "finite_difference",
         lambda f: _span(tracer, "modulus.finite_difference", f, after=count_fd))
    in_fd = lambda args, kwargs: tracer.current() == "modulus.finite_difference"
    for cls in ("PolynomialFunction", "RidgeLog", "CallbackFunction"):
        hook(getattr(modulus, cls), "__call__",
             lambda f: _span(tracer, "modulus.f_eval", f, after=count_feval, when=in_fd))

    # approx -------------------------------------------------------------------
    def count_approx(result, args, kwargs):
        c["approx.iterations"] += result.iterations

    def quasi(args, kwargs):
        p = args[3] if len(args) > 3 else kwargs["p"]
        return p < 1.0

    hook(approx, "best_approx",
         lambda f: _span(tracer, "approx.best_approx", f, after=count_approx))
    hook(approx, "_solve", lambda f: _span(tracer, "approx.quasinorm", f, when=quasi))
    hook(approx, "_solve_inf", lambda f: _span(tracer, "approx.lp", f))
    hook(approx, "_irls", lambda f: _span(tracer, "approx.irls", f))
    hook(approx, "_weighted_lsq", lambda f: _span(tracer, "approx.lstsq", f))

    # decompose ----------------------------------------------------------------
    def count_pieces(result, args, kwargs):
        chain = result[0] if isinstance(result, tuple) else result
        c["decompose.pieces"] += chain.n_pieces

    def count_verify(result, args, kwargs):
        c["decompose.verify_samples"] += result.n_sampled

    for attr in ("star_shaped_decomposition", "planar_two_direction_chain",
                 "lip2_ball_chain", "xray_slab_decomposition"):
        hook(decompose, attr,
             lambda f: _span(tracer, "decompose.build", f, after=count_pieces))
    hook(decompose, "verify_chain",
         lambda f: _span(tracer, "decompose.verify_chain", f, after=count_verify))
    hook(decompose, "chain_from_spec", lambda f: _span(tracer, "decompose.chain_from_spec", f))

    # whitney ------------------------------------------------------------------
    def count_ratio(result, args, kwargs):
        c["whitney.ratios_defined"] += result is not None

    hook(whitney, "whitney_ratio", lambda f: _span(tracer, "whitney.ratio", f, after=count_ratio))
    hook(whitney, "empirical_whitney_constant",
         lambda f: _span(tracer, "whitney.empirical_whitney_constant", f))
    hook(whitney, "counterexample_certificate",
         lambda f: _span(tracer, "whitney.certificate", f))
    hook(whitney, "chain_upper_bound", lambda f: _span(tracer, "whitney.chain_bound", f))

    # cli ------------------------------------------------------------------------
    hook(cli, "run", lambda f: _span(tracer, "cli.run", f))


def layer_metrics(tracer, rounds):
    """Per-layer figures of the traced rounds, as averages per round."""
    tot = tracer.totals()
    c = tracer.counts

    def calls(name):
        return tot[name][0] / rounds if name in tot else 0.0

    def secs(name):
        return tot[name][1] / rounds if name in tot else 0.0

    def self_secs(name):
        return tot[name][2] / rounds if name in tot else 0.0

    def ratio(num, den):
        return c[num] / c[den] if c[den] else 0.0

    def per(name):
        return c[name] / rounds

    return {
        "cli.run_s": secs("cli.run"),
        "cli.self_s": self_secs("cli.run"),
        "geometry.contains_calls": per("geometry.contains_calls"),
        "geometry.contains_points": per("geometry.contains_points"),
        "geometry.contains_s": per("geometry.contains_s"),
        "geometry.sample_plan_s": secs("geometry.sample_plan"),
        "geometry.sample_accept_ratio": ratio("geometry.sample_accepted",
                                              "geometry.sample_proposed"),
        "geometry.domain_from_spec_s": secs("geometry.domain_from_spec"),
        "geometry.diameter_s": secs("geometry.diameter"),
        "polyspace.build_basis_s": secs("polyspace.build_basis"),
        "polyspace.monomial_matrix_calls": per("polyspace.monomial_matrix_calls"),
        "polyspace.monomial_entries": per("polyspace.monomial_entries"),
        "polyspace.monomial_matrix_s": per("polyspace.monomial_matrix_s"),
        "polyspace.design_matrix_calls": per("polyspace.design_matrix_calls"),
        "polyspace.design_matrix_s": per("polyspace.design_matrix_s"),
        "modulus.set_modulus_calls": calls("modulus.set_modulus"),
        "modulus.set_modulus_s": secs("modulus.set_modulus"),
        "modulus.shift_domain_calls": calls("modulus.shift_domain"),
        "modulus.shift_domain_s": secs("modulus.shift_domain"),
        "modulus.stencil_valid_ratio": ratio("modulus.stencil_valid", "modulus.stencil_tested"),
        "modulus.finite_difference_points": per("modulus.finite_difference_points"),
        "modulus.finite_difference_s": secs("modulus.finite_difference"),
        "modulus.f_eval_points": per("modulus.f_eval_points"),
        "modulus.f_eval_s": secs("modulus.f_eval"),
        "approx.best_approx_calls": calls("approx.best_approx"),
        "approx.lp_s": secs("approx.lp"),
        "approx.irls_s": secs("approx.irls"),
        "approx.quasinorm_s": secs("approx.quasinorm"),
        "approx.lstsq_s": secs("approx.lstsq"),
        "approx.iterations": per("approx.iterations"),
        "decompose.build_s": secs("decompose.build"),
        "decompose.pieces": per("decompose.pieces"),
        "decompose.verify_chain_s": secs("decompose.verify_chain"),
        "decompose.verify_samples": per("decompose.verify_samples"),
        "decompose.verify_contains_points": per("decompose.verify_contains_points"),
        "decompose.chain_from_spec_s": secs("decompose.chain_from_spec"),
        "whitney.ratio_calls": calls("whitney.ratio"),
        "whitney.ratios_defined": per("whitney.ratios_defined"),
        "whitney.ratio_self_s": self_secs("whitney.ratio"),
        "whitney.certificate_s": secs("whitney.certificate"),
        "whitney.chain_bound_calls": calls("whitney.chain_bound"),
    }

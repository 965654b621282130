"""Check that two source trees write the same benchmark outputs.

    python3 scripts/same_outputs.py OLD_TREE NEW_TREE

Runs every experiment of the benchmark's three workloads (``estimate``,
``chains``, ``certificate``) at seeds 1, 2 and 3 through each tree's
``whitneylab.cli.run``, one fresh process per tree, with the BLAS/OpenMP
thread counts pinned to 1 as the benchmark pins them. The inputs and the
experiments come from this checkout's ``perfbench/workloads.py``, imported
and not changed, so both trees answer the same argv. Each output file is
compared after ``meta.config_hash`` is blanked (it hashes the input paths).
The new tree's outputs are also checked with ``perfbench/checks.py``.

The golden-output rule is: the same bytes, or the same JSON structure with
every number within RTOL = 1e-10 relative. An output whose bytes differ is
listed with the largest relative difference between the numbers at the same
JSON path, as "within rtol" when that is at most RTOL, and otherwise as a
problem; "structure differs" (keys, list lengths, strings) is always a
problem. Exits 0 when every output keeps the rule and passes its check, and
1 otherwise, naming every experiment that broke the rule, failed or whose
check failed. The last line gives the largest relative difference over all
outputs compared (0 when every output is byte-identical).
"""
import os

# OpenBLAS and OpenMP read these once, when numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import math
import re
import subprocess
import sys
import tempfile
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = ("estimate", "chains", "certificate")
SEEDS = (1, 2, 3)
CONFIG_HASH = re.compile(rb'"config_hash": "[0-9a-f]*"')
RTOL = 1e-10


def collect(tree, dest, check):
    """Run every experiment with ``tree``'s whitneylab; write the outputs, with
    ``meta.config_hash`` blanked, and a summary (exit failures, check
    problems) under ``dest``."""
    src = (Path(tree) / "src").resolve()
    sys.path[:0] = [str(src), str(PERFBENCH)]
    import whitneylab
    from whitneylab import cli
    import workloads
    if Path(whitneylab.__file__).resolve().parent != src / "whitneylab":
        raise RuntimeError(f"imported whitneylab from {whitneylab.__file__}, not from {src}")
    summary = {}
    for workload in WORKLOADS:
        for seed in SEEDS:
            work = dest / f"{workload}-{seed}"
            work.mkdir(parents=True)
            for exp in workloads.build(workload, work, seed):
                key = f"{workload} seed {seed}: {exp.name}"
                stderr = io.StringIO()
                try:
                    with contextlib.redirect_stdout(io.StringIO()), \
                            contextlib.redirect_stderr(stderr):
                        code = cli.run(exp.argv)
                except Exception as exc:  # a traceback from the program is a failure
                    code = f"{type(exc).__name__}: {exc}"
                problems = [] if code == 0 else [f"exit {code}: {stderr.getvalue().strip()}"]
                if exp.out.exists():
                    data = exp.out.read_bytes()
                    exp.out.write_bytes(CONFIG_HASH.sub(b'"config_hash": ""', data))
                    if check and not problems:
                        try:
                            problems = exp.check(json.loads(data))
                        except Exception as exc:  # a malformed payload fails its check
                            problems = [f"check raised {type(exc).__name__}: {exc}"]
                else:
                    problems.append("no output file")
                summary[key] = {"out": str(exp.out.relative_to(dest)), "problems": problems}
    (dest / "summary.json").write_text(json.dumps(summary), encoding="utf-8")


def largest_rel_diff(a, b):
    """The largest |x - y| / max(|x|, |y|) over the numbers x, y at the same
    JSON path of ``a`` and ``b`` (inf where one is not finite or NaN and the
    other differs), or None when anything but a number differs."""
    if (isinstance(a, (int, float)) and isinstance(b, (int, float))
            and not isinstance(a, bool) and not isinstance(b, bool)):
        if a == b or (a != a and b != b):
            return 0.0
        rel = abs(a - b) / max(abs(a), abs(b))
        return rel if rel == rel else math.inf
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        pairs = [(a[k], b[k]) for k in a]
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        pairs = zip(a, b)
    else:
        return 0.0 if type(a) is type(b) and a == b else None
    worst = 0.0
    for x, y in pairs:
        rel = largest_rel_diff(x, y)
        if rel is None:
            return None
        worst = max(worst, rel)
    return worst


def run_tree(tree, dest, check):
    argv = [sys.executable, str(Path(__file__).resolve()), "--collect", str(tree), str(dest)]
    subprocess.run(argv + (["--check"] if check else []), check=True)
    return json.loads((dest / "summary.json").read_text(encoding="utf-8"))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old_tree", nargs="?")
    ap.add_argument("new_tree", nargs="?")
    ap.add_argument("--collect", nargs=2, metavar=("TREE", "DEST"), help=argparse.SUPPRESS)
    ap.add_argument("--check", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.collect:
        collect(args.collect[0], Path(args.collect[1]), args.check)
        return 0
    if args.new_tree is None:
        ap.error("OLD_TREE and NEW_TREE are required")
    for tree in (args.old_tree, args.new_tree):
        if not (Path(tree) / "src" / "whitneylab" / "__init__.py").is_file():
            ap.error(f"no whitneylab sources under {tree}/src")

    with tempfile.TemporaryDirectory() as tmp:
        old = run_tree(args.old_tree, Path(tmp) / "old", check=False)
        new = run_tree(args.new_tree, Path(tmp) / "new", check=True)
        bad, within = [], []
        worst = 0.0
        for key, got in new.items():
            want = old.get(key)
            reasons = [f"new tree: {msg}" for msg in got["problems"]]
            if want is None:
                reasons.append("not run on the old tree")
            elif want["problems"]:
                reasons.extend(f"old tree: {msg}" for msg in want["problems"])
            elif not reasons:
                before = (Path(tmp) / "old" / want["out"]).read_bytes()
                after = (Path(tmp) / "new" / got["out"]).read_bytes()
                if before != after:
                    rel = largest_rel_diff(json.loads(before), json.loads(after))
                    if rel is None:
                        reasons.append("bytes differ, structure differs")
                    else:
                        worst = max(worst, rel)
                        if rel <= RTOL:
                            within.append(f"{key}: within rtol, largest relative difference "
                                          f"{rel:.3g}")
                        else:
                            reasons.append(f"bytes differ, largest relative difference {rel:.3g}")
            bad.extend(f"{key}: {msg}" for msg in reasons)
    for line in within + bad:
        print(line)
    print(f"{len(new)} outputs compared, {len(within)} within rtol {RTOL:g}, "
          f"{len(bad)} problems")
    print(f"largest relative difference over all outputs: {worst:.3g}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

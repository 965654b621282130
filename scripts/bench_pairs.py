"""Run the benchmark on two source trees in alternating pairs; summarise it.

    python3 scripts/bench_pairs.py PARENT_TREE CHANGE_TREE --out BENCH_<n>.json \\
        --first-seed 101

For every workload of the change tree's ``BENCHMARK.json``, pair i of
``PAIRS`` runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0``
once in each tree, from the tree's root, one process at a time, at the same
seed S = first seed + i and the benchmark's own run length T
(``run_seconds``). The tree that runs first alternates from pair to pair, so
a drift in the machine's speed falls on both sides alike. Each tree runs its
own ``perfbench/`` on its own sources; the end-to-end metrics and their
better direction are also read from the change tree's ``BENCHMARK.json``.
Use first seeds that the change was not tuned on.

The output file holds, per workload and end-to-end metric, the median and
quartiles of each side over the pairs, the relative change of the medians,
the pairs the change won (strictly better in the metric's direction), the
metric's ``bound`` from ``BENCHMARK.json`` and two flags: ``beyond_bound``
when the change's median is worse than the parent's by more than that
relative bound, and ``unresolved`` when the parent's quartile spread
(q3 - q1) exceeds the bound times its median, unless every run of the change
is better than every run of the parent. It also holds every run's metrics
with its ``attempted``, ``failed`` and ``correct`` fields. A summary line per
workload and metric goes to standard output, then one line per flagged metric
and per run with ``failed`` > 0; the script exits 1 if there is any such
line, and 0 otherwise.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
PAIRS = 10


def run_once(tree, workload, seed, seconds):
    """One ``perfbench/run.py`` process in ``tree``; returns its result line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True,
                          timeout=max(600.0, 20.0 * seconds))
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: {' '.join(argv[1:])} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(runs, metrics):
    """Per metric: each side's median and quartiles, the pairs won, the
    metric's bound, and the ``beyond_bound`` and ``unresolved`` flags."""
    out = {}
    for name, spec in metrics.items():
        got = {side: [run[side]["metrics"][name]["value"] for run in runs] for side in SIDES}
        sign = 1.0 if spec["better"] == "lower" else -1.0
        won = sum(sign * (c - p) < 0.0 for p, c in zip(got["parent"], got["change"]))
        stats = {side: quartiles(got[side]) for side in SIDES}
        base = stats["parent"]["median"]
        # relative to the parent's median, multiplied out so a zero median needs no case
        allowed = spec["bound"] * abs(base)
        worse = sign * (stats["change"]["median"] - base)
        spread = stats["parent"]["q3"] - stats["parent"]["q1"]
        all_better = all(sign * (c - p) < 0.0 for p in got["parent"] for c in got["change"])
        out[name] = {"unit": spec["unit"], "better": spec["better"], **stats,
                     "median_change": (stats["change"]["median"] - base) / base if base else None,
                     "pairs_won": won, "pairs": len(runs), "bound": spec["bound"],
                     "beyond_bound": worse > allowed,
                     "unresolved": spread > allowed and not all_better}
    return out


def flagged(workload, summary, runs):
    """One line per metric beyond its bound or unresolved, and per failed run."""
    lines = []
    for name, s in summary.items():
        flags = [flag for flag in ("beyond_bound", "unresolved") if s[flag]]
        if flags:
            lines.append(f"{workload} {name}: {' and '.join(flags)} (bound {s['bound']:g}, "
                         f"parent {s['parent']['median']:.4g} [{s['parent']['q1']:.4g}, "
                         f"{s['parent']['q3']:.4g}], change {s['change']['median']:.4g})")
    for run in runs:
        for side in SIDES:
            if run[side]["failed"] > 0:
                lines.append(f"{workload} pair {run['pair']} seed {run['seed']}: {side} "
                             f"failed {run[side]['failed']} of {run[side]['attempted']}")
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_tree")
    ap.add_argument("change_tree")
    ap.add_argument("--out", required=True, help="the summary JSON file to write")
    ap.add_argument("--first-seed", type=int, required=True,
                    help="the seed of the first pair; pair i runs at this plus i")
    args = ap.parse_args(argv)
    trees = dict(zip(SIDES, (Path(args.parent_tree).resolve(),
                             Path(args.change_tree).resolve())))
    for tree in trees.values():
        if not (tree / "perfbench" / "run.py").is_file():
            ap.error(f"no perfbench/run.py under {tree}")
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    report = {"pairs": PAIRS, "seconds": seconds,
              "machine": {"cpus": os.cpu_count(), "platform": platform.platform(),
                          "python": platform.python_version()},
              "workloads": {}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for i in range(PAIRS):
            seed = args.first_seed + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            run = {"pair": i, "seed": seed, "first": order[0]}
            for side in order:
                run[side] = run_once(trees[side], workload, seed, seconds)
            runs.append(run)
            print(f"{workload} pair {i} seed {seed}: " + ", ".join(
                f"{side} wall_s {run[side]['metrics']['wall_s']['value']:.3f} "
                f"failed {run[side]['failed']}" for side in SIDES), flush=True)
        summary = summarise(runs, metrics)
        report["workloads"][workload] = {"metrics": summary, "runs": runs}
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
        for name, s in summary.items():
            print(f"{workload} {name}: parent {s['parent']['median']:.4g} "
                  f"[{s['parent']['q1']:.4g}, {s['parent']['q3']:.4g}], change "
                  f"{s['change']['median']:.4g} [{s['change']['q1']:.4g}, "
                  f"{s['change']['q3']:.4g}], won {s['pairs_won']}/{s['pairs']}", flush=True)
        problems += flagged(workload, summary, runs)
    for line in problems:
        print(f"FLAGGED {line}", flush=True)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one workload over several seeds and print the run-to-run spread.

    python3 perfbench/spread.py --workload chains --seeds 1-10

Each seed is one untraced run of ``run.py`` (a fresh process) of
BENCHMARK.json's ``run_seconds``, made one after another from the checkout
root. For every end-to-end metric the script prints the
median and the quartiles of the runs (``statistics.quantiles(values, n=4)``),
the spread (q3 - q1) / median and the metric's bound in BENCHMARK.json, and
the share of failed operations of each run. The bounds in BENCHMARK.json are
set from this output.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    args = ap.parse_args()
    seconds = spec["run_seconds"]

    runs = []
    for seed in parse_seeds(args.seeds):
        argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} {values}", flush=True)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    print(f"\n{args.workload}: {len(runs)} runs of {seconds} s")
    print(f"{'metric':<28}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>8}")
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:<28}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}{spread:>9.3f}"
              f"{'' if bound is None else f'{bound:>8.2f}'}")
    shares = sorted({r["failed"] / r["attempted"] for r in runs})
    print(f"failed share: {', '.join(f'{s:.6f}' for s in shares)}; "
          f"all correct: {all(r['correct'] for r in runs)}")


if __name__ == "__main__":
    main()

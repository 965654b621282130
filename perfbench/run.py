"""Seeded benchmark of whitneylab: one workload, one process, one client.

    python3 perfbench/run.py --workload estimate --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; whitneylab is imported from its ``src``.
The process pins the BLAS/OpenMP thread counts to 1 before numpy loads,
writes the workload's inputs from ``--seed``, and runs the workload's
experiments one after another through ``whitneylab.cli.run`` (a closed loop).
It starts another whole round of them until ``--seconds`` of experiments
have run, and then checks every output against ``checks.py``. Set-up time is
the median over nine fresh processes, spread over the run, that import
everything and write the inputs. The last line of standard output is the
result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json and
``--trace 1`` the per-layer ones, from spans recorded by ``spans.py``. The
result and the spans are also written under ``.perfbench-out/``.
"""
import os

# OpenBLAS and OpenMP read these once, when numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
WORK_DIR = ROOT / ".perfbench-work"
WORKLOADS = ("estimate", "chains", "certificate")
SETUP_PROBES = 9
clock = time.perf_counter


def setup(workload, seed, work):
    """Import numpy, scipy and every whitneylab module, and write the
    workload's inputs under ``work``; returns its experiments."""
    sys.path[:0] = [str(SRC), str(HERE)]
    import numpy  # noqa: F401
    import scipy.optimize  # noqa: F401
    import scipy.spatial  # noqa: F401
    import whitneylab
    from whitneylab import approx, cli, decompose, geometry, modulus, polyspace, whitney  # noqa: F401
    if Path(whitneylab.__file__).resolve().parent != (SRC / "whitneylab").resolve():
        raise RuntimeError(f"imported whitneylab from {whitneylab.__file__}, not from {SRC}")
    import workloads
    work.mkdir(parents=True, exist_ok=True)
    return workloads.build(workload, work, seed)


def setup_probe(workload, seed, k):
    """Wall time of one fresh process, from spawn until it is ready."""
    work = WORK_DIR / f"probe-{os.getpid()}-{k}"
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--seconds", "0", "--setup-probe", str(work)]
    t0 = clock()
    try:
        proc = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=120, text=True)
        elapsed = clock() - t0
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return elapsed


@dataclass
class Outcome:
    """One experiment's wall and CPU time, failure, output file and size."""
    exp: object
    wall: float
    cpu: float
    error: str | None
    data: bytes | None
    out_bytes: int
    ok: bool = False


def run_experiment(cli, exp):
    exp.out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    error = None
    c0, t0 = time.process_time(), clock()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.run(exp.argv)
        if code != 0:
            error = f"exit code {code}: {stderr.getvalue().strip()[-300:]}"
    except Exception as exc:  # a traceback from the program is a failed operation
        error = f"{type(exc).__name__}: {exc}"
    wall, cpu = clock() - t0, time.process_time() - c0
    data = exp.out.read_bytes() if exp.out.exists() else None
    size = len(stdout.getvalue().encode()) + len(data or b"")
    return Outcome(exp, wall, cpu, error, data, size)


class Verdicts:
    """Checks each output once per distinct content: identical bytes get the
    verdict they got before."""

    def __init__(self):
        self.seen = {}

    def problems(self, o):
        if o.data is None:
            return ["no output file"]
        key = (o.exp.name, o.data)
        if key not in self.seen:
            try:
                self.seen[key] = o.exp.check(json.loads(o.data))
            except Exception as exc:  # a malformed payload fails its check
                self.seen[key] = [f"check raised {type(exc).__name__}: {exc}"]
        return self.seen[key]


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "whitneylab" / "__init__.py").is_file():
        print(f"run.py: no whitneylab sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup(args.workload, args.seed, Path(args.setup_probe))
        return 0
    e2e_units, layer_units = declared_metrics()

    work = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        experiments = setup(args.workload, args.seed, work)
        from whitneylab import cli
        tracer = None
        if args.trace:
            import spans
            tracer = spans.Tracer()
            spans.install(tracer)

        # set-up probes run between experiments, outside the measured time,
        # one each time another ninth of --seconds has been measured, so that
        # they sample the machine over the whole run
        probes = []
        n_probes = 0 if tracer else SETUP_PROBES
        rounds = []
        measured = 0.0
        while not rounds or measured < args.seconds:
            outcomes = []
            for exp in experiments:
                if len(probes) < n_probes and measured >= len(probes) * args.seconds / n_probes:
                    probes.append(setup_probe(args.workload, args.seed, len(probes)))
                outcomes.append(run_experiment(cli, exp))
                measured += outcomes[-1].wall
            rounds.append(outcomes)
        # read before checking, so that the checker's memory is not counted
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        while len(probes) < n_probes:
            probes.append(setup_probe(args.workload, args.seed, len(probes)))

        verdicts = Verdicts()
        attempted = failed = 0
        correct = True
        reported = set()
        for o in (o for outcomes in rounds for o in outcomes):
            attempted += 1
            problems = [] if o.error else verdicts.problems(o)
            if o.error or problems:
                failed += 1
                correct = correct and not problems
                for msg in [o.error] if o.error else problems:
                    if (o.exp.name, msg) not in reported:
                        reported.add((o.exp.name, msg))
                        print(f"{args.workload}: {o.exp.name} failed: {msg}", file=sys.stderr)
            o.ok = not (o.error or problems)

        round_wall = [sum(o.wall for o in rnd) for rnd in rounds]
        if tracer is None:
            ok_walls = [o.wall for rnd in rounds for o in rnd if o.ok]
            values = {
                "setup_s": statistics.median(probes),
                "wall_s": statistics.median(round_wall),
                "exp_p50_s": statistics.median(ok_walls) if ok_walls else 0.0,
                "peak_rss_mb": peak_rss_mb,
            }
            units = e2e_units
        else:
            values = spans.layer_metrics(tracer, len(rounds))
            values["cli.out_bytes"] = statistics.median(
                [sum(o.out_bytes for o in rnd) for rnd in rounds])
            values["process.cpu_s"] = statistics.median([sum(o.cpu for o in rnd) for rnd in rounds])
            values["trace.wall_s"] = statistics.median(round_wall)
            units = layer_units
        missing = sorted(set(units) - set(values))
        if missing:
            raise RuntimeError(f"metrics not measured: {missing}")
        result = {"correct": correct, "attempted": attempted, "failed": failed,
                  "metrics": {name: {"value": values[name], "unit": unit}
                              for name, unit in units.items()}}
        OUT_DIR.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}"
        (OUT_DIR / f"{stem}-trace{args.trace}.json").write_text(
            json.dumps({**result, "rounds": len(rounds), "experiment_wall_s": {
                exp.name: statistics.median(rnd[i].wall for rnd in rounds)
                for i, exp in enumerate(experiments)}}, indent=1) + "\n", encoding="utf-8")
        if tracer is not None:
            tracer.write(OUT_DIR / f"{stem}.spans.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

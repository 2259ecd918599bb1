#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload ladder --seeds 1-10
    python3 perfbench/spread.py --workload ladder --seeds 11-20 \\
        --against perfbench/out/spread-ladder-trace0.json

For every end-to-end metric it prints the median, the quartiles (from
``statistics.quantiles(values, n=4)``) and the interquartile range as a share
of the median, next to the metric's bound in BENCHMARK.json. ``--against``
compares the medians with an earlier series, such as the parent commit's or
an untraced run's, and prints the change as a share of the earlier median.
With ``--trace 1`` it reads the end-to-end figures of the traced runs from
their result files and also checks that every per-layer count repeats
exactly. The series is written to perfbench/out/spread-<workload>-trace<t>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: run.py exited with {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"seed {seed}: {result['failed']} failed operations")
    record = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {
        "end_to_end": {k: v["value"] for k, v in record["end_to_end"].items()},
        "per_layer": {k: v["value"] for k, v in record["per_layer"].items()},
    }


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    runs = []
    for seed in args.seeds:
        runs.append(run_once(args.workload, seed, seconds, args.trace))
        print(f"seed {seed} done", file=sys.stderr)
    series = {name: [r["end_to_end"][name] for r in runs] for name in runs[0]["end_to_end"]}
    out = HERE / "out" / f"spread-{args.workload}-trace{args.trace}.json"
    out.write_text(json.dumps({"seeds": args.seeds, "seconds": seconds, "series": series}))

    earlier = json.loads(args.against.read_text())["series"] if args.against else {}
    print(f"{args.workload}: {len(runs)} runs of {seconds:g} s, trace={args.trace}")
    print(f"{'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} "
          f"{'bound':>6}" + (f" {'vs earlier':>10}" if earlier else ""))
    for name, values in series.items():
        median, q1, q3, spread = summary(values)
        bound = bounds.get(name, {}).get("bound")
        line = (f"{name:<20} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.3f} "
                f"{bound if bound is not None else '-':>6}")
        if bound is not None and name != "setup_s" and spread > bound / 3:
            line += "  (spread above a third of the bound)"
        if name in earlier:
            before = statistics.median(earlier[name])
            line += f" {((median - before) / before if before else 0.0):>+10.3f}"
        print(line)

    if args.trace:
        varying = [
            name for name in runs[0]["per_layer"]
            if not name.endswith("_s") and name != "verify.max_projection_err"
            and len({r["per_layer"][name] for r in runs}) > 1
        ]
        print("per-layer counts repeat exactly" if not varying
              else f"per-layer counts that vary: {', '.join(varying)}")


if __name__ == "__main__":
    main()

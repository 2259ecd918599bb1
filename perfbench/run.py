#!/usr/bin/env python3
"""slin benchmark: end-to-end and per-layer figures for three workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1            # all three, one process each

With ``--trace 0`` the last line of standard output is a JSON object
``{"correct", "attempted", "failed", "metrics"}`` carrying the end-to-end
metrics; with ``--trace 1`` the public functions of each layer are wrapped in
spans and the metrics are the per-layer ones. A human-readable report, the
environment (Python, RK4 backend, nproc, commit, seed, budget) and the list
of over-budget systems come before it. The full result, including spans
when traced, is written to perfbench/out/.

The benchmark builds the checkout's optional extension in place when its
build inputs change, then imports slin from the checkout's src/ directory.
See perfbench/README.md for the workloads and what each metric means.
"""

import os

# Single-threaded: keep numeric libraries used by the oracle off other cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ladder", "population", "simulate")
BUILD_INPUTS = ("setup.py", "pyproject.toml", "src/slin/*.pyx", "src/slin/*.pxd", "src/slin/*.c")

def _declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _digest(paths):
    h = hashlib.sha256()
    for path in paths:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def build():
    """Build the checkout's extension in place when its inputs changed.

    Without Cython the build compiles nothing and slin uses its pure-Python
    kernel; either way `slin.numeric.BACKEND` says which kernel was measured.
    """
    inputs = sorted(p for pattern in BUILD_INPUTS for p in ROOT.glob(pattern))
    stamp = ROOT / ".bench_build" / "build.stamp"
    digest = _digest(inputs)
    if stamp.is_file() and stamp.read_text() == digest:
        return
    stamp.parent.mkdir(parents=True, exist_ok=True)
    subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext", "--inplace",
         "--build-temp", str(ROOT / ".bench_build" / "temp")],
        cwd=ROOT, check=True, stdout=sys.stderr,
    )
    stamp.write_text(digest)


def environment(args, budget):
    import slin.numeric

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    sources = sorted((ROOT / "src" / "slin").glob("*.py"))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "budget_s": budget,
        "python": platform.python_version(),
        "backend": slin.numeric.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "source_sha256": _digest(sources),
    }


def _fmt(value):
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def run_one(args, import_s):
    import workloads

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    res = workloads.run(args.workload, args.seed, args.seconds, tracer)
    e2e = workloads.end_to_end(res, import_s)
    layers = workloads.per_layer(res) if tracer else {}
    env = environment(args, workloads.BUDGETS[args.workload])

    print(f"# slin benchmark: {args.workload}")
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"operations: {res.ops} over {res.measured_s:.2f} s measured, "
          f"{len(res.items)} systems, {res.failed} failed, {res.over_budget} over budget")
    print("end-to-end" + (" (traced run)" if tracer else "") + ":")
    for name, (value, unit) in e2e.items():
        print(f"  {name:<28} {_fmt(value):>14} {unit}")
    if tracer:
        print("per-layer (per pass over the systems):")
        for name, (value, unit) in layers.items():
            print(f"  {name:<28} {_fmt(value):>14} {unit}")
        print_lift_split(res)
    over = [it.gsys for it in res.items if any(s.over_budget for s in it.samples)]
    if over:
        print(f"over budget ({workloads.BUDGETS[args.workload]:g} s):")
        for g in over:
            print(f"  {g.name}: " + "; ".join(g.render().strip().splitlines()))
    for line in res.failures:
        print(f"FAILED {line}")

    record = {
        "environment": env,
        "operations": res.ops,
        "failures": res.failures,
        "over_budget": [g.name for g in over],
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
        "latency_s": {
            it.gsys.name: [s.latency if s.latency != float("inf") else None for s in it.samples]
            for it in res.items
        },
    }
    if tracer:
        record["spans"] = tracer.spans
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record))
    print(f"result written to {out_file.relative_to(ROOT)}")

    # The result carries exactly the metrics BENCHMARK.json declares.
    declared = _declared()["per_layer" if tracer else "end_to_end"]
    measured = layers if tracer else e2e
    return {
        "correct": res.failed == 0,
        "attempted": res.ops,
        "failed": res.failed,
        "metrics": {
            m["name"]: dict(zip(("value", "unit"), measured[m["name"]])) for m in declared
        },
    }


def print_lift_split(res):
    """Where the lift stage's time went, per system, for the ladder's rungs."""
    if res.workload != "ladder":
        return
    print("lift stage split (share of superlinearize time):")
    for it in res.items:
        spent = it.layer_time["lift"]
        total = spent.get("lift.superlinearize", 0.0)
        if not total:
            continue
        parts = {
            "substitute": spent.get("poly.substitute", 0.0),
            "verify_symbolic": spent.get("verify.verify_symbolic", 0.0),
            "span": spent.get("lift.span_add", 0.0) + spent.get("lift.span_express", 0.0),
            "lie_derivative": spent.get("poly.lie_derivative", 0.0),
        }
        shares = ", ".join(f"{k} {100 * v / total:.0f}%" for k, v in parts.items())
        print(f"  {it.gsys.name:<14} {total / len(it.samples):8.3f} s/op  {shares}")


def run_all(args):
    """Each workload in its own process, one after another."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return None
        results[name] = json.loads(lines[-1])
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {name: r["metrics"] for name, r in results.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=_declared()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "slin" / "__init__.py").is_file():
        print(f"error: no slin sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args)
        if result is None:
            return 1
    else:
        build()
        sys.path[:0] = [str(ROOT / "src"), str(HERE)]
        start = time.perf_counter()
        import slin  # noqa: F401
        import slin.cli  # noqa: F401  (the whole package, as a user's first command loads it)

        import_s = time.perf_counter() - start
        result = run_one(args, import_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

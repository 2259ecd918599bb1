#!/usr/bin/env python3
"""Benchmark the RK4 stepping kernels: compiled extension vs pure Python.

Integrates the five-state cascade and its 21-dimensional lift over a range of
step counts with both kernels, checks that the outputs agree bit for bit, and
prints timings plus the speedup. The lift is compiled the way `verify_numeric`
compiles it, straight from A and D with `compile_affine`; the script first
checks that those arrays equal `compile_field` of the lift's row polynomials.

Usage: python benchmarks/bench_rk4.py [--repeat N]
"""

import argparse
import time

from slin import parse_system, superlinearize
from slin.numeric import (
    compile_affine,
    compile_field,
    integrate_compiled,
    rk4_kernel_python,
)

FIVE_STATE = """\
vars: x1 x2 x3 x4 x5
x1' = x2
x2' = -x1
x3' = x2^2
x4' = x3 + x1*x2^2
x5' = -x5 + x3^2 + x1^2*x2
"""


def best_of(repeat, fn):
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3, help="timing repetitions")
    args = parser.parse_args()

    try:
        from slin._rk4 import rk4_kernel as compiled
    except ImportError:
        compiled = None
        print("note: compiled kernel not built; timing the pure kernel only\n")

    system = parse_system(FIVE_STATE)
    lift = superlinearize(system)
    x0 = [0.1, 0.2, 0.3, 0.4, 0.5]
    z0 = x0 + [obs.expansion.evaluate(x0) for obs in lift.observables]

    lifted = compile_affine(lift.A, lift.D)
    if lifted != compile_field(lift.field()):
        raise SystemExit("compile_affine differs from compile_field of the lift's rows")

    cases = [
        ("original (dim 5)", compile_field(system.rhs), x0),
        ("lifted (dim 21)", lifted, z0),
    ]

    header = f"{'case':<18} {'steps':>8} {'python':>12} {'c':>12} {'speedup':>9}"
    print(header)
    print("-" * len(header))
    for label, field, y0 in cases:
        for n_steps in (2_000, 20_000):
            t_py = best_of(
                args.repeat,
                lambda: integrate_compiled(field, y0, 1e-3, n_steps, rk4_kernel_python),
            )
            if compiled is None:
                print(f"{label:<18} {n_steps:>8} {t_py * 1e3:>10.2f}ms {'-':>12} {'-':>9}")
                continue
            t_c = best_of(
                args.repeat,
                lambda: integrate_compiled(field, y0, 1e-3, n_steps, compiled),
            )
            py_states, _ = integrate_compiled(field, y0, 1e-3, n_steps, rk4_kernel_python)
            c_states, _ = integrate_compiled(field, y0, 1e-3, n_steps, compiled)
            agree = "ok" if py_states == c_states else "MISMATCH"
            print(
                f"{label:<18} {n_steps:>8} {t_py * 1e3:>10.2f}ms {t_c * 1e3:>10.2f}ms "
                f"{t_py / t_c:>8.1f}x  [{agree}]"
            )


if __name__ == "__main__":
    main()

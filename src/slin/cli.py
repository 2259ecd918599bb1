"""Command-line surface: check, lift, verify, simulate, xumama.

Exit codes form a small contract for scripting:
  0  success
  1  usage, parse, schema, or I/O problems, a closed stdout included
     (argparse's own usage errors too; -h exits 0)
  2  mathematical negative (condition fails, verification fails, no certificate)
  3  numeric divergence during integration

ANSI color is used when stdout is a terminal; SLIN_COLOR=0 forces it off,
SLIN_COLOR=1 forces it on.
"""

from __future__ import annotations

import argparse
import os
import sys

from .depgraph import build_skeleton, build_wdg, check_condition, scc_decomposition, skeleton_dot, wdg_dot
from .document import load_lift, save_lift
from .errors import (
    ConditionFailedError,
    DimensionMismatchError,
    DivergenceError,
    InternalInvariantError,
    ParseError,
    SchemaError,
    SlinError,
)
from .lift import superlinearize, xumama_check
from .sysparse import load_system
from .verify import _check_fits, _projection_error, simulate, verify_symbolic, write_trajectory_csv

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NEGATIVE = 2
EXIT_DIVERGED = 3


def _color_enabled() -> bool:
    flag = os.environ.get("SLIN_COLOR")
    if flag == "0":
        return False
    if flag == "1":
        return True
    return sys.stdout.isatty()


def _paint(text: str, code: str) -> str:
    if _color_enabled():
        return f"\x1b[{code}m{text}\x1b[0m"
    return text


def _pass(text: str = "PASS") -> str:
    return _paint(text, "32")


def _fail(text: str = "FAIL") -> str:
    return _paint(text, "31")


def cmd_check(args) -> int:
    sys_ = load_system(args.file)
    g = build_wdg(sys_)
    d = scc_decomposition(g)
    skeleton = build_skeleton(g, d)
    report = check_condition(g, d)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(wdg_dot(g))
            fh.write(skeleton_dot(skeleton, d, sys_.vars))
    if report.ok:
        print(f"{_pass()}: every intra-component edge weight is constant")
        return EXIT_OK
    print(f"{_fail()}: nonconstant weights inside strong components:")
    for w in report.witnesses:
        members = ", ".join(sys_.vars.names[v] for v in d.components[w.component])
        print(f"  {w.render()}  [component u{w.component + 1}: {members}]")
    return EXIT_NEGATIVE


def cmd_lift(args) -> int:
    sys_ = load_system(args.file)
    try:
        sl = superlinearize(sys_)
    except ConditionFailedError as exc:
        print(f"{_fail()}: the system does not satisfy the lifting condition:")
        for w in exc.report.witnesses:
            print(f"  {w.render()}")
        return EXIT_NEGATIVE
    if args.output:  # before the summary, so a failed write prints no verdict
        save_lift(sl, args.output)
    print(f"n = {sl.n}")
    print(f"m = {sl.m}")
    print(f"lifted dimension = {sl.dim}")
    print(f"symbolic verification: {_pass()}")
    if args.output:
        print(f"lift written to {args.output}")
    return EXIT_OK


def cmd_verify(args) -> int:
    sys_ = load_system(args.file)
    sl = load_lift(args.lift)
    report = verify_symbolic(sys_, sl)
    if report.ok:
        print(f"symbolic verification: {_pass()}")
        return EXIT_OK
    print(f"symbolic verification: {_fail()}")
    print(
        f"  row {report.failed_row} ({report.failed_name}): "
        f"residual {report.residual.render()}"
    )
    return EXIT_NEGATIVE


def cmd_simulate(args) -> int:
    sys_ = load_system(args.file)
    try:
        x0 = [float(v) for v in args.x0.split(",")]
    except ValueError:
        print("error: --x0 must be a comma-separated list of numbers", file=sys.stderr)
        return EXIT_USAGE
    if len(x0) != sys_.dim:
        print(
            f"error: --x0 has {len(x0)} entries, system has {sys_.dim} variables",
            file=sys.stderr,
        )
        return EXIT_USAGE

    sl = load_lift(args.lift) if args.lift else None
    if sl is not None:  # before anything is integrated
        _check_fits(sys_, sl)
    try:
        traj = simulate(sys_.compiled_field, x0, args.t, args.step)
        # The numeric check against the trajectory already integrated.
        error = None if sl is None else _projection_error(sl, traj)
    except ValueError as exc:  # bad --t, --step or --x0, or too many samples
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.output:  # before the verdict, so a failed write prints none
        with open(args.output, "w", encoding="utf-8") as fh:
            write_trajectory_csv(traj, sys_.vars.names, fh)
    if error is not None:
        print(f"max projection error on [0, {args.t:g}]: {error:.3e}")
    if args.output:
        print(f"trajectory written to {args.output} ({len(traj)} samples)")
    else:
        write_trajectory_csv(traj, sys_.vars.names, sys.stdout)
    return EXIT_OK


def cmd_xumama(args) -> int:
    sys_ = load_system(args.file)
    if args.max_n < 1:
        print("error: --max-n must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    cert = xumama_check(sys_, args.max_n)
    if cert is None:
        print(f"NOT FOUND up to N={args.max_n}")
        return EXIT_NEGATIVE
    alpha = ", ".join(str(a) for a in cert.alpha)
    print(f"N={cert.N}, alpha=[{alpha}]")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slin",
        description="Decide lifting of polynomial ODE systems to linear ones, "
        "construct the lift, and verify it symbolically and numerically.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide the cycle-weight condition")
    p.add_argument("file", help="system file")
    p.add_argument("--dot", metavar="OUT", help="write dependency + skeleton graphs as DOT")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("lift", help="construct a linear lift")
    p.add_argument("file", help="system file")
    p.add_argument("-o", "--output", metavar="OUT.json", help="write the lift document")
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("verify", help="symbolically verify a lift document")
    p.add_argument("file", help="system file")
    p.add_argument("lift", help="lift document (JSON)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="integrate the system (and compare to a lift)")
    p.add_argument("file", help="system file")
    p.add_argument("--lift", metavar="LIFT.json", help="also run the numeric comparison")
    p.add_argument("--x0", required=True, help="initial state, comma separated")
    p.add_argument("--t", type=float, default=2.0, help="horizon (default 2)")
    p.add_argument("--step", type=float, default=1e-3, help="RK4 step (default 1e-3)")
    p.add_argument("-o", "--output", metavar="OUT.csv", help="trajectory CSV path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("xumama", help="search for a Lie-iterate linear recurrence")
    p.add_argument("file", help="system file")
    p.add_argument("--max-n", type=int, default=10, help="largest order to try")
    p.set_defaults(func=cmd_xumama)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after -h
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return code
    except FileNotFoundError as exc:
        print(f"error: {exc.filename}: no such file", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, SchemaError, DimensionMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except BrokenPipeError:
        # The reader closed stdout early (`slin simulate ... | head -1`).
        # Point stdout at devnull so the flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    except OSError as exc:  # after BrokenPipeError, one of its subclasses
        where = f"{exc.filename}: " if exc.filename else ""
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return EXIT_USAGE
    except InternalInvariantError:
        raise  # a bug, not a negative answer: crash loudly
    except SlinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE


if __name__ == "__main__":
    sys.exit(main())

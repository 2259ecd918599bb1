"""Certification of lifts: exact symbolic check and numeric flow comparison.

The symbolic check is the authority: for every lifted coordinate, the Lie
derivative of its x-expansion along the original field must equal the
corresponding affine row, as an exact polynomial identity. That is the
differential form of the projection identity between the two flows, and it
implies agreement for all time.

The numeric check is advisory: it integrates both systems with the same
fixed-step RK4 grid (identical settings, so integration error is the only
residual) and reports the worst projection error over the samples. Nothing
symbolic is rebuilt per call: the system and the lift each keep their
compiled field (`numeric.compile_field` of its right-hand side) and the
lift its compiled expansions, from which the start state ``(x0, p(x0))`` is
one evaluation. That evaluation and the projection error are taken by the C
extension when it is built and by their pure twins in `numeric` without it,
with the same result bit for bit. So a call costs time in proportion to its
samples, not to the size of the lift's symbolic objects.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Optional, Sequence

from . import numeric
from .errors import DimensionMismatchError, DivergenceError
from .numeric import CompiledField, integrate
from .poly import Polynomial, lie_derivative
from .sysparse import PolySystem


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution: strictly increasing times, one state per sample."""

    times: tuple
    states: tuple

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise ValueError("one state per sample time is required")

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of the symbolic check; falsy on failure, with the culprit row."""

    ok: bool
    failed_row: Optional[int] = None  # 1-based lifted coordinate index
    failed_name: Optional[str] = None
    residual: Optional[Polynomial] = None

    def __bool__(self) -> bool:
        return self.ok


def verify_symbolic(sys: PolySystem, sl) -> VerifyReport:
    """Check L_f(q_i) == sum_j A_ij q_j + D_i for every lifted coordinate.

    q_i is coordinate i's expansion in x (the variable itself for i <= n).
    Fails fast with the first offending row and its exact residual. A lift
    over other variables raises DimensionMismatchError.
    """
    _check_fits(sys, sl)
    expansions = sl.x_expansions()
    for i in range(sl.dim):
        rhs = Polynomial.constant(sys.vars, sl.D[i])
        for j, a in enumerate(sl.A[i]):
            if a:
                rhs = rhs + expansions[j] * a
        residual = lie_derivative(expansions[i], sys.rhs) - rhs
        if not residual.is_zero():
            return VerifyReport(
                ok=False,
                failed_row=i + 1,
                failed_name=sl.var_names[i],
                residual=residual,
            )
    return VerifyReport(ok=True)


def _check_fits(sys: PolySystem, sl) -> None:
    """Raise DimensionMismatchError unless the lift's x is the system's variables, in order."""
    if sl.n != sys.dim or tuple(sl.var_names[: sl.n]) != sys.vars.names:
        raise DimensionMismatchError(
            f"lift is over {sl.var_names[: sl.n]}, system over {sys.vars.names}"
        )


def _integrate_checked(
    cf: CompiledField, x0: Sequence[float], t_end: float, step: float
) -> tuple:
    """RK4 states, flat with one double per component per sample, and the step count.

    Raises ValueError on a step that is not positive and finite, a horizon
    that is negative or not finite, a step count too large for a double, an
    initial state that is not finite, or samples that would not fit in
    memory, and DivergenceError (carrying the last finite sample time) when
    the state leaves the finite range.
    """
    if not (math.isfinite(step) and step > 0):
        raise ValueError("step must be positive and finite")
    if not math.isfinite(t_end):
        raise ValueError("t_end must be finite")
    if t_end < 0:
        raise ValueError("t_end must be nonnegative")
    if any(not math.isfinite(v) for v in x0):
        raise ValueError("initial state must be finite")
    steps = t_end / step
    if not math.isfinite(steps):
        raise ValueError(f"t_end / step is {steps}, not a finite step count")
    n_steps = int(round(steps))
    if (n_steps + 1) * cf.dim > 200_000_000:
        raise ValueError(
            f"{n_steps} steps of a {cf.dim}-dimensional system would not fit "
            "in memory; increase the step or shorten the horizon"
        )
    states, completed = integrate(cf, x0, step, n_steps)
    if completed < n_steps:
        raise DivergenceError(completed * step)
    return states, n_steps


def simulate(
    field: Sequence[Polynomial], x0: Sequence[float], t_end: float, step: float
) -> Trajectory:
    """Classic fixed-step RK4 sampled at t = 0, step, 2*step, ..., t_end.

    Raises DivergenceError (carrying the last finite sample time) when the
    state leaves the finite range.
    """
    return _simulate(field, x0, t_end, step)[0]


def _simulate(field: Sequence[Polynomial], x0, t_end, step) -> tuple:
    """`simulate`'s trajectory and the flat states it groups into samples."""
    states, n_steps = _integrate_checked(numeric.compile_field(field), x0, t_end, step)
    dim = len(field)
    times = tuple(k * step for k in range(n_steps + 1))
    # Component i of every sample is a strided slice of the flat states.
    grouped = tuple(zip(*(states[i::dim] for i in range(dim))))
    return Trajectory(times, grouped), states


def verify_numeric(
    sys: PolySystem, sl, x0: Sequence[float], t_end: float, step: float
) -> float:
    """Max projection error between the two flows on a shared RK4 grid.

    Integrates dx/dt = f(x) from x0 and dz/dt = A z + D from (x0, p(x0)) and
    returns max over samples of the infinity norm of the first n coordinates
    of z minus x. The fields are ``sys.compiled_field`` and
    ``sl.compiled_field``, each compiled on first use and kept. A lift over
    other variables raises DimensionMismatchError before anything is
    integrated.
    """
    _check_fits(sys, sl)
    xs, _ = _integrate_checked(sys.compiled_field, x0, t_end, step)
    return _projection_error(sl, xs, sys.dim, x0, t_end, step)


def _projection_error(
    sl, xs: array, n: int, x0: Sequence[float], t_end: float, step: float
) -> float:
    """`verify_numeric` given the original flow already integrated.

    `xs` holds the flat states, `n` doubles per sample, of the RK4 run of
    the n-dimensional system from `x0` on the same grid, as the kernel made
    them. The caller has checked that the lift fits the system.
    """
    z0 = array("d", x0)
    z0 += numeric.evaluate_compiled(sl.compiled_expansions, z0)
    zs, _ = _integrate_checked(sl.compiled_field, z0, t_end, step)
    return numeric.PROJECTION_ERROR(zs, sl.dim, xs, n)


# Rows per `fh.write` on the compiled path, so that no single string holds a
# long trajectory's whole text.
_CSV_CHUNK_ROWS = 4096


def write_trajectory_csv(traj: Trajectory, names: Sequence[str], fh) -> None:
    """CSV with header ``t,<var1>,...``; every value rendered as its ``repr``.

    The text is the same on either backend: the compiled row formatter
    reproduces ``repr`` byte for byte.
    """
    fh.write("t," + ",".join(names) + "\n")
    format_rows = numeric.FORMAT_ROWS
    if format_rows is None:
        fh.writelines(
            ",".join(map(repr, (t, *state))) + "\n"
            for t, state in zip(traj.times, traj.states)
        )
        return
    for start in range(0, len(traj), _CSV_CHUNK_ROWS):
        fh.write(format_rows(traj.times, traj.states, start, start + _CSV_CHUNK_ROWS))

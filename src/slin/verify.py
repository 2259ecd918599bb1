"""Certification of lifts: exact symbolic check and numeric flow comparison.

The symbolic check is the authority: for every lifted coordinate, the Lie
derivative of its x-expansion along the original field must equal the
corresponding affine row, as an exact polynomial identity. That is the
differential form of the projection identity between the two flows, and it
implies agreement for all time.

The numeric check is advisory: it integrates both systems with fixed-step
RK4 on the same grid and reports the worst projection error over the
samples. The original system is stepped by RK4's four stages and the lift,
being affine, by RK4's step map (see `numeric`), the same method up to
roundoff, so integration error plus roundoff is the only residual. Nothing
symbolic is rebuilt per call: the system and the lift each keep their
compiled field (`numeric.compile_field` of its right-hand side) and the
lift its compiled expansions, from which the start state ``(x0, p(x0))`` is
one evaluation. That evaluation and the projection error are taken by the C
extension when it is built and by their pure twins in `numeric` without it,
with the same result bit for bit. So a call costs time in proportion to its
samples, not to the size of the lift's symbolic objects.

A `Trajectory` is the flat buffer the RK4 kernel wrote, with its step and
dimension. The CSV rows (`write_trajectory_csv`) and the projection error
are taken from that buffer; `times` and `states` are derived from it on
request, so no sample is regrouped on the way from the kernel to the CSV.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from . import numeric
from .errors import DimensionMismatchError, DivergenceError, SpaceMismatchError
from .numeric import CompiledField, integrate
from .poly import Polynomial, lie_derivative
from .sysparse import PolySystem


@dataclass(frozen=True)
class Trajectory:
    """Sampled RK4 solution as the kernel wrote it: sample k is at
    t = k * step, its state the `dim` doubles flat[k * dim : (k + 1) * dim].

    `flat` must be an ``array('d')``, the buffer both backends' row
    formatters read (TypeError otherwise).
    """

    step: float
    dim: int
    flat: array

    def __post_init__(self):
        if not (isinstance(self.flat, array) and self.flat.typecode == "d"):
            raise TypeError("flat must be an array of typecode 'd'")
        if self.dim < 1 or len(self.flat) % self.dim:
            raise ValueError("flat must hold whole samples of dim >= 1 doubles")

    def __len__(self) -> int:
        return len(self.flat) // self.dim

    @property
    def times(self) -> tuple:
        return tuple(k * self.step for k in range(len(self)))

    @property
    def states(self) -> tuple:
        """One tuple of `dim` floats per sample."""
        # Component i of every sample is a strided slice of the flat states.
        return tuple(zip(*(self.flat[i :: self.dim] for i in range(self.dim))))


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
    Each row's residual ``L_f(q_i) - sum_j A_ij q_j - D_i`` is formed in one
    term dict, starting from the Lie derivative's terms and subtracting each
    ``A_ij q_j`` and then ``D_i`` term by term, a key whose sum is zero
    popped; a `Polynomial` is built only for a row that fails. The check
    shares no code with the construction beyond `Polynomial` and
    `lie_derivative`. Fails fast with the first offending row and its exact
    residual. A lift over other variables raises DimensionMismatchError, and
    an expansion over other variables SpaceMismatchError.
    """
    _check_fits(sys, sl)
    expansions = sl.x_expansions()
    for name, q in zip(sl.var_names, expansions):
        if q.space != sys.vars:
            raise SpaceMismatchError(f"the expansion of {name} is not over {sys.vars.names}")
    zero = (0,) * sys.dim
    for i in range(sl.dim):
        residual = dict(lie_derivative(expansions[i], sys.rhs).terms)
        for j, a in enumerate(sl.A[i]):
            if a:
                for mono, coeff in expansions[j].terms.items():
                    _subtract(residual, mono, a * coeff)
        if sl.D[i]:
            _subtract(residual, zero, sl.D[i])
        if residual:
            return VerifyReport(
                ok=False,
                failed_row=i + 1,
                failed_name=sl.var_names[i],
                residual=Polynomial(sys.vars, residual),
            )
    return VerifyReport(ok=True)


def _subtract(terms: dict, mono: tuple, coeff) -> None:
    """``terms[mono] -= coeff`` in place, popping the key if it reaches zero."""
    acc = terms.get(mono, 0) - coeff
    if acc:
        terms[mono] = acc
    else:
        terms.pop(mono, None)


def _check_fits(sys: PolySystem, sl) -> None:
    """Raise DimensionMismatchError unless the lift's x is the system's variables, in order."""
    if sl.n != sys.dim or tuple(sl.var_names[: sl.n]) != sys.vars.names:
        raise DimensionMismatchError(
            f"lift is over {sl.var_names[: sl.n]}, system over {sys.vars.names}"
        )


def _integrate_checked(
    cf: CompiledField, x0: Sequence[float], t_end: float, step: float
) -> Trajectory:
    """RK4 samples at t = 0, step, ..., t_end; see `_run` for the rest.

    Raises ValueError on a step that is not positive and finite, a horizon
    that is negative or not finite, or one that is not a whole number of
    steps (to a relative 1e-9, which absorbs the rounding of ``t_end /
    step``).
    """
    if not (math.isfinite(step) and step > 0):
        raise ValueError("step must be positive and finite")
    if not math.isfinite(t_end):
        raise ValueError("t_end must be finite")
    if t_end < 0:
        raise ValueError("t_end must be nonnegative")
    steps = t_end / step
    if not math.isfinite(steps):
        raise ValueError(f"t_end / step is {steps}, not a finite step count")
    n_steps = round(steps)
    if not math.isclose(steps, n_steps, rel_tol=1e-9):
        raise ValueError(f"t_end {t_end:g} is not a whole number of steps of {step:g}")
    # A double, so that each backend's row formatter gets the same k * step.
    return _run(cf, x0, float(step), n_steps)


def _run(
    cf: CompiledField,
    y0: Sequence[float],
    step: float,
    n_steps: int,
    keep: Optional[int] = None,
) -> Trajectory:
    """`n_steps` RK4 steps of `step` on a compiled field from `y0`, keeping
    the first `keep` coordinates of each sample (all of them by default).

    Raises ValueError on a start state that is not finite or on more stored
    doubles than fit in memory, and DivergenceError (carrying the last
    finite sample time) when the state leaves the finite range, whether the
    coordinate that left it is kept or not.
    """
    keep = cf.dim if keep is None else keep
    if not all(map(math.isfinite, y0)):
        raise ValueError("initial state must be finite")
    if (n_steps + 1) * keep > 200_000_000:
        kept = f"a {cf.dim}-dimensional system" if keep == cf.dim else (
            f"{cf.dim} coordinates keeping {keep} of them"
        )
        raise ValueError(
            f"{n_steps} steps of {kept} would not fit in memory; increase the "
            "step or shorten the horizon"
        )
    flat, completed = integrate(cf, y0, step, n_steps, keep=keep)
    if completed < n_steps:
        raise DivergenceError(completed * step)
    return Trajectory(step, keep, flat)


def simulate(
    field: Union[Sequence[Polynomial], CompiledField],
    x0: Sequence[float],
    t_end: float,
    step: float,
) -> Trajectory:
    """Classic fixed-step RK4 sampled at t = 0, step, 2*step, ..., t_end.

    `field` is the right-hand side, as polynomials or already compiled (a
    system's ``compiled_field``, which is compiled once and kept). Raises
    ValueError on bad numbers (see `_integrate_checked`) and DivergenceError
    (carrying the last finite sample time) when the state leaves the finite
    range.
    """
    if not isinstance(field, CompiledField):
        field = numeric.compile_field(field)
    return _integrate_checked(field, x0, t_end, step)


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
    return _projection_error(sl, _integrate_checked(sys.compiled_field, x0, t_end, step))


def _projection_error(sl, traj: Trajectory) -> float:
    """`verify_numeric` given the original flow already integrated.

    The lift is integrated on the trajectory's own grid, ``len(traj) - 1``
    steps of ``traj.step``, from its first sample x0 and p(x0), keeping
    only its first n coordinates, the ones compared. The caller has checked
    that the lift fits the system.
    """
    n = traj.dim
    z0 = traj.flat[:n]
    z0 += numeric.evaluate_compiled(sl.compiled_expansions, z0)
    zs = _run(sl.compiled_field, z0, traj.step, len(traj) - 1, keep=n)
    return numeric.PROJECTION_ERROR(zs.flat, n, traj.flat, n)


# Rows per `fh.write`, so that no single string holds a long trajectory's
# whole text.
_CSV_CHUNK_ROWS = 4096


def write_trajectory_csv(traj: Trajectory, names: Sequence[str], fh) -> None:
    """CSV with header ``t,<var1>,...``; every value rendered as its ``repr``.

    The rows come from `numeric.FORMAT_ROWS` over the trajectory's flat
    buffer, `_CSV_CHUNK_ROWS` at a time; the text is the same on either
    backend.
    """
    fh.write("t," + ",".join(names) + "\n")
    for start in range(0, len(traj), _CSV_CHUNK_ROWS):
        stop = start + _CSV_CHUNK_ROWS
        fh.write(numeric.FORMAT_ROWS(traj.flat, traj.dim, traj.step, start, stop))

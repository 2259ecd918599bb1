"""Double-precision integration kernels for polynomial vector fields.

A vector field is flattened once into CSR-style arrays (`compile_field`) and
then stepped with classic fixed-step RK4 (`integrate`). A system and a lift
each compile their field once (`PolySystem.compiled_field`,
`SuperLinearization.compiled_field`, the latter from the row polynomials
``A z + D``) and `verify.verify_numeric` integrates them from there.

The same arrays also hold a polynomial map that is not square
(`compile_map`), such as a lift's expansions, m polynomials over n
variables. Every map is written in graded-lex descending term order, the
order `Polynomial.evaluate` sums in, so `evaluate_compiled` evaluates it
bit for bit as `Polynomial.evaluate` evaluates each polynomial; that is how
the start state ``(x0, p(x0))`` of a lift is computed.

The stepping kernel exists twice with identical semantics: a C extension
(`slin._rk4`, hand-written against the CPython API and built by setuptools
when a C compiler is present) and the pure-Python twin below. Both perform
the same IEEE double operations in the same order, so their trajectories
agree bit for bit. The same holds for the evaluation of a compiled map
(`EVAL_INTO`, pure twin `_eval_into`) and for the projection error between
two flat trajectories (`PROJECTION_ERROR`, pure twin
`projection_error_python`).

The C side evaluates a map over a flat term stream, derived from the CSR
arrays once per call: each term's multiplication count and one list of the
state indices it multiplies in, a factor ``x^e`` spelled as e copies of x's
index; each component sums its terms in a register. The pure twin
`_eval_into` walks each term's factors and each factor's exponent instead.
Both multiply and add the same values in the same order, so their results
are the same bits.

An affine field, every term of total degree at most 1 (a lift's
``A z + D``, or a linear system), is stepped by RK4's step map
``y -> y + (R(hA) - I) y + c`` instead of its four stages: both kernels
build the map once per call from their own stage arithmetic and take one
sparse product per step (`rk4_kernel_python`). The C side orders the map's
rows by length and sums them four at a time, one register each, padding a
shorter row with -0.0 times the slot, which changes no sum; the twin sums
row by row. Each row is summed from 0.0 by ascending column on both, so the
results are the same bits. It is the same RK4 step up to roundoff, so an
affine field's trajectory differs from its staged one in the last bits, the
same on either backend; a nonlinear field's is unchanged.

Both kernels can store only the first `keep` coordinates of each sample
(`integrate(..., keep=)`) while they check every coordinate for finiteness;
`verify.verify_numeric` keeps the lift's first n, the ones it compares.

The CSV text of a trajectory's rows has a pair of its own (`FORMAT_ROWS`,
pure twin `format_rows_python`, used by `verify.write_trajectory_csv`):
both read the flat buffer the kernel wrote, `dim` doubles per sample, and
render every value, the sample time ``k * step`` included, byte for byte
as ``repr`` renders it. The C side finds each value's shortest digits
without dividing by a variable power of ten, counts them from their bit
length and writes them eight at a time, straight into the ASCII string it
returns.

The extension is picked at import when present with every one of these
functions, and `BACKEND` reports the backend in use: ``"c"`` or
``"python"``. A stale build that lacks one of them selects the pure twins of
all of them.
Set ``SLIN_PURE_PYTHON=1`` to force the fallback (useful for benchmarking
and debugging).
"""

from __future__ import annotations

import math
import operator
import os
from array import array
from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence, Tuple

from .poly import Polynomial, grlex_key


@dataclass(frozen=True)
class CompiledField:
    """Flattened sparse polynomials: a vector field, or any polynomial map.

    `dim` is the number of components; a field the kernel steps has as many
    variables as components. Component c owns terms
    comp_ptr[c]:comp_ptr[c+1]; term t has coefficient
    coeff[t] and factors term_ptr[t]:term_ptr[t+1], each factor being
    variable fvar[f] raised to fexp[f] >= 0 (by repeated multiplication, so
    overflow saturates to inf instead of raising).

    This layout is the interface to both backends. Both reject a negative
    exponent with ValueError, once per call. The C side turns the layout,
    once per call, into the flat term stream of the module docstring, and
    also rejects more than 2**31 - 1 multiplications in one evaluation.
    """

    dim: int
    comp_ptr: array
    coeff: array
    term_ptr: array
    fvar: array
    fexp: array


def compile_field(field: Sequence[Polynomial]) -> CompiledField:
    """A square field in CSR form, as `compile_map` writes it."""
    if any(len(p.space) != len(field) for p in field):
        raise ValueError("field must be square: one component per variable")
    return compile_map(field)


def compile_map(polys: Sequence[Polynomial]) -> CompiledField:
    """Polynomials in CSR form, for `evaluate_compiled` and the kernel.

    ``dim`` is the number of polynomials. Each writes its terms in graded-lex
    descending order, the order in which `Polynomial.evaluate` sums them, so
    equal polynomials compile to the same arrays whatever their dict order,
    and evaluating the result takes the same double operations in the same
    order as `Polynomial.evaluate`.
    """
    comp_ptr = array("i", [0])
    coeff = array("d")
    term_ptr = array("i", [0])
    fvar = array("i")
    fexp = array("i")
    for p in polys:
        for mono in sorted(p.terms, key=grlex_key, reverse=True):
            c = p.terms[mono]
            # Rounded once, as float(Fraction) and Polynomial.evaluate round it.
            coeff.append(c.numerator / c.denominator)
            for var, e in enumerate(mono):
                if e:
                    fvar.append(var)
                    fexp.append(e)
            term_ptr.append(len(fvar))
        comp_ptr.append(len(coeff))
    return CompiledField(len(polys), comp_ptr, coeff, term_ptr, fvar, fexp)


def _check_exponents(fexp) -> None:
    if min(fexp, default=0) < 0:
        raise ValueError("compiled field exponents must be nonnegative")


def _eval_into(comp_ptr, coeff, term_ptr, fvar, fexp, y, res):
    """Write the len(res) components of a compiled map at point `y` into `res`."""
    _check_exponents(fexp)
    _evaluate(comp_ptr, coeff, term_ptr, fvar, fexp, y, res)


def _evaluate(comp_ptr, coeff, term_ptr, fvar, fexp, y, res):
    """`_eval_into` on exponents already checked."""
    for c in range(len(res)):
        acc = 0.0
        for t in range(comp_ptr[c], comp_ptr[c + 1]):
            v = coeff[t]
            for f in range(term_ptr[t], term_ptr[t + 1]):
                x = y[fvar[f]]
                for _ in range(fexp[f]):
                    v *= x
            acc += v
        res[c] = acc


def _increment(field, y, step, inc):
    """Write RK4's increment ``(step/6)(k1 + 2 k2 + 2 k3 + k4)`` from the
    state `y` into `inc`, `field(point, res)` writing the field at a point.

    ``y[len(inc)]``, the slot that the constant terms of a slot layout read
    (`_slot_layout`), carries through the stages unchanged.
    """
    dim = len(inc)
    half = 0.5 * step
    sixth = step / 6.0
    slot = y[dim:]
    k1 = [0.0] * dim
    k2 = [0.0] * dim
    k3 = [0.0] * dim
    k4 = [0.0] * dim
    field(y, k1)
    field([y[i] + half * k1[i] for i in range(dim)] + slot, k2)
    field([y[i] + half * k2[i] for i in range(dim)] + slot, k3)
    field([y[i] + step * k3[i] for i in range(dim)] + slot, k4)
    for i in range(dim):
        inc[i] = sixth * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i])


def _slot_layout(term_ptr, fvar, fexp, dim):
    """An affine field's terms as one factor each, a constant term reading the
    slot at index `dim`: ``(term_ptr, fvar, fexp)`` to evaluate with the
    field's own comp_ptr and coeff. None unless every term multiplies at most
    one state value (and `dim` fits the C kernel's int column indices)."""
    if dim >= 2**31 - 1:
        return None
    src = array("i")
    for t in range(len(term_ptr) - 1):
        factors = range(term_ptr[t], term_ptr[t + 1])
        degree = sum(fexp[f] for f in factors)
        if degree > 1:
            return None
        src.append(next(fvar[f] for f in factors if fexp[f]) if degree else dim)
    return array("i", range(len(src) + 1)), src, array("i", [1]) * len(src)


def _step_map(field, dim, step):
    """RK4's step map of an affine field, `field` evaluating its slot layout:
    row i as ``(column, value)`` pairs by ascending column, with column `dim`
    reading the slot fixed at 1.0. Column j is `_increment` from the unit
    vector e_j of ``dim + 1`` values; exact zeros are left out."""
    rows = [[] for _ in range(dim)]
    z = [0.0] * (dim + 1)
    inc = [0.0] * dim
    for j in range(dim + 1):
        z[j] = 1.0
        _increment(field, z, step, inc)
        z[j] = 0.0
        for i in range(dim):
            if inc[i] != 0.0:
                rows[i].append((j, inc[i]))
    return rows


def _apply_step_map(rows, y, inc):
    """``inc = M (y, 1)``; ``y[len(inc)]`` holds the slot 1.0."""
    for i, row in enumerate(rows):
        acc = 0.0
        for j, v in row:
            acc += v * y[j]
        inc[i] = acc


def rk4_kernel_python(
    comp_ptr, coeff, term_ptr, fvar, fexp, y, step, n_steps, out, keep=None
) -> int:
    """Pure-Python RK4 stepping; mirrors the C kernel operation for operation.

    `y` is the start state (not modified). Sample k's first `keep`
    coordinates, all ``dim = len(y)`` of them when `keep` is None, go to
    ``out[k * keep : (k + 1) * keep]``, so `out` has room for
    (n_steps + 1) * keep doubles. Every coordinate is checked for
    finiteness, stored or not. Returns the number of completed steps with a
    finite state; fewer than n_steps means divergence. A negative exponent,
    `keep` outside 0..dim, a negative `n_steps` and an `out` too short are
    ValueErrors.

    A field whose every term has total degree at most 1 is affine,
    ``y' = A y + b``, and on it one RK4 step is the affine map
    ``y + (R(hA) - I) y + c``, R being RK4's stability polynomial. Such a
    field is stepped by that map (`_step_map`), built once per call from the
    stages themselves and applied as one sparse product per step. It is the
    same step up to roundoff, so its last bits differ from the stages'. A
    map entry that overflows makes its row of the first step non-finite, so
    such a field diverges at step 0 whatever its start state. Every other
    field is stepped by its four stages (`_increment`).
    """
    dim = len(y)
    keep = dim if keep is None else operator.index(keep)
    if not 0 <= keep <= dim:
        raise ValueError(f"keep must be between 0 and the state's {dim} coordinates")
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    if len(out) < (n_steps + 1) * keep:
        raise ValueError(
            f"out holds {len(out)} doubles, {n_steps} steps keeping {keep} "
            "coordinates need more"
        )
    _check_exponents(fexp)
    y = list(y) + [1.0]  # the slot a step map's last column reads
    lost = [0.0] * dim  # Kahan compensation per component
    inc = [0.0] * dim
    field = partial(_evaluate, comp_ptr, coeff, term_ptr, fvar, fexp)
    slots = _slot_layout(term_ptr, fvar, fexp, dim)
    if slots is not None:
        rows = _step_map(partial(_evaluate, comp_ptr, coeff, *slots), dim, step)
    out[0:keep] = array("d", y[:keep])
    for s in range(n_steps):
        if slots is None:
            _increment(field, y, step, inc)
        else:
            _apply_step_map(rows, y, inc)
        ok = True
        for i in range(dim):
            # Compensated accumulation keeps the roundoff floor of long
            # integrations below the truncation error's 4th-order decay.
            delta = inc[i] + lost[i]
            t = y[i] + delta
            lost[i] = delta - (t - y[i])
            y[i] = t
            if not math.isfinite(t):
                ok = False
        if not ok:
            return s
        base = (s + 1) * keep
        out[base : base + keep] = array("d", y[:keep])
    return n_steps


def projection_error_python(zs, dim_z, xs, n) -> float:
    """Largest ``|z_i - x_i|`` over ``i < n`` and the samples of two flat
    trajectories, `zs` with `dim_z` doubles per sample and `xs` with `n`."""
    return max(
        (
            max(map(abs, map(operator.sub, zs[i::dim_z], xs[i::n])))
            for i in range(n)
        ),
        default=0.0,
    )


def format_rows_python(flat, dim, step, start, stop) -> str:
    """CSV rows start:stop of a flat trajectory, `dim` doubles per sample:
    one ``t,<state...>`` line per sample k, with t = k * step, every value
    rendered by ``repr``. Rows past the last sample are left out."""
    if dim < 1 or len(flat) % dim:
        raise ValueError("flat must hold whole samples of dim >= 1 doubles")
    return "".join(
        ",".join(map(repr, (k * step, *flat[k * dim : (k + 1) * dim]))) + "\n"
        for k in range(max(start, 0), min(stop, len(flat) // dim))
    )


_PURE = (rk4_kernel_python, format_rows_python, _eval_into, projection_error_python, "python")


def _select_backend():
    if os.environ.get("SLIN_PURE_PYTHON") == "1":
        return _PURE
    try:
        # All or nothing: a stale build without one of them runs none of them.
        from ._rk4 import eval_into, format_rows, projection_error, rk4_kernel
    except ImportError:
        return _PURE
    return rk4_kernel, format_rows, eval_into, projection_error, "c"


RK4_KERNEL, FORMAT_ROWS, EVAL_INTO, PROJECTION_ERROR, BACKEND = _select_backend()


def integrate(
    cf: CompiledField,
    y0: Sequence[float],
    step: float,
    n_steps: int,
    kernel=None,
    keep: Optional[int] = None,
) -> Tuple[array, int]:
    """RK4 on a compiled field with `kernel`, by default the selected backend's.

    Returns the flat states, the first `keep` coordinates of each sample
    (all `cf.dim` of them by default), and the number of completed steps;
    see `rk4_kernel_python` for the contract.
    """
    if len(y0) != cf.dim:
        raise ValueError(f"state has {len(y0)} entries, field has {cf.dim}")
    kernel = kernel or RK4_KERNEL
    keep = cf.dim if keep is None else keep
    y = array("d", [float(v) for v in y0])
    out = array("d", [0.0]) * ((n_steps + 1) * keep)
    completed = kernel(
        cf.comp_ptr, cf.coeff, cf.term_ptr, cf.fvar, cf.fexp, y, step, n_steps, out, keep
    )
    if completed == n_steps:
        return out, completed
    return out[: (completed + 1) * keep], completed


def evaluate_compiled(cf: CompiledField, point: Sequence[float]) -> array:
    """The `cf.dim` values of a compiled map (`compile_map`) at `point`."""
    res = array("d", [0.0]) * cf.dim
    EVAL_INTO(
        cf.comp_ptr, cf.coeff, cf.term_ptr, cf.fvar, cf.fexp, array("d", point), res
    )
    return res

"""Double-precision integration kernels for polynomial vector fields.

A vector field is flattened once into CSR-style arrays (`compile_field`) and
then stepped with classic fixed-step RK4 (`integrate`). A system and a lift
each compile their field once (`PolySystem.compiled_field`,
`SuperLinearization.compiled_field`, the latter from the row polynomials
``A z + D``) and `verify.verify_numeric` integrates them from there.

The same arrays also hold a polynomial map that is not square
(`compile_map`), such as a lift's expansions, m polynomials over n
variables. `evaluate_compiled` evaluates it bit for bit as
`Polynomial.evaluate` evaluates each polynomial; that is how the start state
``(x0, p(x0))`` of a lift is computed.

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
index; each component sums its terms in a register. The stream replaced a
walk over each term's factors and each factor's exponent, which the pure
twin `_eval_into` still takes: on the one-factor terms of a lift those two
inner loops of varying trip count cost several times the arithmetic, and
the stream takes about half the time per step there. Both multiply and add
the same values in the same order, so their results are the same bits.

The extension also formats trajectory rows as CSV text (`FORMAT_ROWS`, used by
`verify.write_trajectory_csv`), every value byte for byte equal to ``repr``;
without it the rows are written with ``repr`` itself.

The extension is picked at import when present with every one of these
functions, and `BACKEND` reports the backend in use: ``"c"`` or
``"python"``. A stale build that lacks one of them selects the pure twins of
all of them; `FORMAT_ROWS` is None exactly when `BACKEND` is ``"python"``.
Set ``SLIN_PURE_PYTHON=1`` to force the fallback (useful for benchmarking
and debugging).
"""

from __future__ import annotations

import math
import operator
import os
from array import array
from dataclasses import dataclass
from typing import Sequence, Tuple

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

    This layout is the interface to both backends. The C side turns it,
    once per call, into the flat term stream of the module docstring, and
    rejects a negative exponent, or more than 2**31 - 1 multiplications in
    one evaluation, with ValueError.
    """

    dim: int
    comp_ptr: array
    coeff: array
    term_ptr: array
    fvar: array
    fexp: array


def compile_field(field: Sequence[Polynomial]) -> CompiledField:
    """A square field in CSR form, each component's terms in graded-lex
    descending order."""
    dim = len(field)
    if any(len(p.space) != dim for p in field):
        raise ValueError("field must be square: one component per variable")
    return _flatten(field, lambda p: sorted(p.terms, key=grlex_key, reverse=True))


def compile_map(polys: Sequence[Polynomial]) -> CompiledField:
    """Polynomials over one space in CSR form, for `evaluate_compiled`.

    ``dim`` is the number of polynomials. Each keeps its terms in dict order,
    so evaluating the result takes the same double operations in the same
    order as `Polynomial.evaluate`.
    """
    return _flatten(polys, lambda p: p.terms)


def _flatten(polys, term_order) -> CompiledField:
    comp_ptr = array("i", [0])
    coeff = array("d")
    term_ptr = array("i", [0])
    fvar = array("i")
    fexp = array("i")
    for p in polys:
        for mono in term_order(p):
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


def _eval_into(comp_ptr, coeff, term_ptr, fvar, fexp, y, res):
    """Write the len(res) components of a compiled map at point `y` into `res`."""
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


def rk4_kernel_python(
    comp_ptr, coeff, term_ptr, fvar, fexp, y, step, n_steps, out
) -> int:
    """Pure-Python RK4 stepping; mirrors the C kernel operation for operation.

    `y` is the start state (not modified), `out` has room for
    (n_steps + 1) * dim doubles. Returns the number of completed steps with a
    finite state; fewer than n_steps means divergence.
    """
    dim = len(y)
    y = list(y)
    lost = [0.0] * dim  # Kahan compensation per component
    k1 = [0.0] * dim
    k2 = [0.0] * dim
    k3 = [0.0] * dim
    k4 = [0.0] * dim
    ytmp = [0.0] * dim
    half = 0.5 * step
    sixth = step / 6.0
    out[0:dim] = array("d", y)
    for s in range(n_steps):
        _eval_into(comp_ptr, coeff, term_ptr, fvar, fexp, y, k1)
        for i in range(dim):
            ytmp[i] = y[i] + half * k1[i]
        _eval_into(comp_ptr, coeff, term_ptr, fvar, fexp, ytmp, k2)
        for i in range(dim):
            ytmp[i] = y[i] + half * k2[i]
        _eval_into(comp_ptr, coeff, term_ptr, fvar, fexp, ytmp, k3)
        for i in range(dim):
            ytmp[i] = y[i] + step * k3[i]
        _eval_into(comp_ptr, coeff, term_ptr, fvar, fexp, ytmp, k4)
        ok = True
        for i in range(dim):
            # Compensated accumulation keeps the roundoff floor of long
            # integrations below the truncation error's 4th-order decay.
            delta = sixth * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]) + lost[i]
            t = y[i] + delta
            lost[i] = delta - (t - y[i])
            y[i] = t
            if not math.isfinite(t):
                ok = False
        if not ok:
            return s
        base = (s + 1) * dim
        out[base : base + dim] = array("d", y)
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


_PURE = (rk4_kernel_python, None, _eval_into, projection_error_python, "python")


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
    cf: CompiledField, y0: Sequence[float], step: float, n_steps: int, kernel=None
) -> Tuple[array, int]:
    """RK4 on a compiled field with `kernel`, by default the selected backend's.

    Returns the flat states, `cf.dim` doubles per sample, and the number of
    completed steps; see `rk4_kernel_python` for the contract.
    """
    if len(y0) != cf.dim:
        raise ValueError(f"state has {len(y0)} entries, field has {cf.dim}")
    kernel = kernel or RK4_KERNEL
    y = array("d", [float(v) for v in y0])
    out = array("d", [0.0]) * ((n_steps + 1) * cf.dim)
    completed = kernel(
        cf.comp_ptr, cf.coeff, cf.term_ptr, cf.fvar, cf.fexp, y, step, n_steps, out
    )
    if completed == n_steps:
        return out, completed
    return out[: (completed + 1) * cf.dim], completed


def evaluate_compiled(cf: CompiledField, point: Sequence[float]) -> array:
    """The `cf.dim` values of a compiled map (`compile_map`) at `point`."""
    res = array("d", [0.0]) * cf.dim
    EVAL_INTO(
        cf.comp_ptr, cf.coeff, cf.term_ptr, cf.fvar, cf.fexp, array("d", point), res
    )
    return res

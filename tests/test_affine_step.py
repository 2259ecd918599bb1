"""RK4 on affine fields: the step map against oracles that share no code with `numeric`.

A field whose every term has total degree at most 1 is affine, ``y' = A y + b``,
and the kernels step it by RK4's step map, one sparse product per step,
instead of its four stages. These tests hold that map to the exact RK4 step
in rational arithmetic, hold `verify_numeric` to a plain stage RK4 written
here, and hold the two backends to each other: on affine fields, on fields
one nonlinear term away from affine (which both step by stages), and on the
divergence step of a map that overflows.
"""

import math
from array import array
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slin import numeric, superlinearize, verify_numeric
from slin.numeric import CompiledField, rk4_kernel_python

from helpers import (
    cascade,
    csr_arrays,
    five_state,
    random_affine_terms,
    terms_to_compiled,
    two_state,
)

KERNELS = pytest.mark.parametrize(
    "kernel", [numeric.RK4_KERNEL, rk4_kernel_python], ids=["selected", "pure"]
)


def _run(kernel, cf, y0, step, n_steps):
    """The kernel's samples and completed steps, called on the arrays themselves."""
    out = array("d", [0.0]) * ((n_steps + 1) * cf.dim)
    done = kernel(*csr_arrays(cf), array("d", y0), step, n_steps, out)
    return out[: (done + 1) * cf.dim], done


# --- one step against the exact RK4 step --------------------------------------

# An error bound in units of 2**-53 times the magnitude of the step, the exact
# RK4 step taken with |A|, |b| and |y|. A first-order count of the roundings
# on the longest path of one step of a 4-dimensional field (four stages, the
# increment, the sparse product and the update) gives about 45; the worst
# seen over 6000 random fields of this shape was 3.5.
STEP_ULPS = 64

coefficients = st.one_of(st.just(0.0), st.floats(1 / 64, 4.0), st.floats(-4.0, -1 / 64))


@st.composite
def affine_fields(draw):
    """``(A, b, cf)``: a field of 1 to 4 components, each row zero, constant
    only, or linear terms with an optional constant, written by hand."""
    dim = draw(st.integers(1, 4))
    A = [[0.0] * dim for _ in range(dim)]
    b = [0.0] * dim
    terms = []
    for i in range(dim):
        kind = draw(st.sampled_from(("zero", "constant", "linear")))
        row = []
        if kind == "linear":
            for j, a in sorted(draw(st.dictionaries(st.integers(0, dim - 1), coefficients)).items()):
                A[i][j] = a
                row.append((a, [(j, 1)]))
        if kind == "constant" or (kind == "linear" and draw(st.booleans())):
            b[i] = draw(coefficients)
            row.append((b[i], []))
        terms.append(row)
    return A, b, terms_to_compiled(terms)


def _exact_rk4_step(A, b, y, h):
    """One classical RK4 step of y' = A y + b in rational arithmetic."""
    n = len(y)

    def f(v):
        return [sum(A[i][j] * v[j] for j in range(n)) + b[i] for i in range(n)]

    k1 = f(y)
    k2 = f([y[i] + h / 2 * k1[i] for i in range(n)])
    k3 = f([y[i] + h / 2 * k2[i] for i in range(n)])
    k4 = f([y[i] + h * k3[i] for i in range(n)])
    return [y[i] + h / 6 * (k1[i] + 2 * k2[i] + 2 * k3[i] + k4[i]) for i in range(n)]


@KERNELS
@settings(max_examples=150, deadline=None)
@given(affine_fields(), st.floats(1e-3, 1.0))
def test_one_step_equals_the_exact_rk4_step(kernel, field, step):
    A, b, cf = field
    dim = cf.dim
    exact_A = [[Fraction(a) for a in row] for row in A]
    abs_A = [[abs(a) for a in row] for row in exact_A]
    h = Fraction(step)
    # from each unit vector e_j and from the zero state
    for j in range(dim + 1):
        y0 = [1.0 if i == j else 0.0 for i in range(dim)]
        states, done = _run(kernel, cf, y0, step, 1)
        assert done == 1
        y = [Fraction(v) for v in y0]
        exact = _exact_rk4_step(exact_A, [Fraction(v) for v in b], y, h)
        size = _exact_rk4_step(abs_A, [abs(Fraction(v)) for v in b], y, h)
        for i in range(dim):
            assert abs(Fraction(states[dim + i]) - exact[i]) <= Fraction(STEP_ULPS, 2**53) * size[i]


# --- verify_numeric against a stage RK4 written here -------------------------

# Largest |verify_numeric - reference| allowed at t_end = 1. Measured: at most
# 1.2e-15 over these systems and steps, where the error itself is 1e-14 to
# 2e-9; the reference has no compensated sum, which is most of the gap.
REFERENCE_BOUND = 4e-15


def _stage_rk4(field, y0, h, n_steps):
    y = list(y0)
    samples = [y]
    for _ in range(n_steps):
        k1 = field(y)
        k2 = field([a + h / 2 * k for a, k in zip(y, k1)])
        k3 = field([a + h / 2 * k for a, k in zip(y, k2)])
        k4 = field([a + h * k for a, k in zip(y, k3)])
        y = [a + h / 6 * (p + 2 * q + 2 * r + s) for a, p, q, r, s in zip(y, k1, k2, k3, k4)]
        samples.append(y)
    return samples


@pytest.mark.parametrize(
    "system", [two_state, five_state, lambda: cascade(5, 2)],
    ids=["twostate", "fivestate", "cascade(5,2)"],
)
def test_verify_numeric_agrees_with_a_stage_rk4_reference(system):
    s = system()
    sl = superlinearize(s)
    rows = [[(j, float(a)) for j, a in enumerate(row) if a] for row in sl.A]
    offsets = [float(d) for d in sl.D]

    def lifted(z):
        return [sum(a * z[j] for j, a in row) + d for row, d in zip(rows, offsets)]

    x0 = [0.9 - 0.3 * i for i in range(s.dim)]
    z0 = x0 + [o.expansion.evaluate(x0) for o in sl.observables]
    for step, n_steps in [(1e-2, 100), (1e-3, 1000)]:
        xs = _stage_rk4(lambda v: [p.evaluate(v) for p in s.rhs], x0, step, n_steps)
        zs = _stage_rk4(lifted, z0, step, n_steps)
        reference = max(abs(z[i] - x[i]) for x, z in zip(xs, zs) for i in range(s.dim))
        assert abs(verify_numeric(s, sl, x0, n_steps * step, step) - reference) <= REFERENCE_BOUND


# --- the two backends ---------------------------------------------------------


def _same_on_both(compiled_ext, cf, y0, step, n_steps):
    c = _run(compiled_ext.rk4_kernel, cf, y0, step, n_steps)
    pure = _run(rk4_kernel_python, cf, y0, step, n_steps)
    assert c[1] == pure[1]
    assert c[0].tobytes() == pure[0].tobytes()
    return pure


@settings(max_examples=200, deadline=None)
@given(
    st.randoms(use_true_random=False),
    st.integers(1, 6),
    st.sampled_from([2.0, 1e8, 1e150, 1e300, 1.7e308]),
)
def test_backends_agree_on_affine_fields(compiled_ext, rng, dim, scale):
    cf = terms_to_compiled(random_affine_terms(rng, dim, scale))
    _same_on_both(compiled_ext, cf, [rng.uniform(-1, 1) for _ in range(dim)], 1e-2, 50)


def _stepped_by_stages(cf, y0, step, n_steps):
    """RK4 by its four stages with the kernels' compensated update, operation
    for operation: the samples up to the first non-finite state."""

    def field(y):
        res = []
        for c in range(cf.dim):
            acc = 0.0
            for t in range(cf.comp_ptr[c], cf.comp_ptr[c + 1]):
                v = cf.coeff[t]
                for f in range(cf.term_ptr[t], cf.term_ptr[t + 1]):
                    for _ in range(cf.fexp[f]):
                        v *= y[cf.fvar[f]]
                acc += v
            res.append(acc)
        return res

    half, sixth = 0.5 * step, step / 6.0
    y, lost = list(y0), [0.0] * len(y0)
    samples = list(y)
    for done in range(n_steps):
        k1 = field(y)
        k2 = field([a + half * k for a, k in zip(y, k1)])
        k3 = field([a + half * k for a, k in zip(y, k2)])
        k4 = field([a + step * k for a, k in zip(y, k3)])
        for i in range(len(y)):
            delta = sixth * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]) + lost[i]
            t = y[i] + delta
            lost[i] = delta - (t - y[i])
            y[i] = t
        if not all(map(math.isfinite, y)):
            return array("d", samples), done
        samples += y
    return array("d", samples), n_steps


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 6), st.sampled_from([(0, 2), (1, 1)]))
def test_a_field_one_term_from_affine_is_stepped_by_stages(compiled_ext, rng, dim, exponents):
    terms = random_affine_terms(rng, dim)
    i, j = rng.randrange(dim), rng.randrange(dim)
    factors = [(i, 1), (j, 1)] if exponents == (1, 1) else [(i, 2)]
    terms[rng.randrange(dim)].append((rng.uniform(-2, 2), factors))
    cf = terms_to_compiled(terms)
    y0 = [rng.uniform(-1, 1) for _ in range(dim)]
    states, done = _same_on_both(compiled_ext, cf, y0, 1e-2, 50)
    expected, expected_done = _stepped_by_stages(cf, y0, 1e-2, 50)
    assert done == expected_done
    assert states.tobytes() == expected.tobytes()


def _linear(a):
    """x' = a x, written by hand."""
    return CompiledField(
        1, array("i", [0, 1]), array("d", [a]), array("i", [0, 1]),
        array("i", [0]), array("i", [1]),
    )


@pytest.mark.parametrize("x0", [1.0, 0.0, -1e-300])
def test_an_overflowing_step_map_diverges_at_the_first_step(compiled_ext, x0):
    # h a = 1e197, so the map's (h a)^2 / 2 term overflows: every state that
    # the map's row multiplies becomes inf or nan, the zero state included.
    states, done = _same_on_both(compiled_ext, _linear(1e200), [x0], 1e-3, 10)
    assert done == 0
    assert list(states) == [x0]


def test_backends_agree_on_the_step_a_finite_map_overflows(compiled_ext):
    # RK4's growth factor at h a = 5 is about 65, so the state overflows
    # after about 170 steps of a finite map.
    _, done = _same_on_both(compiled_ext, _linear(50.0), [1.0], 0.1, 400)
    assert 150 < done < 200


def test_the_zero_field_and_a_constant_field_step_as_expected():
    zero = terms_to_compiled([[], [], []])
    states, done = _run(numeric.RK4_KERNEL, zero, [0.5, -1.0, 2.0], 0.1, 3)
    assert done == 3 and list(states) == [0.5, -1.0, 2.0] * 4
    constant = terms_to_compiled([[(2.0, [])], [(-0.5, [])]])
    states, done = _run(numeric.RK4_KERNEL, constant, [0.0, 1.0], 0.25, 2)
    assert done == 2 and list(states) == [0.0, 1.0, 0.5, 0.875, 1.0, 0.75]

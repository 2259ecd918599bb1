"""Symbolic certification and numeric trajectory comparison."""

import dataclasses
import io
import math
import random
from array import array
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slin import (
    DimensionMismatchError,
    DivergenceError,
    Polynomial,
    parse_system,
    simulate,
    superlinearize,
    verify_numeric,
    verify_symbolic,
)
from slin import numeric
from slin.lift import Observable, SuperLinearization
from slin.verify import Trajectory, write_trajectory_csv

from helpers import (
    BLOWUP,
    P,
    cascade,
    five_state,
    space,
    sympy_terms,
    to_sympy,
    two_state,
)


def _two_state_lift(a33=Fraction(-2)):
    xy = space("x y")
    lifted = space("x y w")
    obs = Observable("w", P("y^2", lifted), P("y^2", xy))
    A = ((-1, 0, 1), (0, -1, 0), (0, 0, a33))
    return SuperLinearization(
        n=2, m=1, A=A, D=(0, 0, 0), observables=(obs,), var_names=("x", "y", "w")
    )


def test_verify_symbolic_accepts_hand_built_lift():
    assert verify_symbolic(two_state(), _two_state_lift()).ok


def test_verify_symbolic_catches_corrupted_entry():
    report = verify_symbolic(two_state(), _two_state_lift(a33=Fraction(-1)))
    assert not report.ok
    assert report.failed_row == 3
    assert report.residual == P("-y^2", space("x y"))


def test_verify_symbolic_dimension_mismatch():
    other = parse_system("vars: u v w\nu' = v\nv' = w\nw' = 0\n")
    with pytest.raises(DimensionMismatchError):
        verify_symbolic(other, _two_state_lift())


def _sympy_residuals(system, sl):
    """Row i's ``L_f(q_i) - sum_j A_ij q_j - D_i``, expanded by sympy, for each i."""
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols(system.vars.names)
    f = [to_sympy(p) for p in system.rhs]
    q = [to_sympy(p) for p in sl.x_expansions()]
    for row, d, q_i in zip(sl.A, sl.D, q):
        lie = sum(sympy.diff(q_i, x) * f_x for x, f_x in zip(xs, f))
        affine = sum(sympy.Rational(str(a)) * q_j for a, q_j in zip(row, q))
        yield sympy.expand(lie - affine - sympy.Rational(str(d)))


@pytest.mark.parametrize("perturb", ["A", "D", "A and D"])
@pytest.mark.parametrize(
    "system", [five_state, lambda: cascade(4, 2)], ids=["fivestate", "cascade(4,2)"]
)
def test_verify_symbolic_residual_equals_sympy_on_a_broken_lift(system, perturb):
    s = system()
    sl = superlinearize(s)
    rng = random.Random(f"{sl.dim} {perturb}")
    A = [list(row) for row in sl.A]
    D = list(sl.D)
    if "A" in perturb:
        A[rng.randrange(sl.dim)][rng.randrange(sl.dim)] += Fraction(3, 2)
    if "D" in perturb:
        D[rng.randrange(sl.dim)] -= Fraction(1, 3)
    broken = dataclasses.replace(sl, A=A, D=D)
    report = verify_symbolic(s, broken)

    row, residual = next(
        (i, r) for i, r in enumerate(_sympy_residuals(s, broken)) if r != 0
    )
    assert not report.ok
    assert report.failed_row == row + 1
    assert report.failed_name == sl.var_names[row]
    assert report.residual.terms == sympy_terms(residual, s.vars)


# --- simulate ------------------------------------------------------------------


def test_simulate_scalar_decay_hits_analytic_solution():
    s = parse_system("vars: y\ny' = -y\n")
    traj = simulate(s.rhs, [1.0], 1.0, 1e-3)
    assert len(traj) == 1001
    assert traj.times[-1] == pytest.approx(1.0, abs=1e-12)
    assert abs(traj.states[-1][0] - math.exp(-1.0)) < 1e-9


def test_simulate_zero_horizon_returns_initial_sample():
    s = parse_system("vars: y\ny' = -y\n")
    traj = simulate(s.rhs, [0.25], 0.0, 1e-3)
    assert traj.times == (0.0,)
    assert traj.states == ((0.25,),)


def test_simulate_blowup_raises_divergence():
    s = parse_system("vars: x\nx' = x^2\n")
    with pytest.raises(DivergenceError) as exc:
        simulate(s.rhs, [1.0], 2.0, 1e-3)
    # the solution blows up at t = 1; RK4 overflows within a hair of it
    assert 0.9 < exc.value.last_finite_time < 1.1


def test_simulate_validates_arguments():
    s = parse_system("vars: y\ny' = -y\n")
    with pytest.raises(ValueError):
        simulate(s.rhs, [1.0], 1.0, 0.0)
    with pytest.raises(ValueError):
        simulate(s.rhs, [1.0], -1.0, 1e-3)
    with pytest.raises(ValueError):
        simulate(s.rhs, [float("nan")], 1.0, 1e-3)


BAD_NUMBERS = {
    "step=0": dict(step=0.0),
    "step=nan": dict(step=float("nan")),
    "t=nan": dict(t_end=float("nan")),
    "x0=nan": dict(x0=[float("nan"), 1.0]),
    "t=inf": dict(t_end=float("inf")),
    "step=1e-320": dict(step=1e-320),  # t_end / step overflows to inf
    "step=inf": dict(step=float("inf")),
}


@pytest.mark.parametrize("bad", BAD_NUMBERS.values(), ids=BAD_NUMBERS.keys())
def test_simulate_rejects_non_finite_or_nonpositive_numbers(bad):
    args = dict(x0=[1.0, 1.0], t_end=2.0, step=1e-3) | bad
    with pytest.raises(ValueError):
        simulate(two_state().rhs, **args)


def test_simulate_states_equal_per_sample_slices():
    s = five_state()
    x0 = [0.1, 0.2, 0.3, 0.4, 0.5]
    traj = simulate(s.rhs, x0, 2.0, 1e-3)
    flat, completed = numeric.integrate(s.compiled_field, x0, 1e-3, 2000)
    assert completed == 2000
    assert traj.states == tuple(
        tuple(flat[k * s.dim : (k + 1) * s.dim]) for k in range(completed + 1)
    )


# --- verify_numeric --------------------------------------------------------------


def test_verify_numeric_two_state():
    s = two_state()
    sl = superlinearize(s)
    err = verify_numeric(s, sl, [1.0, 1.0], 2.0, 1e-3)
    assert err <= 1e-6


def test_verify_numeric_zero_horizon_is_exact():
    s = two_state()
    sl = superlinearize(s)
    assert verify_numeric(s, sl, [1.0, 1.0], 0.0, 1e-3) == 0.0


def test_verify_numeric_five_state():
    s = five_state()
    sl = superlinearize(s)
    err = verify_numeric(s, sl, [0.1, 0.2, 0.3, 0.4, 0.5], 2.0, 1e-3)
    assert err <= 1e-6


def test_verify_numeric_fourth_order_convergence():
    # in the truncation-dominated regime, halving the step costs ~16x
    s = five_state()
    sl = superlinearize(s)
    x0 = [0.1, 0.2, 0.3, 0.4, 0.5]
    coarse = verify_numeric(s, sl, x0, 2.0, 0.02)
    fine = verify_numeric(s, sl, x0, 2.0, 0.01)
    assert 12.0 <= coarse / fine <= 20.0


def _projection_error_by_trajectories(s, sl, x0, t_end, step):
    """The defining computation: max over samples of |z_i - x_i| from two
    `simulate` trajectories, the lifted field built by adding up A z + D."""
    lifted = sl.lifted_space
    field = []
    for i in range(sl.dim):
        row = Polynomial.constant(lifted, sl.D[i])
        for j, a in enumerate(sl.A[i]):
            if a:
                row = row + Polynomial.variable(lifted, j) * a
        field.append(row)
    assert sl.field() == field
    x_traj = simulate(s.rhs, x0, t_end, step)
    z0 = [float(v) for v in x0] + [o.expansion.evaluate(x0) for o in sl.observables]
    z_traj = simulate(field, z0, t_end, step)
    worst = 0.0
    for xs, zs in zip(x_traj.states, z_traj.states):
        for i in range(s.dim):
            worst = max(worst, abs(zs[i] - xs[i]))
    return worst


@pytest.mark.parametrize(
    "system, x0",
    [(two_state, [1.0, 1.0]), (five_state, [0.1, 0.2, 0.3, 0.4, 0.5])],
    ids=["twostate", "fivestate"],
)
def test_verify_numeric_equals_its_trajectory_definition(system, x0):
    s = system()
    sl = superlinearize(s)
    for t_end, step in [(2.0, 1e-3), (2.0, 0.02), (0.0, 1e-3)]:
        expected = _projection_error_by_trajectories(s, sl, x0, t_end, step)
        assert verify_numeric(s, sl, x0, t_end, step) == expected


def test_verify_numeric_dimension_mismatch():
    other = parse_system("vars: u\nu' = -u\n")
    sl = superlinearize(two_state())
    with pytest.raises(DimensionMismatchError):
        verify_numeric(other, sl, [1.0], 1.0, 1e-3)


def test_verify_numeric_checks_the_dimension_before_integrating(monkeypatch):
    calls = []

    def counting_kernel(*args):
        calls.append(len(args[5]))
        return 0

    monkeypatch.setattr(numeric, "RK4_KERNEL", counting_kernel)
    other = parse_system("vars: u\nu' = -u\n")
    with pytest.raises(DimensionMismatchError):
        verify_numeric(other, superlinearize(two_state()), [1.0], 1.0, 1e-3)
    assert calls == []


def test_verify_numeric_rejects_other_names_before_integrating(monkeypatch):
    calls = []
    monkeypatch.setattr(numeric, "RK4_KERNEL", lambda *args: calls.append(args))
    renamed = parse_system("vars: u v\nu' = -u + v^2\nv' = -v\n")
    with pytest.raises(DimensionMismatchError):
        verify_numeric(renamed, superlinearize(two_state()), [1.0, 1.0], 1.0, 1e-3)
    assert calls == []


def test_verify_numeric_dimension_mismatch_on_a_divergent_system():
    blowup = parse_system(BLOWUP)  # x' = x^2 from x = 1 blows up at t = 1
    with pytest.raises(DivergenceError):
        simulate(blowup.rhs, [1.0], 2.0, 1e-3)
    with pytest.raises(DimensionMismatchError):
        verify_numeric(blowup, superlinearize(two_state()), [1.0], 2.0, 1e-3)


# --- CSV export --------------------------------------------------------------------


def test_trajectory_csv_roundtrip():
    s = two_state()
    traj = simulate(s.rhs, [1.0, 0.5], 0.01, 1e-3)
    buf = io.StringIO()
    write_trajectory_csv(traj, s.vars.names, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "t,x,y"
    assert len(lines) == len(traj) + 1
    for line, t, state in zip(lines[1:], traj.times, traj.states):
        cells = line.split(",")
        assert float(cells[0]) == t  # repr round-trips exactly
        assert tuple(float(c) for c in cells[1:]) == state


def test_trajectory_csv_equals_per_row_writes():
    s = five_state()
    traj = simulate(s.rhs, [0.1, 0.2, 0.3, 0.4, 0.5], 2.0, 1e-3)
    expected = io.StringIO()
    expected.write("t," + ",".join(s.vars.names) + "\n")
    for t, state in zip(traj.times, traj.states):
        expected.write(repr(t) + "," + ",".join(repr(v) for v in state) + "\n")
    buf = io.StringIO()
    write_trajectory_csv(traj, s.vars.names, buf)
    assert buf.getvalue() == expected.getvalue()


# --- compiled row formatter ------------------------------------------------------


def _csv_text(traj, names, format_rows):
    """`write_trajectory_csv`'s text with the given row formatter (None: repr)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numeric, "FORMAT_ROWS", format_rows)
        buf = io.StringIO()
        write_trajectory_csv(traj, names, buf)
    return buf.getvalue()


def _trajectory_of(values, width):
    """A synthetic trajectory laying `values` out `width` to a row, t first."""
    values = list(values)
    values += [0.0] * (-len(values) % width)
    rows = [tuple(values[i : i + width]) for i in range(0, len(values), width)]
    return Trajectory(tuple(r[0] for r in rows), tuple(r[1:] for r in rows))


def _assert_rows_match_repr(compiled_ext, values, width=4):
    traj = _trajectory_of(values, width)
    names = [f"x{i}" for i in range(1, width)]
    assert _csv_text(traj, names, compiled_ext.format_rows) == _csv_text(traj, names, None)


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(
        st.one_of(st.floats(), st.floats(-(2.0**55), 2.0**55)), max_size=64
    )
)
def test_row_formatter_equals_repr_on_any_float(compiled_ext, values):
    _assert_rows_match_repr(compiled_ext, values)


def _edge_values():
    values = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 2.2250738585072014e-308]
    # the ends of the window the exact fast path covers
    for end in (2.0**-12, 2.0**54):
        values += [end, math.nextafter(end, 0.0), math.nextafter(end, math.inf)]
    values += [2.0**e for e in range(-20, 61)]
    # where repr switches between positional and exponent form
    for switch in (1e-5, 1e-4, 9999999999999998.0, 1e16):
        values += [switch, math.nextafter(switch, 0.0), math.nextafter(switch, math.inf)]
    for step in (1e-3, 5e-4, 0.1):
        values += [k * step for k in range(20001)]
    return values + [-v for v in values]


def test_row_formatter_equals_repr_on_edge_values(compiled_ext):
    _assert_rows_match_repr(compiled_ext, _edge_values())


def test_row_formatter_equals_repr_on_a_million_bit_patterns(compiled_ext):
    rng = random.Random(20261018)
    n = 1_000_000
    words = array("Q", rng.randbytes(8 * n))
    # Every other pattern gets a binary exponent around the fast path's window
    # 2^-12 <= |v| < 2^54; the rest keep uniformly random bits.
    keep = (1 << 63) | ((1 << 52) - 1)
    for i in range(0, n, 2):
        words[i] = (words[i] & keep) | (rng.randrange(1000, 1081) << 52)
    _assert_rows_match_repr(compiled_ext, array("d", words.tobytes()), width=10)


class _Float(float):
    pass


def test_row_formatter_renders_other_entries_with_repr(compiled_ext):
    entries = [3, -7, 2**70, True, False, _Float(0.1), _Float(-2.5e-300), Fraction(1, 3)]
    try:
        import numpy as np
    except ImportError:
        pass
    else:
        entries += [np.float64(0.1), np.float64(-1e300), np.float32(0.1), np.int64(3)]
    traj = Trajectory(
        tuple(entries), tuple([e, 0.5, e] for e in reversed(entries))
    )
    names = ("x", "y", "z")
    assert _csv_text(traj, names, compiled_ext.format_rows) == _csv_text(traj, names, None)


def test_row_formatter_streams_long_trajectories_in_chunks(compiled_ext):
    s = two_state()
    traj = simulate(s.rhs, [1.0, 0.5], 10.0, 1e-3)
    writes = []

    class Sink(io.StringIO):
        def write(self, text):
            writes.append(len(text))
            return super().write(text)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numeric, "FORMAT_ROWS", compiled_ext.format_rows)
        buf = Sink()
        write_trajectory_csv(traj, s.vars.names, buf)
    assert len(writes) == 1 + math.ceil(len(traj) / 4096)  # header, then chunks
    assert buf.getvalue() == _csv_text(traj, s.vars.names, None)

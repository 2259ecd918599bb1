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
    SpaceMismatchError,
    parse_system,
    simulate,
    superlinearize,
    verify_numeric,
    verify_symbolic,
)
from slin import numeric
from slin.lift import Observable, SuperLinearization
from slin import verify
from slin.verify import Trajectory, write_trajectory_csv

from helpers import (
    BLOWUP,
    P,
    cascade,
    edge_floats,
    five_state,
    random_doubles,
    space,
    sympy_terms,
    to_sympy,
    two_state,
)


def _two_state_lift(a33=Fraction(-2)):
    obs = Observable("w", P("y^2", space("x y")))
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


def test_verify_symbolic_rejects_an_expansion_over_other_variables():
    obs = Observable("w", P("y^2", space("x y w")))
    sl = dataclasses.replace(_two_state_lift(), observables=(obs,))
    with pytest.raises(SpaceMismatchError, match="expansion of w"):
        verify_symbolic(two_state(), sl)


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


def test_a_horizon_must_be_a_whole_number_of_steps():
    s = two_state()
    sl = superlinearize(s)
    x0 = [1.0, 0.5]
    # Rounded to a step count, 1 / 0.6 and 1 / 0.4 would end the run at t = 1.2 and 0.8.
    for t_end, step in [(1.0, 0.6), (1.0, 0.4), (0.3, 0.2), (1e-12, 1e-3)]:
        with pytest.raises(ValueError, match="whole number of steps"):
            simulate(s.rhs, x0, t_end, step)
        with pytest.raises(ValueError, match="whole number of steps"):
            verify_numeric(s, sl, x0, t_end, step)
    # t_end / step rounds off an integer in some of these.
    for t_end, step in [(1.0, 1e-3), (1.0, 5e-4), (2.0, 1e-3), (2.0, 0.02), (0.01, 1e-3),
                        (0.0, 1e-3), (0.3, 0.1)]:
        traj = simulate(s.rhs, x0, t_end, step)
        assert len(traj) == round(t_end / step) + 1
        assert traj.times[-1] == pytest.approx(t_end, rel=1e-12)
        assert verify_numeric(s, sl, x0, t_end, step) < 1e-6


def test_a_trajectory_holds_whole_samples():
    traj = Trajectory(0.5, 2, array("d", [1.0, 2.0, 3.0, 4.0]))
    assert (len(traj), traj.times, traj.states) == (2, (0.0, 0.5), ((1.0, 2.0), (3.0, 4.0)))
    for dim, flat in [(2, [1.0, 2.0, 3.0]), (0, [])]:
        with pytest.raises(ValueError):
            Trajectory(0.5, dim, array("d", flat))


@pytest.mark.parametrize(
    "flat",
    [[0.0, 1.0, 0.5, 2.0], (0.0, 1.0, 0.5, 2.0), array("f", [0.0, 1.0, 0.5, 2.0]),
     array("q", [0, 1, 0, 2])],
    ids=["list", "tuple", "array-f", "array-q"],
)
def test_a_trajectory_holds_an_array_of_doubles(flat):
    # The rows of any other buffer would be formatted by the pure twin and
    # rejected by the C formatter; both backends now refuse it up front.
    with pytest.raises(TypeError, match="typecode 'd'"):
        Trajectory(0.5, 2, flat)


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


def test_the_memory_cap_counts_the_doubles_a_kept_run_stores(monkeypatch):
    class Integrated(Exception):
        pass

    def integrate(*args, **kwargs):
        raise Integrated

    monkeypatch.setattr(verify, "integrate", integrate)
    cf = superlinearize(five_state()).compiled_field  # 21 coordinates
    z0 = [0.0] * cf.dim
    # 40 000 000 samples of 5 doubles fill the cap of 200 000 000 exactly.
    with pytest.raises(Integrated):
        verify._run(cf, z0, 1e-3, 39_999_999, keep=5)
    with pytest.raises(ValueError, match="21 coordinates keeping 5 of them"):
        verify._run(cf, z0, 1e-3, 40_000_000, keep=5)
    with pytest.raises(ValueError, match="21-dimensional"):
        verify._run(cf, z0, 1e-3, 9_523_809)


# --- compiled row formatter ------------------------------------------------------


def _csv_text(traj, names, format_rows):
    """`write_trajectory_csv`'s text with the given row formatter."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numeric, "FORMAT_ROWS", format_rows)
        buf = io.StringIO()
        write_trajectory_csv(traj, names, buf)
    return buf.getvalue()


def _assert_rows_match_repr(compiled_ext, values, width=3, step=1e-3):
    """A trajectory laying `values` out `width` to a sample, its times
    k * step, is written the same by the compiled formatter and by repr."""
    values = list(values)
    values += [0.0] * (-len(values) % width)
    traj = Trajectory(step, width, array("d", values))
    names = [f"x{i}" for i in range(1, width + 1)]
    compiled = _csv_text(traj, names, compiled_ext.format_rows)
    assert compiled == _csv_text(traj, names, numeric.format_rows_python)


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(
        st.one_of(st.floats(), st.floats(-(2.0**55), 2.0**55)), max_size=64
    ),
    step=st.floats(1e-6, 10.0),
)
def test_row_formatter_equals_repr_on_any_float(compiled_ext, values, step):
    _assert_rows_match_repr(compiled_ext, values, step=step)


def test_row_formatter_equals_repr_on_edge_values(compiled_ext):
    # The time column runs through k * step for k up to about 40000.
    for step in (1e-3, 5e-4, 0.1):
        _assert_rows_match_repr(compiled_ext, edge_floats(), step=step)


def test_row_formatter_equals_repr_on_a_million_bit_patterns(compiled_ext):
    values = random_doubles(random.Random(20261018), 1_000_000)
    _assert_rows_match_repr(compiled_ext, values, width=10)


def _significant_digits(v):
    mantissa = repr(v).split("e")[0].replace("-", "").replace(".", "")
    return len(mantissa.strip("0"))


def test_row_formatter_writes_repr_at_every_digit_count_and_power_of_ten(compiled_ext):
    values = []
    for k in range(-4, 17):
        values += [10.0**k, math.nextafter(10.0**k, 0.0), math.nextafter(10.0**k, math.inf)]
    rng = random.Random(1016)
    for digits in (1, 8, 9, 16, 17):
        found = 0
        while found < 40:
            mantissa = rng.randrange(10 ** (digits - 1), 10**digits)
            v = float(f"{mantissa}e{rng.randint(-12 - digits, 16 - digits)}")
            if _significant_digits(v) == digits and 2.0**-12 <= v < 2.0**54:
                values.append(v)
                found += 1
    for end in (2.0**-12, 2.0**54):
        values += [end, math.nextafter(end, 0.0), math.nextafter(end, math.inf)]
    for v in values + [-v for v in values]:
        text = compiled_ext.format_rows(array("d", [v]), 1, 0.0, 0, 1)
        assert text == f"0.0,{v!r}\n"


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
    assert buf.getvalue() == _csv_text(traj, s.vars.names, numeric.format_rows_python)

"""Span detection, single-layer lifting, the full pipeline, recurrence certificates."""

import random
from fractions import Fraction
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slin import (
    ConditionFailedError,
    Observable,
    Polynomial,
    SpaceMismatchError,
    SuperLinearization,
    lie_derivative,
    parse_system,
    superlinearize,
    verify_symbolic,
    xumama_check,
)
from slin.lift import _CONST, SpanSolver, _field_vec, prop1_lift

from helpers import P, cascade, five_state, random_layered_system, space, two_state


# --- SpanSolver ------------------------------------------------------------------


def _express(target, basis, vec=attrgetter("terms")):
    """The solver's coefficients of `target` over `basis`, by position, or None."""
    solver = SpanSolver()
    for k, b in enumerate(basis):
        solver.add(vec(b), k)
    combo = solver.express(vec(target))
    if combo is None:
        return None
    return [combo.get(k, 0) for k in range(len(basis))]


def test_express_in_span_chain_closure():
    sp = space("x1 x2 x3")
    basis = [
        P("1", sp),
        P("x1", sp),
        P("x2", sp),
        P("x3", sp),
        P("x2^2", sp),
        P("-2*x1*x2", sp),
        P("2*x1^2 - 2*x2^2", sp),
    ]
    coeffs = _express(P("8*x1*x2", sp), basis)
    assert coeffs == [0, 0, 0, 0, 0, -4, 0]


def test_express_zero_target():
    sp = space("x")
    coeffs = _express(Polynomial.zero(sp), [P("x", sp), P("1", sp)])
    assert coeffs == [0, 0]


def test_express_absence_is_none():
    sp = space("x")
    assert _express(P("x^2", sp), [P("1", sp), P("x", sp)]) is None


def test_express_tolerates_dependent_basis():
    sp = space("x y")
    basis = [P("x", sp), P("2*x", sp), P("y", sp)]
    coeffs = _express(P("x + y", sp), basis)
    total = Polynomial.zero(sp)
    for c, b in zip(coeffs, basis):
        total = total + b * c
    assert total == P("x + y", sp)


def test_express_field_variant_solves_componentwise():
    s = two_state()
    f = list(s.rhs)
    lf = [lie_derivative(c, s.rhs) for c in f]
    assert lf[0] == P("x - 3*y^2", s.vars)
    assert lf[1] == P("y", s.vars)
    target = [P("-x + 7*y^2", s.vars), P("-y", s.vars)]
    assert _express(target, [f, lf], _field_vec) == [-2, -3]


def test_span_solver_rejects_outside_vector():
    solver = SpanSolver()
    sp = space("x")
    solver.add(P("x", sp).terms, 0)
    assert solver.express(P("x^2", sp).terms) is None
    assert solver.express(P("3*x", sp).terms) == {0: Fraction(3)}


# The oracle below draws sparse vectors over x, y (a basis entry is one
# polynomial, or a two-component field for `_field_vec`), some basis entries
# and targets as combinations of earlier entries, and checks the solver
# against sympy's rank of the coefficient matrix.

SPAN_SPACE = space("x y")
SPAN_MONOS = [(a, b) for a in range(3) for b in range(3 - a)]
small_fractions = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
sparse_polys = st.dictionaries(
    st.sampled_from(SPAN_MONOS), small_fractions, max_size=3
).map(lambda terms: Polynomial(SPAN_SPACE, terms))


def _combine(coeffs, entries, width):
    """Componentwise sum of c * entry over `width`-tuples of polynomials."""
    total = [Polynomial.zero(SPAN_SPACE)] * width
    for c, entry in zip(coeffs, entries):
        total = [t + p * c for t, p in zip(total, entry)]
    return tuple(total)


@st.composite
def span_problems(draw, width):
    def combination(entries):
        k = len(entries)
        coeffs = draw(st.lists(small_fractions, min_size=k, max_size=k))
        return _combine(coeffs, entries, width)

    def fresh():
        return tuple(draw(sparse_polys) for _ in range(width))

    basis = []
    for _ in range(draw(st.integers(0, 5))):
        dependent = basis and draw(st.booleans())
        basis.append(combination(basis) if dependent else fresh())
    target = combination(basis) if basis and draw(st.booleans()) else fresh()
    return basis, target


@pytest.mark.parametrize(
    "width, vec",
    [(1, lambda entry: entry[0].terms), (2, _field_vec)],
    ids=["terms", "field_vec"],
)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_span_solver_agrees_with_a_sympy_rank_test(width, vec, data):
    sympy = pytest.importorskip("sympy")
    basis, target = data.draw(span_problems(width))
    coeffs = _express(target, basis, vec)

    vectors = [vec(entry) for entry in basis + [target]]
    keys = sorted(set().union(*vectors))

    def rank(rows):
        entries = [sympy.Rational(str(v.get(k, 0))) for v in rows for k in keys]
        return sympy.Matrix(len(rows), len(keys), entries).rank()

    inside = rank(vectors) == rank(vectors[:-1])
    assert (coeffs is not None) == inside
    if coeffs is not None:
        assert _combine(coeffs, basis, width) == target


# --- prop1_lift ------------------------------------------------------------------


def _prop1(sp, rows, layer, linear_part, seeds):
    """`prop1_lift` over identity expansions, with the rows it fills as dense A and D."""
    expansions = [Polynomial.variable(sp, i) for i in range(len(sp))]
    obs, chains = prop1_lift(
        sp, rows, expansions, layer, linear_part, seeds, obs_prefix="p", obs_start=1, stage=1
    )
    dim = len(rows)
    A = tuple(tuple(rows[i].get(j, 0) for j in range(dim)) for i in range(dim))
    D = tuple(rows[i].get(_CONST, 0) for i in range(dim))
    assert expansions[len(sp):] == [o.expansion for o in obs]
    return A, D, obs, chains


def test_prop1_lift_decay_square():
    sp = space("y x")
    A, D, obs, chains = _prop1(sp, {0: {0: Fraction(-1)}}, [1], [{1: -1}], [P("y^2", sp)])
    assert [o.name for o in obs] == ["p1"]
    assert len(obs) == 1 and obs[0].expansion == P("y^2", sp)
    # rows: dy = -y, dx = -x + p1, dp1 = -2 p1
    assert A == ((-1, 0, 0), (0, -1, 1), (0, 0, -2))
    assert D == (0, 0, 0)
    assert chains[0].created == 1


def test_prop1_lift_oscillator_chain():
    sp = space("x1 x2 x3")
    A, D, obs, chains = _prop1(sp, {0: {1: 1}, 1: {0: -1}}, [2], [{}], [P("x2^2", sp)])
    assert [o.expansion for o in obs] == [
        P("x2^2", sp),
        P("-2*x1*x2", sp),
        P("2*x1^2 - 2*x2^2", sp),
    ]
    assert [o.name for o in obs] == ["p1", "p2", "p3"]
    # closing row: dp3 = -4 p2
    assert A[5] == (0, 0, 0, 0, -4, 0)
    # chain rows dp1 = p2, dp2 = p3
    assert A[3] == (0, 0, 0, 0, 1, 0)
    assert A[4] == (0, 0, 0, 0, 0, 1)
    # the layer row absorbs the seed as dx3 = p1
    assert A[2] == (0, 0, 0, 1, 0, 0)
    assert chains[0].created == 3 and chains[0].cap == 6


def test_prop1_lift_affine_seed_folds_into_row():
    sp = space("z1 z2 w")
    rows = {0: {0: 1}, 1: {1: 2, _CONST: 1}}
    A, D, obs, chains = _prop1(sp, rows, [2], [{2: Fraction(5)}], [P("3*z1 + 1", sp)])
    assert obs == []
    assert chains[0].created == 0
    assert A[2] == (3, 0, 5)
    assert D == (0, 1, 1)


def test_prop1_lift_rejects_foreign_seed():
    sp = space("z x")
    other = space("w")
    with pytest.raises(SpaceMismatchError):
        _prop1(sp, {0: {}}, [1], [{}], [P("w", other)])


# --- SuperLinearization ----------------------------------------------------------


def test_lift_needs_one_observable_per_lifted_coordinate():
    with pytest.raises(ValueError, match="need 1 observables, got 0"):
        SuperLinearization(
            n=1, m=1, A=((-1, 0), (0, 0)), D=(0, 0), observables=(), var_names=("x", "p1")
        )


def test_lift_needs_observables_named_as_their_coordinates():
    obs = Observable("p2", P("x^2", space("x")))
    with pytest.raises(ValueError, match="named 'p2', not 'p1'"):
        SuperLinearization(
            n=1, m=1, A=((-1, 0), (0, -2)), D=(0, 0), observables=(obs,), var_names=("x", "p1")
        )


def test_lift_makes_int_entries_fractions_and_keeps_a_fraction_as_it_is():
    half = Fraction(1, 2)
    sl = SuperLinearization(n=1, m=0, A=((half,),), D=(3,), observables=(), var_names=("x",))
    assert sl.A[0][0] is half
    assert type(sl.D[0]) is Fraction and sl.D[0] == 3


# --- superlinearize ---------------------------------------------------------------


def test_superlinearize_two_state_matches_expected_system():
    sl = superlinearize(two_state())
    assert (sl.n, sl.m) == (2, 1)
    assert sl.var_names == ("x", "y", "p1")
    assert sl.A == ((-1, 0, 1), (0, -1, 0), (0, 0, -2))
    assert sl.D == (0, 0, 0)
    assert sl.observables[0].expansion == P("y^2", space("x y"))


def test_superlinearize_affine_system_reads_off_directly():
    s = parse_system("vars: x y\nx' = 2*x - y + 3\ny' = x + 1/2\n")
    sl = superlinearize(s)
    assert sl.m == 0
    assert sl.A == ((2, -1), (1, 0))
    assert sl.D == (3, Fraction(1, 2))


def test_superlinearize_five_state_regression():
    sl = superlinearize(five_state())
    assert sl.n == 5
    assert sl.m == 16  # same count as the published construction
    assert verify_symbolic(five_state(), sl).ok
    # depth 0 lifts through the same step: its constant seeds close at once
    assert [(c.stage, c.seed, c.created, c.cap) for c in sl.chains] == [
        (0, 0, 0, 1),
        (0, 1, 0, 1),
        (1, 0, 3, 6),
        (2, 0, 4, 84),
        (2, 1, 9, 84),
    ]
    # every observable was created by exactly one chain
    assert sum(c.created for c in sl.chains) == sl.m


def test_superlinearize_projection_rows_reproduce_field():
    s = five_state()
    sl = superlinearize(s)
    expansions = sl.x_expansions()
    for i in range(s.dim):
        row = Polynomial.constant(s.vars, sl.D[i])
        for j, a in enumerate(sl.A[i]):
            if a:
                row = row + expansions[j] * a
        assert row == s.rhs[i]


def test_superlinearize_rejects_failing_condition():
    with pytest.raises(ConditionFailedError) as exc:
        superlinearize(parse_system("vars: x\nx' = x^2\n"))
    witnesses = exc.value.report.witnesses
    assert len(witnesses) == 1 and witnesses[0].render() == "gamma(1,1) = 2*x"


def test_superlinearize_disconnected_components():
    # two independent blocks: the lift carries both, block couplings stay zero
    s = parse_system("vars: x y u v\nx' = -x + y^2\ny' = -y\nu' = v\nv' = -u + 1\n")
    sl = superlinearize(s)
    assert verify_symbolic(s, sl).ok
    names = sl.var_names
    x_idx = [names.index(nm) for nm in ("x", "y")]
    uv_idx = [names.index(nm) for nm in ("u", "v")]
    for i in x_idx:
        for j in uv_idx:
            assert sl.A[i][j] == 0 and sl.A[j][i] == 0


def test_superlinearize_observable_prefix_avoids_collision():
    s = parse_system("vars: p1 y\np1' = -p1 + y^2\ny' = -y\n")
    sl = superlinearize(s)
    assert sl.m == 1
    assert sl.observables[0].name == "q1"
    assert verify_symbolic(s, sl).ok


def test_superlinearize_repeated_nonlinearity_shares_observable():
    # the same forcing term y^2 appears in two equations: one observable only
    s = parse_system("vars: x z y\nx' = -x + y^2\nz' = z + 2*y^2\ny' = -y\n")
    sl = superlinearize(s)
    assert sl.m == 1
    assert verify_symbolic(s, sl).ok


def test_superlinearize_deep_cascade():
    # depth-3 skeleton: x drives z through two nonlinear relays
    s = parse_system(
        "vars: a b c\na' = -a\nb' = a^2\nc' = b^2 + a\n"
    )
    sl = superlinearize(s)
    assert verify_symbolic(s, sl).ok
    assert sl.m >= 2


def test_superlinearize_downstream_oscillator_block():
    # a two-node strongly connected block sits in a deeper layer: its own
    # dynamics must be treated as a constant-coefficient pair while the
    # forcing from the source oscillator grows chains
    s = parse_system(
        "vars: x1 x2 y1 y2\n"
        "x1' = x2\n"
        "x2' = -x1\n"
        "y1' = y2 + x1^2\n"
        "y2' = -3*y1 + 2*y2 + x1*x2\n"
    )
    sl = superlinearize(s)
    assert verify_symbolic(s, sl).ok
    names = sl.var_names
    iy1, iy2 = names.index("y1"), names.index("y2")
    assert sl.A[iy1][iy2] == 1
    assert sl.A[iy2][iy1] == -3 and sl.A[iy2][iy2] == 2


def test_superlinearize_constant_drive_only():
    # no edges at all: every variable is a source with constant dynamics
    s = parse_system("vars: x y\nx' = 1\ny' = -2/3\n")
    sl = superlinearize(s)
    assert sl.m == 0
    assert sl.A == ((0, 0), (0, 0))
    assert sl.D == (1, Fraction(-2, 3))


def test_superlinearize_rational_coefficients_throughout():
    s = parse_system(
        "vars: u v w\n"
        "u' = 1/2*v\n"
        "v' = -2/3*u + 5\n"
        "w' = 7/4*u^2*v - 1/6\n"
    )
    sl = superlinearize(s)
    assert verify_symbolic(s, sl).ok
    assert sl.D[sl.var_names.index("v")] == 5


def test_superlinearize_same_observable_reused_across_layers():
    # y^2 forces a depth-1 variable; the depth-2 variable needs y^2 * z, so
    # its chain runs over a space that already contains the first observable
    s = parse_system(
        "vars: y z w\n"
        "y' = -y\n"
        "z' = y^2\n"
        "w' = -w + z*y^2\n"
    )
    sl = superlinearize(s)
    assert verify_symbolic(s, sl).ok


@pytest.mark.parametrize(
    "system",
    [five_state, lambda: cascade(4, 2), lambda: cascade(4, 3)],
    ids=["fivestate", "cascade(4,2)", "cascade(4,3)"],
)
def test_each_chain_element_is_eliminated_once(system, monkeypatch):
    # Per stage, 1 and each lifted coordinate are added once. Every chain
    # element outside the span costs the one elimination of `add`, which
    # stores it as an observable; the element that closes a chain costs two,
    # `add` finding it inside and `express` reading off its dependency.
    calls = []
    eliminate = SpanSolver._eliminate

    def counting(self, vec):
        calls.append(len(vec))
        return eliminate(self, vec)

    monkeypatch.setattr(SpanSolver, "_eliminate", counting)
    sl = superlinearize(system())
    base_dims = {info.stage: info.base_dim for info in sl.chains}
    expected = sum(1 + b for b in base_dims.values()) + sl.m + 2 * len(sl.chains)
    assert len(calls) == expected


# --- xumama_check ------------------------------------------------------------------


def test_xumama_two_state():
    cert = xumama_check(two_state(), 5)
    assert cert.N == 2
    assert cert.alpha == (-2, -3)
    _assert_certificate_identity(two_state(), cert)


def test_xumama_harmonic_oscillator():
    s = parse_system("vars: x1 x2\nx1' = x2\nx2' = -x1\n")
    cert = xumama_check(s, 5)
    assert cert.N == 2
    assert cert.alpha == (-1, 0)
    _assert_certificate_identity(s, cert)


def test_xumama_square_has_no_certificate():
    assert xumama_check(parse_system("vars: x\nx' = x^2\n"), 10) is None


def test_xumama_requires_positive_bound():
    with pytest.raises(ValueError):
        xumama_check(two_state(), 0)


def _assert_certificate_identity(s, cert):
    iterates = [list(s.rhs)]
    for _ in range(cert.N):
        iterates.append([lie_derivative(c, s.rhs) for c in iterates[-1]])
    for comp in range(s.dim):
        acc = Polynomial.zero(s.vars)
        for k, a in enumerate(cert.alpha):
            acc = acc + iterates[k][comp] * a
        assert acc == iterates[cert.N][comp]


def test_xumama_certificates_on_random_liftable_systems():
    rng = random.Random(77)
    found = 0
    for _ in range(25):
        s = random_layered_system(rng)
        cert = xumama_check(s, 6)
        if cert is not None:
            _assert_certificate_identity(s, cert)
            found += 1
    assert found > 0  # plenty of small layered systems close quickly

"""Unit and property tests for the exact polynomial layer."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from slin import NEG_INF, Polynomial, SpaceMismatchError, lie_derivative, parse_polynomial

from helpers import (
    P,
    chained_substitute,
    fraction_mul,
    pow_by_squaring,
    space,
    sympy_terms,
    to_sympy,
)

XY = space("x1 x2")
XYZ = space("x1 x2 x3")
UV = space("u v")


# --- addition ----------------------------------------------------------------


def test_add_cancels_opposite_terms():
    assert P("x1 + x2", XY) + P("-x1", XY) == P("x2", XY)


def test_add_zero_is_identity():
    p = P("3*x1^2 - 1/2*x2", XY)
    assert p + Polynomial.zero(XY) == p


def test_add_merges_disjoint_terms():
    result = P("x2^2", XY) + P("-2*x1*x2", XY)
    expected = P("x2^2 - 2*x1*x2", XY)
    assert result == expected
    # oracle: exact evaluation at rational points must agree with the sum
    points = [
        (Fraction(1, 3), Fraction(-2)),
        (Fraction(5, 7), Fraction(7, 5)),
        (Fraction(0), Fraction(11)),
        (Fraction(-9, 4), Fraction(2, 9)),
        (Fraction(13), Fraction(-1, 6)),
    ]
    for pt in points:
        lhs = P("x2^2", XY).evaluate_exact(pt) + P("-2*x1*x2", XY).evaluate_exact(pt)
        assert result.evaluate_exact(pt) == lhs


def test_add_rejects_space_mismatch():
    with pytest.raises(SpaceMismatchError):
        P("x1", XY) + P("x1", XYZ)


# --- multiplication ----------------------------------------------------------


def test_mul_constants():
    # the two weights on the v1 v2 v1 cycle multiply to a constant
    assert P("-1", XY) * P("1", XY) == P("-1", XY)


def test_mul_by_zero_annihilates():
    assert P("x1^3 - x2", XY) * Polynomial.zero(XY) == Polynomial.zero(XY)


def test_mul_monomials():
    assert P("x1", XY) * P("x2^2", XY) == P("x1*x2^2", XY)


def test_mul_degree_adds():
    a = P("x1^2 + 1", XY)
    b = P("x2^3 - x1", XY)
    assert (a * b).degree() == a.degree() + b.degree()
    assert (a * Polynomial.zero(XY)).degree() == NEG_INF


# --- differentiation ---------------------------------------------------------


def test_differentiate_quadratic():
    assert P("x2^2", XY).differentiate(1) == P("2*x2", XY)


def test_differentiate_mixed_term():
    assert P("x1*x2^2", XY).differentiate(0) == P("x2^2", XY)


def test_differentiate_constant_is_zero():
    assert P("42", XY).differentiate(0).is_zero()


def test_differentiate_index_out_of_range():
    with pytest.raises(IndexError):
        P("x1", XY).differentiate(2)


# --- substitution ------------------------------------------------------------


def test_substitute_new_coordinate():
    xw = space("x w")
    xy = space("x y")
    p = P("-x + w", xw)
    images = {0: P("x", xy), 1: P("y^2", xy)}
    assert p.substitute(images) == P("-x + y^2", xy)


def test_substitute_identity():
    p = P("x1^2*x2 - 7", XY)
    identity = {i: Polynomial.variable(XY, i) for i in range(2)}
    assert p.substitute(identity) == p


def test_substitute_zero_annihilates_factor():
    p = P("x1*x2^2 + x1", XY)  # x1 * (x2^2 + 1)
    images = {0: Polynomial.zero(XY), 1: P("x2", XY)}
    assert p.substitute(images).is_zero()


def test_substitute_missing_image():
    with pytest.raises(KeyError, match="x2"):
        P("x1*x2", XY).substitute({0: P("x1", XY)})


def test_substitute_mismatched_image_spaces():
    with pytest.raises(SpaceMismatchError):
        P("x1*x2", XY).substitute({0: P("x1", XY), 1: P("x1", XYZ)})


# --- evaluation --------------------------------------------------------------


def test_evaluate_square():
    assert P("x2^2", XY).evaluate((0.0, 3.0)) == 9.0


def test_evaluate_zero_polynomial():
    assert Polynomial.zero(XY).evaluate((123.0, -5.0)) == 0.0


def test_evaluate_mixed_term():
    # 2 * 3^2 = 18, cross-checked exactly
    assert P("x1*x2^2", XY).evaluate((2.0, 3.0)) == 18.0
    assert P("x1*x2^2", XY).evaluate_exact((2, 3)) == 18


def test_evaluate_length_mismatch():
    with pytest.raises(ValueError):
        P("x1", XY).evaluate((1.0,))


# --- Lie derivative ----------------------------------------------------------


def test_lie_derivative_decay_square():
    y = space("y")
    field = [P("-y", y)]
    assert lie_derivative(P("y^2", y), field) == P("-2*y^2", y)


def test_lie_derivative_oscillator_square():
    field = [P("x2", XY), P("-x1", XY)]
    assert lie_derivative(P("x2^2", XY), field) == P("-2*x1*x2", XY)


def test_lie_derivative_of_constant():
    field = [P("x2", XY), P("-x1", XY)]
    assert lie_derivative(P("5", XY), field).is_zero()


def test_lie_derivative_field_length_mismatch():
    with pytest.raises(ValueError):
        lie_derivative(P("x1", XY), [P("x1", XY)])


# --- degree sentinel and rendering -------------------------------------------


def test_zero_degree_sentinel():
    z = Polynomial.zero(XY)
    assert z.degree() == NEG_INF
    assert z.degree() + 5 == NEG_INF  # degree arithmetic stays total


def test_render_graded_lex_descending():
    assert P("-7*x1*x2^2 + 2*x1^3", XY).render() == "2*x1^3 - 7*x1*x2^2"
    assert P("x2^2 + x1^2 + x1*x2", XY).render() == "x1^2 + x1*x2 + x2^2"


def test_render_rational_coefficients():
    sp = space("p4")
    assert P("1485/2*p4", sp).render() == "1485/2*p4"
    assert P("-p4", sp).render() == "-p4"
    assert Polynomial.zero(sp).render() == "0"
    assert P("0 - 3", sp).render() == "-3"


def test_render_parses_back():
    p = P("2*x1^3 - 7*x1*x2^2 + 1/3*x2 - 4", XY)
    assert P(p.render(), XY) == p


# --- properties --------------------------------------------------------------

MONOS_3 = [
    m for m in product(range(5), repeat=3) if sum(m) <= 4
]

coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def polys(sp=XYZ, monos=MONOS_3):
    return st.dictionaries(st.sampled_from(monos), coeffs, max_size=5).map(
        lambda d: Polynomial(sp, d)
    )


@given(polys(), polys(), coeffs, coeffs)
def test_differentiate_is_linear(p, q, a, b):
    for i in range(3):
        lhs = (p * a + q * b).differentiate(i)
        rhs = p.differentiate(i) * a + q.differentiate(i) * b
        assert lhs == rhs


@given(polys(), polys())
def test_differentiate_leibniz(p, q):
    for i in range(3):
        lhs = (p * q).differentiate(i)
        rhs = p.differentiate(i) * q + p * q.differentiate(i)
        assert lhs == rhs


@given(polys(), polys(), st.lists(polys(), min_size=3, max_size=3), coeffs, coeffs)
def test_lie_derivative_linear_in_argument(p, q, field, a, b):
    lhs = lie_derivative(p * a + q * b, field)
    rhs = lie_derivative(p, field) * a + lie_derivative(q, field) * b
    assert lhs == rhs


@given(polys(), st.lists(polys(), min_size=3, max_size=3), st.lists(polys(), min_size=3, max_size=3))
def test_lie_derivative_additive_in_field(p, f, g):
    fg = [a + b for a, b in zip(f, g)]
    assert lie_derivative(p, fg) == lie_derivative(p, f) + lie_derivative(p, g)


AFFINE_MONOS = [m for m in product(range(2), repeat=3) if sum(m) <= 1]


@given(polys(), st.lists(polys(monos=AFFINE_MONOS), min_size=3, max_size=3))
def test_affine_field_never_raises_degree(p, affine_field):
    derived = lie_derivative(p, affine_field)
    assert derived.degree() <= p.degree()


@given(polys(sp=XY, monos=[m for m in product(range(3), repeat=2) if sum(m) <= 3]))
@settings(max_examples=50)
def test_substitute_respects_composition(p):
    # sigma: XY -> XYZ, tau: XYZ -> XY
    sigma = {0: P("x1 + x3", XYZ), 1: P("x2*x3", XYZ)}
    tau = {0: P("x2", XY), 1: P("x1 - 1", XY), 2: P("x1*x2", XY)}
    once = p.substitute(sigma).substitute(tau)
    composed = {i: sigma[i].substitute(tau) for i in sigma}
    assert once == p.substitute(composed, target=XY)


# Substitution images over UV: constants included, so images carry constant
# terms; few and small coefficients, so products and sums often cancel.
MONOS_UV = [m for m in product(range(3), repeat=2) if sum(m) <= 2]
small_coeffs = st.sampled_from([Fraction(k, d) for k in (-2, -1, 1, 3) for d in (1, 2, 3)])


def images_uv(coeffs=coeffs):
    """One image per variable of XYZ, each a polynomial over UV."""
    image = st.dictionaries(st.sampled_from(MONOS_UV), coeffs, max_size=4)
    return st.lists(image.map(lambda d: Polynomial(UV, d)), min_size=3, max_size=3).map(
        lambda imgs: dict(enumerate(imgs))
    )


@given(
    st.dictionaries(st.sampled_from(MONOS_3), small_coeffs, max_size=6).map(
        lambda d: Polynomial(XYZ, d)
    ),
    images_uv(small_coeffs),
)
@settings(max_examples=300, deadline=None)
def test_substitute_keeps_the_chained_operator_result_and_order(p, images):
    expected = list(chained_substitute(p, images).terms.items())
    assert list(p.substitute(images).terms.items()) == expected


@given(
    st.dictionaries(st.sampled_from(MONOS_3), small_coeffs, max_size=6).map(
        lambda d: Polynomial(XYZ, d)
    ),
    st.integers(min_value=0, max_value=5),
)
@settings(max_examples=300, deadline=None)
def test_pow_keeps_the_square_and_multiply_result_and_order(p, e):
    assert list((p**e).terms.items()) == list(pow_by_squaring(p, e).terms.items())


@given(
    st.dictionaries(st.sampled_from(MONOS_3), small_coeffs, max_size=6).map(
        lambda d: Polynomial(XYZ, d)
    ),
    st.dictionaries(st.sampled_from(MONOS_3), small_coeffs, max_size=6).map(
        lambda d: Polynomial(XYZ, d)
    ),
)
# x1*x2 cancels; in the second, it cancels and comes back at the end.
@example(P("x1 + x2", XYZ), P("x1 - x2", XYZ))
@example(P("x1 + x2 + 1", XYZ), P("x2 - x1 + x1*x2", XYZ))
@settings(max_examples=300, deadline=None)
def test_mul_keeps_the_fraction_loop_result_and_order(p, q):
    assert list((p * q).terms.items()) == list(fraction_mul(p, q).items())


def test_substitute_keeps_the_chained_operator_order_through_cancellation():
    # u^2, u and v^2 each cancel midway; u^2 comes back after the constant,
    # where `+` puts a key it has popped, not where it first appeared.
    p = P("x1*x2 - x3^2 + x3 + x1^2", XYZ)
    images = {0: P("u + v", UV), 1: P("u - v", UV), 2: P("u + 1/2", UV)}
    result = list(p.substitute(images).terms.items())
    assert result == list(chained_substitute(p, images).terms.items())
    assert result == [((0, 0), Fraction(1, 4)), ((2, 0), 1), ((1, 1), 2)]


exact_points = st.integers(min_value=-8000, max_value=8000).map(
    lambda k: Fraction(k, 8)
)
exact_coeffs = st.integers(min_value=-8000, max_value=8000).map(
    lambda k: Fraction(k, 8)
)


@given(
    st.dictionaries(
        st.sampled_from([m for m in product(range(3), repeat=2) if sum(m) <= 3]),
        exact_coeffs,
        max_size=4,
    ),
    st.tuples(exact_points, exact_points),
)
def test_evaluate_matches_exact_rational(terms, point):
    p = Polynomial(XY, terms)
    exact = p.evaluate_exact(point)
    # keep the instance well conditioned: skip near-total cancellations,
    # where no double-precision sum could meet a relative bound
    magnitude = sum(
        abs(c) * abs(point[0]) ** m[0] * abs(point[1]) ** m[1]
        for m, c in p.terms.items()
    )
    assume(magnitude == 0 or abs(exact) >= magnitude / 10**6)
    approx = p.evaluate([float(point[0]), float(point[1])])
    assert abs(approx - float(exact)) <= 1e-12 * max(1.0, abs(float(exact)))


def _evaluate_by_unit_multiplies(p, point):
    """Reference: ``float(coeff)``, then one multiply per unit of exponent,
    summed from the highest total degree down, ties from the largest
    exponent tuple down (graded-lex descending)."""
    total = 0.0
    for mono in sorted(p.terms, key=lambda m: (sum(m), m), reverse=True):
        value = float(p.terms[mono])
        for x, e in zip(point, mono):
            for _ in range(e):
                value *= x
        total += value
    return total


# Ratios of integers up to 2^200 exercise the correctly rounded division of
# big integers without leaving the double range.
wide_coeffs = st.builds(Fraction, st.integers(-(2**200), 2**200), st.integers(1, 2**200))


@given(
    st.dictionaries(st.sampled_from(MONOS_3), wide_coeffs, max_size=6),
    st.tuples(st.floats(), st.floats(), st.floats()),
)
def test_evaluate_equals_unit_multiply_loop_bit_for_bit(terms, point):
    p = Polynomial(XYZ, terms)
    assert p.evaluate(point).hex() == _evaluate_by_unit_multiplies(p, point).hex()


def test_evaluate_overflows_like_float_on_a_huge_coefficient():
    p = Polynomial(XY, {(1, 0): Fraction(10**400, 3), (0, 0): 1})
    with pytest.raises(OverflowError):
        _evaluate_by_unit_multiplies(p, (1.0, 1.0))
    with pytest.raises(OverflowError):
        p.evaluate((1.0, 1.0))


# --- sympy oracle ---------------------------------------------------------------
#
# Each operation is checked against sympy's expansion of the same expression,
# code that shares nothing with slin's term dicts. Inputs reach sympy only as
# their terms; the operation itself is sympy's.


def _sympy():
    return pytest.importorskip("sympy")


@settings(max_examples=60, deadline=None)
@given(polys(), polys())
def test_add_and_mul_agree_with_sympy(p, q):
    a, b = to_sympy(p), to_sympy(q)
    assert (p + q).terms == sympy_terms(a + b, XYZ)
    assert (p - q).terms == sympy_terms(a - b, XYZ)
    assert (p * q).terms == sympy_terms(a * b, XYZ)


@settings(max_examples=40, deadline=None)
@given(polys(), st.integers(min_value=0, max_value=4))
def test_pow_agrees_with_sympy(p, k):
    assert (p**k).terms == sympy_terms(to_sympy(p) ** k, XYZ)


@settings(max_examples=60, deadline=None)
@given(polys())
def test_differentiate_agrees_with_sympy(p):
    sympy = _sympy()
    a = to_sympy(p)
    for i, x in enumerate(sympy.symbols(XYZ.names)):
        assert p.differentiate(i).terms == sympy_terms(sympy.diff(a, x), XYZ)


@settings(max_examples=60, deadline=None)
@given(polys(), st.lists(polys(), min_size=3, max_size=3))
def test_lie_derivative_agrees_with_sympy(p, field):
    sympy = _sympy()
    a = to_sympy(p)
    xs = sympy.symbols(XYZ.names)
    expected = sum(sympy.diff(a, x) * to_sympy(f) for x, f in zip(xs, field))
    assert lie_derivative(p, field).terms == sympy_terms(expected, XYZ)


def _sympy_substitute(p, images, target):
    sympy = _sympy()
    xs = sympy.symbols(p.space.names)
    composed = to_sympy(p).xreplace({xs[i]: to_sympy(img) for i, img in images.items()})
    return sympy_terms(composed, target)


@settings(max_examples=80, deadline=None)
@given(polys(), images_uv())
@example(  # cancellation to zero: x1^2 - x2 with x1 -> u + 1, x2 -> (u + 1)^2
    Polynomial(XYZ, {(2, 0, 0): 1, (0, 1, 0): -1}),
    {0: Polynomial(UV, {(1, 0): 1, (0, 0): 1}),
     1: Polynomial(UV, {(2, 0): 1, (1, 0): 2, (0, 0): 1}),
     2: Polynomial(UV, {})},
)
@example(  # exponent 4 of an image with a constant term, unlike denominators
    Polynomial(XYZ, {(0, 0, 4): Fraction(1, 6), (1, 0, 0): Fraction(-3, 4)}),
    {0: Polynomial(UV, {(0, 1): Fraction(2, 5)}),
     1: Polynomial(UV, {}),
     2: Polynomial(UV, {(1, 1): Fraction(1, 2), (0, 0): Fraction(-1, 3)})},
)
def test_substitute_agrees_with_sympy(p, images):
    assert p.substitute(images).terms == _sympy_substitute(p, images, UV)


@pytest.mark.parametrize("text", ["7/3", "0", "-5"])
def test_substitute_rehomes_a_constant_with_no_images(text):
    p = P(text, XYZ)
    result = p.substitute({}, target=UV)
    assert result.space == UV
    assert result.terms == _sympy_substitute(p, {}, UV)
    assert list(result.terms.items()) == list(
        chained_substitute(p, {}, target=UV).terms.items()
    )


def test_immutability():
    p = P("x1", XY)
    with pytest.raises(AttributeError):
        p.terms = {}


# --- canonical form --------------------------------------------------------------
#
# Only the public constructor canonicalizes; arithmetic builds its results
# from terms it trusts to be canonical already. Every such result must be a
# fixed point of the public constructor, items and their order included.


def test_public_constructor_canonicalizes():
    p = Polynomial(XY, {(1, 0): 0, (0, 1): Fraction(0), (2, 0): 3, (0, 0): Fraction(1, 2)})
    assert list(p.terms.items()) == [((2, 0), Fraction(3)), ((0, 0), Fraction(1, 2))]
    assert all(type(c) is Fraction for c in p.terms.values())
    assert Polynomial(XY, {(1, 0): 0}).is_zero()


@pytest.mark.parametrize("mono", [(1,), (1, 0, 0), (1, -1), (1.5, 0), (2.0, 0), ("1", 0)])
def test_public_constructor_rejects_bad_exponent_tuples(mono):
    with pytest.raises(ValueError, match="bad exponent tuple"):
        Polynomial(XY, {mono: 1})


def test_public_constructor_keeps_a_fraction_as_it_is():
    coeff = Fraction(2, 3)
    assert Polynomial(space("x"), {(1,): coeff}).terms[(1,)] is coeff


def _assert_canonical(p):
    n = len(p.space)
    for mono, coeff in p.terms.items():
        assert type(coeff) is Fraction and coeff != 0
        assert type(mono) is tuple and len(mono) == n
        assert all(type(e) is int and e >= 0 for e in mono)
    assert list(Polynomial(p.space, p.terms).terms.items()) == list(p.terms.items())


# Few and small coefficients, so sums and products often cancel.
cancelling_polys = st.dictionaries(st.sampled_from(MONOS_3), small_coeffs, max_size=5).map(
    lambda d: Polynomial(XYZ, d)
)


@given(
    cancelling_polys,
    cancelling_polys,
    small_coeffs,
    st.integers(min_value=0, max_value=3),
    st.lists(cancelling_polys, min_size=3, max_size=3),
    images_uv(small_coeffs),
)
@settings(max_examples=150, deadline=None)
def test_every_trusted_result_is_canonical(p, q, c, k, field, images):
    results = [
        p + q,
        p - q,
        p - p,
        p + (-p),
        -p,
        p * 0,
        p * c,
        p * q,
        p**k,
        p.substitute(images),
        lie_derivative(p, field),
        lie_derivative(p, [p - p] * 3),
        parse_polynomial(p.render(), XYZ),
        parse_polynomial(f"{p.render()} - ({q.render()}) + {q.render()}", XYZ),
        parse_polynomial(f"{p.render()} - ({p.render()})", XYZ),
    ]
    results.extend(p.differentiate(i) for i in range(3))
    for result in results:
        _assert_canonical(result)
    assert (p - p).is_zero() and (p * 0).is_zero()

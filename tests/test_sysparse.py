"""System-file grammar: positive examples, rejections with positions, round-trips."""

import random
from fractions import Fraction
from functools import reduce
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slin import (
    NonPolynomialError,
    ParseError,
    Polynomial,
    parse_polynomial,
    parse_system,
    render_system,
)
from slin.sysparse import load_system

from helpers import FIVE_STATE, P, TWO_STATE, random_layered_system, space


def test_parse_five_state_file():
    s = parse_system(FIVE_STATE)
    assert s.dim == 5
    assert s.vars.names == ("x1", "x2", "x3", "x4", "x5")
    assert s.rhs[4] == P("-x5 + x3^2 + x1^2*x2", s.vars)
    assert s.rhs[0] == P("x2", s.vars)


def test_parse_single_zero_equation():
    s = parse_system("vars: x\nx' = 0\n")
    assert s.dim == 1
    assert s.rhs[0].is_zero()


def test_comments_and_blank_lines():
    s = parse_system(
        "# leading comment\n\nvars: x y  # trailing\n\nx' = y   # dynamics\ny' = -x\n"
    )
    assert s.rhs[0] == P("y", s.vars)


def test_declaration_order_is_kept():
    s = parse_system("vars: b a\nb' = a\na' = b\n")
    assert s.vars.names == ("b", "a")


# --- rejections --------------------------------------------------------------


def test_division_by_variable_is_non_polynomial():
    with pytest.raises(NonPolynomialError) as exc:
        parse_system("vars: x\nx' = 1/x\n")
    assert exc.value.line == 2
    assert exc.value.column >= 7


def test_division_of_variable_is_non_polynomial():
    with pytest.raises(NonPolynomialError):
        parse_system("vars: x\nx' = x/2\n")


def test_negative_exponent_rejected():
    with pytest.raises(NonPolynomialError):
        parse_system("vars: x\nx' = x^-2\n")


def test_fractional_exponent_rejected():
    with pytest.raises(NonPolynomialError):
        parse_system("vars: x\nx' = x^(1/2)\n")


def test_implicit_multiplication_rejected():
    with pytest.raises(ParseError, match="[*]"):
        parse_system("vars: x\nx' = 2 x\n")


def test_undeclared_variable_in_expression():
    with pytest.raises(ParseError, match="undeclared variable 'z'") as exc:
        parse_system("vars: x\nx' = z + 1\n")
    assert (exc.value.line, exc.value.column) == (2, 6)


def test_undeclared_variable_in_head():
    with pytest.raises(ParseError, match="undeclared variable 'y'"):
        parse_system("vars: x\nx' = 0\ny' = 0\n")


def test_duplicate_equation():
    with pytest.raises(ParseError, match="duplicate equation"):
        parse_system("vars: x y\nx' = 0\nx' = 1\ny' = 0\n")


def test_missing_equation():
    with pytest.raises(ParseError, match="missing equation.*y"):
        parse_system("vars: x y\nx' = 0\n")


def test_duplicate_variable_names():
    with pytest.raises(ParseError, match="duplicate variable name"):
        parse_system("vars: x x\nx' = 0\n")


def test_missing_header():
    with pytest.raises(ParseError, match="vars"):
        parse_system("x' = 0\n")


def test_empty_variable_list():
    with pytest.raises(ParseError, match="at least one variable"):
        parse_system("vars:\nx' = 0\n")


def test_unexpected_character_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_system("vars: x\nx' = x + $\n")
    assert (exc.value.line, exc.value.column) == (2, 10)


def test_zero_denominator_rejected():
    with pytest.raises(ParseError, match="zero denominator"):
        parse_system("vars: x\nx' = 1/0\n")


def test_unbalanced_parenthesis():
    with pytest.raises(ParseError):
        parse_system("vars: x\nx' = (x + 1\n")


def test_empty_rhs():
    with pytest.raises(ParseError, match="expected a term"):
        parse_system("vars: x\nx' =\n")


# --- rendering ---------------------------------------------------------------


def test_render_two_state_system():
    text = render_system(parse_system(TWO_STATE))
    assert "x' = y^2 - x" in text.splitlines()
    assert "y' = -y" in text.splitlines()


def test_render_zero_system():
    assert "x' = 0" in render_system(parse_system("vars: x\nx' = 0\n"))


def test_parse_render_roundtrip_on_random_systems():
    rng = random.Random(20240817)
    for _ in range(100):
        s = random_layered_system(rng)
        assert parse_system(render_system(s)) == s


rational_literals = st.fractions(min_value=-50, max_value=50, max_denominator=9)


@given(st.lists(rational_literals, min_size=1, max_size=4))
@settings(max_examples=60)
def test_roundtrip_constant_systems(values):
    names = " ".join(f"c{i}" for i in range(len(values)))
    lines = [f"vars: {names}"]
    for i, v in enumerate(values):
        lines.append(f"c{i}' = {v}")
    s = parse_system("\n".join(lines) + "\n")
    assert parse_system(render_system(s)) == s
    for i, v in enumerate(values):
        assert s.rhs[i] == Polynomial.constant(s.vars, v)


def test_load_system_names_the_file_in_a_grammar_error(tmp_path):
    path = tmp_path / "bad.sys"
    path.write_text("vars: x\nx' = 1/x\n")
    with pytest.raises(NonPolynomialError) as exc:
        load_system(path)
    assert (exc.value.path, exc.value.line) == (path, 2)
    assert str(exc.value) == f"{path}:2:{exc.value.column}: {exc.value.message}"


@given(st.text(alphabet="xy12+-*^/() \t'=#:\n", max_size=40))
@settings(max_examples=300)
def test_parser_total_over_garbage(text):
    # every rejection is a positioned ParseError, never a stray exception
    try:
        parse_system("vars: x y\nx' = " + text + "\ny' = 0\n")
    except ParseError:
        pass


# --- the parser against Polynomial's operators ---------------------------------

XY = space("x y")


def _signed_sum(parts):
    (neg, (text, value)), rest = parts[0], parts[1:]
    text, value = ("-" + text, -value) if neg else (text, value)
    for neg, (t_text, t_value) in rest:
        text += (" - " if neg else " + ") + t_text
        value = value - t_value if neg else value + t_value
    return text, value


def _product(factors):
    return "*".join(t for t, _ in factors), reduce(mul, (v for _, v in factors))


def _power_and_sign(args):
    (text, value), k, neg = args
    if k is not None:
        text, value = f"{text}^{k}", value**k
    return ("-" + text, -value) if neg else (text, value)


def expressions(depth=1):
    """(text, value): `value` is `text` evaluated with Polynomial's operators,
    left to right, as the grammar associates it."""
    literal = st.fractions(min_value=0, max_value=4, max_denominator=3).map(
        lambda c: (str(c), Polynomial.constant(XY, c))
    )
    variable = st.sampled_from(
        [(name, Polynomial.variable(XY, i)) for i, name in enumerate(XY.names)]
    )
    atom = st.tuples(
        st.one_of(literal, variable), st.none() | st.integers(0, 4), st.booleans()
    )
    if depth > 0:
        group = expressions(depth - 1).map(lambda tv: (f"({tv[0]})", tv[1]))
        atom = atom | st.tuples(group, st.none() | st.integers(0, 2), st.booleans())
    term = st.lists(atom.map(_power_and_sign), min_size=1, max_size=3).map(_product)
    return st.lists(st.tuples(st.booleans(), term), min_size=1, max_size=4).map(_signed_sum)


@given(expressions())
@settings(max_examples=150, deadline=None)
def test_parse_equals_the_operators_dict_order_included(case):
    text, value = case
    assert list(parse_polynomial(text, XY).terms.items()) == list(value.terms.items())


"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial lives in a fixed :class:`VariableSpace` and stores its terms as
a dict mapping exponent tuples to nonzero ``Fraction`` coefficients:

    x1*x2^2 - 7/2  over (x1, x2)  ->  {(1, 2): Fraction(1), (0, 0): Fraction(-7, 2)}

All arithmetic is exact; doubles appear only in :meth:`Polynomial.evaluate`.
Values are immutable after construction (nothing here mutates its inputs), so
they are safe to share freely.

The canonical term order is graded lexicographic over the ambient variable
order: higher total degree first, ties broken by comparing exponent tuples
left to right. Rendering, coefficient-vector indexing and the row reduction
in the lifting module all use this order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Mapping, Sequence, Union

from .errors import SpaceMismatchError

#: Degree of the zero polynomial. Keeps degree arithmetic total:
#: deg(a*b) = deg(a) + deg(b) holds for every pair including zero.
NEG_INF = float("-inf")

Monomial = tuple  # exponent tuple, one entry per variable of the space
Scalar = Union[int, Fraction]


def grlex_key(mono: Monomial):
    """Sort key realizing graded-lex order (ascending; reverse for descending)."""
    return (sum(mono), mono)


@dataclass(frozen=True)
class VariableSpace:
    """Ordered set of distinct variable names; fixes monomial positions."""

    names: tuple

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate variable names: {self.names}")

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self):
        return iter(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("space", "terms")

    def __init__(self, space: VariableSpace, terms: Mapping[Monomial, Scalar]):
        n = len(space)
        canon = {}
        for mono, coeff in terms.items():
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            mono = tuple(mono)
            if len(mono) != n or any(e < 0 for e in mono):
                raise ValueError(f"bad exponent tuple {mono} for space of size {n}")
            canon[mono] = canon.get(mono, Fraction(0)) + coeff
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "terms", {m: c for m, c in canon.items() if c != 0})

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # --- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, space: VariableSpace) -> "Polynomial":
        return cls(space, {})

    @classmethod
    def constant(cls, space: VariableSpace, value: Scalar) -> "Polynomial":
        return cls(space, {(0,) * len(space): Fraction(value)})

    @classmethod
    def variable(cls, space: VariableSpace, index: int) -> "Polynomial":
        if not 0 <= index < len(space):
            raise IndexError(f"variable index {index} out of range for {space.names}")
        mono = [0] * len(space)
        mono[index] = 1
        return cls(space, {tuple(mono): Fraction(1)})

    # --- basic queries ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self):
        """Total degree; NEG_INF for the zero polynomial."""
        if not self.terms:
            return NEG_INF
        return max(sum(m) for m in self.terms)

    def is_constant(self) -> bool:
        return self.degree() <= 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.space == other.space and self.terms == other.terms

    def __hash__(self):
        return hash((self.space, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # --- arithmetic ---------------------------------------------------------

    def _check_space(self, other: "Polynomial"):
        if self.space != other.space:
            raise SpaceMismatchError(
                f"operands live in different spaces: {self.space.names} vs {other.space.names}"
            )

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.space, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_space(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            acc = out.get(mono, Fraction(0)) + coeff
            if acc:
                out[mono] = acc
            else:
                out.pop(mono, None)
        return Polynomial(self.space, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.space, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.space, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return Polynomial(self.space, {m: k * c for m, k in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_space(other)
        out = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                mono = tuple(ea + eb for ea, eb in zip(ma, mb))
                acc = out.get(mono, Fraction(0)) + ca * cb
                if acc:
                    out[mono] = acc
                else:
                    del out[mono]
        return Polynomial(self.space, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {exponent!r}")
        if exponent == 0:
            return Polynomial.constant(self.space, 1)
        terms, den = _int_terms(self)
        den **= exponent
        return Polynomial(
            self.space, {m: Fraction(c, den) for m, c in _int_pow(terms, exponent).items()}
        )

    # --- calculus -----------------------------------------------------------

    def differentiate(self, var_index: int) -> "Polynomial":
        """Formal partial derivative with respect to variable ``var_index``."""
        if not 0 <= var_index < len(self.space):
            raise IndexError(
                f"variable index {var_index} out of range for {self.space.names}"
            )
        out = {}
        for mono, coeff in self.terms.items():
            e = mono[var_index]
            if e == 0:
                continue
            lowered = list(mono)
            lowered[var_index] = e - 1
            out[tuple(lowered)] = coeff * e
        return Polynomial(self.space, out)

    def substitute(
        self,
        images: Mapping[int, "Polynomial"],
        target: VariableSpace = None,
    ) -> "Polynomial":
        """Compose with ``images``: replace variable ``i`` by ``images[i]``.

        Every variable actually appearing in the polynomial must have an
        image; all images must share one target space. ``target`` is only
        needed when ``images`` is empty (a constant being re-homed).

        The result, dict order included, is that of summing with ``+``, in
        term order, each term's ``constant(coeff) * images[i]**e * ...``
        taken in variable order. It is computed on plain ``int`` term dicts:
        each used image over the lcm of its denominators, its powers cached
        with their denominators, every term's product formed in the loop
        order of ``*`` and ``**`` and added into one dict over the terms'
        common denominator, dropping a key whose sum is zero as ``+`` does.
        One ``Polynomial`` is built at the end.
        """
        for img in images.values():
            if target is None:
                target = img.space
            elif img.space != target:
                raise SpaceMismatchError("substitution images live in different spaces")
        if target is None:
            target = self.space
        used = set()
        for mono in self.terms:
            used.update(i for i, e in enumerate(mono) if e > 0)
        missing = sorted(used - set(images))
        if missing:
            names = ", ".join(self.space.names[i] for i in missing)
            raise KeyError(f"no substitution image for used variable(s): {names}")

        # A term's denominator is its coefficient's times its factors', known
        # before any product is formed: one pass fixes the common denominator,
        # a second forms each term over it and adds it in.
        zero = (0,) * len(target)
        ints = {i: _int_terms(images[i]) for i in used}
        powers = {i: {} for i in used}  # image powers: e -> (int terms, denominator)
        plan = []
        common = 1
        for mono, coeff in self.terms.items():
            den = coeff.denominator
            factors = []
            for i, e in enumerate(mono):
                if e == 0:
                    continue
                cache = powers[i]
                if e not in cache:
                    base, base_den = ints[i]
                    cache[e] = (_int_pow(base, e), base_den**e)
                factor, factor_den = cache[e]
                factors.append(factor)
                den *= factor_den
            plan.append((coeff.numerator, den, factors))
            common = math.lcm(common, den)
        out = {}
        for num, den, factors in plan:
            scale = num * (common // den)
            if not factors:
                term = {zero: scale}
            else:
                term = {m: scale * c for m, c in factors[0].items()}
                for factor in factors[1:]:
                    term = _int_mul(term, factor)
            for mono, c in term.items():
                acc = out.get(mono, 0) + c
                if acc:
                    out[mono] = acc
                else:
                    out.pop(mono, None)
        return Polynomial(target, {m: Fraction(c, common) for m, c in out.items()})

    def evaluate(self, point: Sequence[float]) -> float:
        """Numeric value at ``point``: direct sum of per-term double products.

        Each coefficient is rounded once to the nearest double, then multiplied
        by one factor per unit of exponent, variables in space order.
        """
        if len(point) != len(self.space):
            raise ValueError(
                f"point has {len(point)} coordinates, space has {len(self.space)}"
            )
        total = 0.0
        for mono, coeff in self.terms.items():
            # The correctly rounded int division float(Fraction) performs,
            # without its method dispatch.
            value = coeff.numerator / coeff.denominator
            # Most exponents are zero: fetching by index only the variables
            # that occur is cheaper than zipping every exponent with its value.
            i = 0
            for e in mono:
                if e:
                    x = point[i]
                    value *= x
                    while e > 1:
                        value *= x
                        e -= 1
                i += 1
            total += value
        return total

    def evaluate_exact(self, point: Sequence[Scalar]) -> Fraction:
        """Exact rational value at a rational point."""
        if len(point) != len(self.space):
            raise ValueError(
                f"point has {len(point)} coordinates, space has {len(self.space)}"
            )
        pt = [Fraction(x) for x in point]
        total = Fraction(0)
        for mono, coeff in self.terms.items():
            value = coeff
            for x, e in zip(pt, mono):
                if e:
                    value *= x**e
            total += value
        return total

    # --- rendering ------------------------------------------------------------

    def _render_factors(self, mono: Monomial) -> str:
        parts = []
        for name, e in zip(self.space.names, mono):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)

    def render(self) -> str:
        """Canonical text form: graded-lex descending, explicit ``*`` and ``^``."""
        if not self.terms:
            return "0"
        pieces = []
        for mono in sorted(self.terms, key=grlex_key, reverse=True):
            coeff = self.terms[mono]
            factors = self._render_factors(mono)
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = factors
            else:
                body = f"{mag}*{factors}"
            pieces.append((coeff < 0, body))
        first_neg, first_body = pieces[0]
        out = ("-" if first_neg else "") + first_body
        for neg, body in pieces[1:]:
            out += (" - " if neg else " + ") + body
        return out

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Polynomial({self.render()!r} over {self.space.names})"


def _int_terms(p: Polynomial):
    """(int terms, denominator): ``p.terms`` over the lcm of its denominators."""
    den = math.lcm(*(c.denominator for c in p.terms.values()))
    return {m: c.numerator * (den // c.denominator) for m, c in p.terms.items()}, den


def _int_mul(a: dict, b: dict) -> dict:
    """Product of int term dicts, in the loop order of `Polynomial.__mul__`."""
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            mono = tuple(map(add, ma, mb))
            acc = out.get(mono, 0) + ca * cb
            if acc:
                out[mono] = acc
            else:
                del out[mono]
    return out


def _int_pow(a: dict, e: int) -> dict:
    """``a**e`` for ``e >= 1`` by square and multiply, low exponent bits first."""
    result = None  # the constant 1, whose product with x is x itself
    while e:
        if e & 1:
            result = a if result is None else _int_mul(result, a)
        a = _int_mul(a, a) if e > 1 else a
        e >>= 1
    return result


def lie_derivative(p: Polynomial, field: Sequence[Polynomial]) -> Polynomial:
    """Derivative of ``p`` along ``field``: sum_i dp/dx_i * field_i."""
    if len(field) != len(p.space):
        raise ValueError(
            f"field has {len(field)} components, space has {len(p.space)}"
        )
    result = Polynomial.zero(p.space)
    for i, component in enumerate(field):
        if component.space != p.space:
            raise SpaceMismatchError("field component lives in a different space")
        dp = p.differentiate(i)
        if dp.terms:
            result = result + dp * component
    return result

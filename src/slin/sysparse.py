"""Parser and renderer for polynomial ODE system files.

File format (one system per file, ``#`` starts a comment, blank lines are
ignored, identifiers are ASCII)::

    vars: x1 x2 x3 x4 x5
    x1' = x2
    x2' = -x1
    x3' = x2^2
    x4' = x3 + x1*x2^2
    x5' = -x5 + x3^2 + x1^2*x2

Expression grammar: integer and rational literals (``3``, ``1485/2``), unary
minus, ``+ - * ^``, parentheses. ``^`` binds tighter than ``*`` and its
exponent must be a nonnegative integer literal. Multiplication is always
explicit (``2x`` is rejected), which keeps the parser single-token lookahead.
Every rejection carries a 1-based line:column position.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import add

from . import numeric
from .errors import NonPolynomialError, ParseError
from .poly import Polynomial, VariableSpace


@dataclass(frozen=True)
class PolySystem:
    """A polynomial ODE system: one right-hand side per declared variable."""

    vars: VariableSpace
    rhs: tuple

    def __post_init__(self):
        object.__setattr__(self, "rhs", tuple(self.rhs))
        if len(self.rhs) != len(self.vars):
            raise ValueError("one right-hand side per variable is required")
        for p in self.rhs:
            if p.space != self.vars:
                raise ValueError("right-hand sides must live over the system's variables")

    @property
    def dim(self) -> int:
        return len(self.vars)

    @cached_property
    def compiled_field(self) -> numeric.CompiledField:
        """``compile_field(rhs)``, built on first numeric use and kept."""
        return numeric.compile_field(self.rhs)


_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
_IDENT_CONT = _IDENT_START | set("0123456789_")
_DIGITS = set("0123456789")
_PUNCT = set("+-*^/()':=")


@dataclass(frozen=True)
class _Token:
    kind: str  # 'ident' | 'int' | one of the punctuation characters | 'end'
    text: str
    line: int
    column: int


def _tokenize_line(line: str, lineno: int):
    """Tokens for one source line; comments already make no difference here."""
    tokens = []
    i, n = 0, len(line)
    while i < n:
        ch = line[i]
        if ch == "#":
            break
        if ch in " \t\r":
            i += 1
            continue
        col = i + 1
        if ch in _IDENT_START:
            j = i + 1
            while j < n and line[j] in _IDENT_CONT:
                j += 1
            tokens.append(_Token("ident", line[i:j], lineno, col))
            i = j
        elif ch in _DIGITS:
            j = i + 1
            while j < n and line[j] in _DIGITS:
                j += 1
            tokens.append(_Token("int", line[i:j], lineno, col))
            i = j
        elif ch in _PUNCT:
            tokens.append(_Token(ch, ch, lineno, col))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", lineno, col)
    tokens.append(_Token("end", "", lineno, len(line.rstrip()) + 1))
    return tokens


class _ExprParser:
    """Recursive-descent parser for one right-hand-side expression.

    A factor that is a monomial stays a (coefficient, exponent tuple) pair
    until it meets a factor that is not a monomial, so a monomial term builds
    no `Polynomial` at all. A sum adds its terms into one dict, with the
    get/add/pop-on-zero steps of `Polynomial.__add__`, and builds one
    `Polynomial` at the end: the public constructor, which canonicalizes
    what the text gave, once per sum, so parsing a sum takes time linear in
    its terms. The result, dict order included, is that of evaluating the
    expression with `Polynomial`'s operators, left to right.
    """

    def __init__(self, tokens, space: VariableSpace):
        self.tokens = tokens
        self.pos = 0
        self.space = space
        self.zero = (0,) * len(space)

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: _Token = None, non_polynomial: bool = False):
        tok = tok or self.peek()
        cls = NonPolynomialError if non_polynomial else ParseError
        raise cls(message, tok.line, tok.column)

    def parse(self) -> Polynomial:
        value = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            if tok.kind in ("ident", "int", "("):
                self.fail(
                    f"expected an operator before {tok.text!r}"
                    " (multiplication must be written with '*')",
                    tok,
                )
            self.fail(f"unexpected {tok.text!r}", tok)
        return value

    def expr(self) -> Polynomial:
        negate = False
        if self.peek().kind == "-":
            self.advance()
            negate = True
        out = {}
        _add_term(out, self.term(), negate)
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            _add_term(out, self.term(), op.kind == "-")
        return Polynomial(self.space, out)

    def _poly(self, value) -> Polynomial:
        """A factor as a `Polynomial`."""
        if isinstance(value, tuple):
            coeff, mono = value
            return Polynomial(self.space, {mono: coeff})
        return value

    def term(self):
        value = self.factor()
        while True:
            tok = self.peek()
            if tok.kind == "*":
                self.advance()
                rhs = self.factor()
                if isinstance(value, tuple) and isinstance(rhs, tuple):
                    value = (value[0] * rhs[0], tuple(map(add, value[1], rhs[1])))
                else:
                    value = self._poly(value) * self._poly(rhs)
            elif tok.kind == "/":
                self.fail(
                    "division is only allowed inside rational literals like 1485/2",
                    tok,
                    non_polynomial=True,
                )
            else:
                return value

    def factor(self):
        """A monomial as a (coefficient, exponent tuple) pair, or a `Polynomial`."""
        if self.peek().kind == "-":
            self.advance()
            value = self.factor()
            if isinstance(value, tuple):
                return (-value[0], value[1])
            return -value
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek().kind == "^":
            caret = self.advance()
            tok = self.peek()
            if tok.kind != "int":
                self.fail(
                    "exponent must be a nonnegative integer literal",
                    tok if tok.kind != "end" else caret,
                    non_polynomial=True,
                )
            self.advance()
            k = int(tok.text)
            if isinstance(base, tuple):
                return (base[0] ** k, tuple(e * k for e in base[1]))
            return base**k
        return base

    def atom(self):
        tok = self.advance()
        if tok.kind == "int":
            value = Fraction(int(tok.text))
            if self.peek().kind == "/":
                slash = self.advance()
                den = self.peek()
                if den.kind != "int":
                    self.fail(
                        "division is only allowed inside rational literals"
                        " (denominator must be an integer)",
                        den if den.kind != "end" else slash,
                        non_polynomial=True,
                    )
                self.advance()
                if int(den.text) == 0:
                    self.fail("zero denominator in rational literal", den)
                value /= int(den.text)
            return (value, self.zero)
        if tok.kind == "ident":
            try:
                index = self.space.index(tok.text)
            except ValueError:
                self.fail(f"undeclared variable {tok.text!r}", tok)
            mono = list(self.zero)
            mono[index] = 1
            return (Fraction(1), tuple(mono))
        if tok.kind == "(":
            value = self.expr()
            closing = self.advance()
            if closing.kind != ")":
                self.fail("expected ')'", closing)
            return value
        if tok.kind == "end":
            self.fail("expected a term", tok)
        self.fail(f"unexpected {tok.text!r}", tok)


def _add_term(out: dict, value, negate: bool) -> None:
    """Add a term, a (coefficient, exponent tuple) pair or a `Polynomial`,
    negated if asked, into the term dict `out` as `Polynomial.__add__` adds:
    a key whose sum is zero is popped."""
    if isinstance(value, tuple):
        coeff, mono = value
        items = ((mono, coeff),)
    else:
        items = value.terms.items()
    for mono, coeff in items:
        acc = out.get(mono, 0) + (-coeff if negate else coeff)
        if acc:
            out[mono] = acc
        else:
            out.pop(mono, None)


def parse_polynomial(text: str, space: VariableSpace) -> Polynomial:
    """Parse a single expression over a known variable space."""
    tokens = _tokenize_line(text, 1)
    return _ExprParser(tokens, space).parse()


def parse_system(text: str) -> PolySystem:
    """Parse a full system file into a :class:`PolySystem`.

    Variables keep declaration order; every declared variable must get
    exactly one equation.
    """
    lines = text.split("\n")
    header_seen = False
    space = None
    rhs_by_index = {}
    last_line = len(lines)

    for lineno, raw in enumerate(lines, start=1):
        tokens = _tokenize_line(raw, lineno)
        if tokens[0].kind == "end":
            continue
        if not header_seen:
            space = _parse_header(tokens)
            header_seen = True
            continue

        head = tokens[0]
        if head.kind != "ident":
            raise ParseError("expected an equation like \"x' = ...\"", lineno, head.column)
        try:
            index = space.index(head.text)
        except ValueError:
            raise ParseError(
                f"undeclared variable {head.text!r} in equation head", lineno, head.column
            ) from None
        if len(tokens) < 2 or tokens[1].kind != "'":
            tok = tokens[1] if len(tokens) > 1 else head
            raise ParseError("expected \"'\" after the variable name", lineno, tok.column)
        if len(tokens) < 3 or tokens[2].kind != "=":
            tok = tokens[2] if len(tokens) > 2 else tokens[1]
            raise ParseError("expected '=' after the equation head", lineno, tok.column)
        if index in rhs_by_index:
            raise ParseError(
                f"duplicate equation for variable {head.text!r}", lineno, head.column
            )
        rhs_by_index[index] = _ExprParser(tokens[3:], space).parse()

    if not header_seen:
        raise ParseError("missing 'vars:' header", last_line, 1)
    missing = [space.names[i] for i in range(len(space)) if i not in rhs_by_index]
    if missing:
        raise ParseError(
            f"missing equation for variable(s): {', '.join(missing)}", last_line, 1
        )
    return PolySystem(space, tuple(rhs_by_index[i] for i in range(len(space))))


def _parse_header(tokens) -> VariableSpace:
    head = tokens[0]
    if head.kind != "ident" or head.text != "vars":
        raise ParseError("file must start with a 'vars:' header", head.line, head.column)
    if len(tokens) < 2 or tokens[1].kind != ":":
        raise ParseError("expected ':' after 'vars'", head.line, head.column + len(head.text))
    names = []
    for tok in tokens[2:]:
        if tok.kind == "end":
            break
        if tok.kind != "ident":
            raise ParseError(f"expected a variable name, got {tok.text!r}", tok.line, tok.column)
        if tok.text in names:
            raise ParseError(f"duplicate variable name {tok.text!r}", tok.line, tok.column)
        names.append(tok.text)
    if not names:
        raise ParseError("at least one variable is required", head.line, head.column)
    return VariableSpace(tuple(names))


def render_system(sys: PolySystem) -> str:
    """Canonical text of a system; ``parse_system`` round-trips it exactly."""
    lines = ["vars: " + " ".join(sys.vars.names)]
    for name, p in zip(sys.vars.names, sys.rhs):
        lines.append(f"{name}' = {p.render()}")
    return "\n".join(lines) + "\n"


def load_system(path) -> PolySystem:
    """Parse a system file; its every ParseError, a file that is not UTF-8
    included, names it: ``path:line:column: message``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:  # one read decodes the whole file
            raw, bad = exc.object, exc.start
            line_start = raw.rfind(b"\n", 0, bad) + 1
            position = raw.count(b"\n", 0, bad) + 1, len(raw[line_start:bad].decode()) + 1
            raise ParseError(f"not UTF-8 text ({exc.reason})", *position, path) from None
    try:
        return parse_system(text)
    except ParseError as exc:
        raise type(exc)(exc.message, exc.line, exc.column, path) from None

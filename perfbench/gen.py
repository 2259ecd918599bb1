"""Seeded input generators for the benchmark.

Systems are produced as plain data, a tuple of variable names plus one term
dict per right-hand side mapping exponent tuples to ``Fraction``
coefficients, and rendered to the system-file text the program parses. The
oracle reads the same term dicts, so it never depends on slin's parser or
polynomial type.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class GenSystem:
    """A polynomial ODE system as data: ``rhs[j]`` maps exponent tuples to coefficients."""

    name: str
    names: tuple
    rhs: tuple

    @property
    def dim(self) -> int:
        return len(self.names)

    def render(self) -> str:
        lines = ["vars: " + " ".join(self.names)]
        for name, terms in zip(self.names, self.rhs):
            lines.append(f"{name}' = {_render_terms(self.names, terms)}")
        return "\n".join(lines) + "\n"


def _render_terms(names, terms) -> str:
    pieces = []
    for mono in sorted(terms, key=lambda m: (-sum(m), m)):
        coeff = terms[mono]
        factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, mono) if e]
        mag = abs(coeff)
        if factors and mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        pieces.append(("-" if coeff < 0 else "+", body))
    if not pieces:
        return "0"
    sign, body = pieces[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


def _term_dict(items):
    out = {}
    for mono, coeff in items:
        mono = tuple(mono)
        out[mono] = out.get(mono, Fraction(0)) + Fraction(coeff)
    return {m: c for m, c in out.items() if c}


def _unit(n, i, e=1):
    mono = [0] * n
    mono[i] = e
    return tuple(mono)


def cascade(n: int, d: int) -> GenSystem:
    """``x1'=x2, x2'=-x1, xi' = -xi + x(i-1)^d + x1*x(i-2)`` for i = 3..n."""
    if n < 2 or d < 1:
        raise ValueError("cascade needs n >= 2 and d >= 1")
    rhs = [_term_dict([(_unit(n, 1), 1)]), _term_dict([(_unit(n, 0), -1)])]
    for i in range(2, n):
        x1_xim2 = list(_unit(n, 0))
        x1_xim2[i - 2] += 1
        rhs.append(
            _term_dict([(_unit(n, i), -1), (_unit(n, i - 1, d), 1), (x1_xim2, 1)])
        )
    names = tuple(f"x{i + 1}" for i in range(n))
    return GenSystem(f"cascade({n},{d})", names, tuple(rhs))


def fivestate() -> GenSystem:
    """The paper's five-state cascade, as in systems/fivestate.sys."""
    one, minus = Fraction(1), Fraction(-1)
    rhs = (
        {(0, 1, 0, 0, 0): one},
        {(1, 0, 0, 0, 0): minus},
        {(0, 2, 0, 0, 0): one},
        {(0, 0, 1, 0, 0): one, (1, 2, 0, 0, 0): one},
        {(0, 0, 0, 0, 1): minus, (0, 0, 2, 0, 0): one, (2, 1, 0, 0, 0): one},
    )
    return GenSystem("fivestate", tuple(f"x{i + 1}" for i in range(5)), rhs)


def layered_system(rng: random.Random, name: str = "") -> GenSystem:
    """One system from the acceptance-criterion-5 distribution.

    Up to six variables in up to three layers. Within a layer, variables form
    strongly connected groups joined by constant-coefficient cycles (plus
    optional constant chords and self-loops); every variable of a deeper
    layer gets one or two monomials of degree <= 3 in strictly earlier
    layers' variables. No nonconstant weight can lie inside a strong
    component, so the lifting condition holds by construction. The random
    draws are made in the same order as the test suite's generator, so one
    seed yields the same systems in both.
    """
    n = rng.randint(1, 6)
    n_layers = rng.randint(1, min(3, n))
    order = list(range(n))
    rng.shuffle(order)
    layer_of = {}
    for layer in range(n_layers):
        layer_of[order[layer]] = layer
    for v in order[n_layers:]:
        layer_of[v] = rng.randint(0, n_layers - 1)
    layers = [
        sorted(v for v in range(n) if layer_of[v] == layer)
        for layer in range(n_layers)
    ]

    terms = [dict() for _ in range(n)]

    def add(j, mono, coeff):
        mono = tuple(mono)
        terms[j][mono] = terms[j].get(mono, Fraction(0)) + Fraction(coeff)

    def const():
        c = 0
        while c == 0:
            c = rng.randint(-3, 3)
        if rng.random() < 0.25:
            return Fraction(c, rng.randint(2, 3))
        return Fraction(c)

    for layer in layers:
        group = list(layer)
        rng.shuffle(group)
        groups = []
        while group:
            size = rng.randint(1, len(group))
            groups.append(sorted(group[:size]))
            group = group[size:]
        for g in groups:
            if len(g) == 1:
                if rng.random() < 0.5:
                    add(g[0], _unit(n, g[0]), const())
            else:
                for a, b in zip(g, g[1:] + g[:1]):
                    add(b, _unit(n, a), const())
                if rng.random() < 0.3:
                    a, b = rng.choice(g), rng.choice(g)
                    add(b, _unit(n, a), const())

    earlier = []
    for depth, layer in enumerate(layers):
        for v in layer:
            if depth > 0:
                for _ in range(rng.randint(1, 2)):
                    mono = [0] * n
                    for _ in range(rng.randint(0, 3)):
                        mono[rng.choice(earlier)] += 1
                    add(v, mono, const())
            elif rng.random() < 0.3:
                add(v, [0] * n, const())
        earlier = earlier + layer

    rhs = tuple({m: c for m, c in t.items() if c} for t in terms)
    return GenSystem(name, tuple(f"x{i + 1}" for i in range(n)), rhs)


def population(seed: int, count: int):
    """The first ``count`` systems of the criterion-5 distribution under ``seed``."""
    rng = random.Random(seed)
    return [layered_system(rng, f"pop{seed}#{k}") for k in range(count)]

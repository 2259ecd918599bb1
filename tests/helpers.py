"""Shared builders for the test suite: small parsers and random generators."""

from array import array
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from slin import Polynomial, VariableSpace, Wdg, parse_polynomial, parse_system
from slin.numeric import CompiledField

TWO_STATE = """\
vars: x y
x' = -x + y^2
y' = -y
"""

FIVE_STATE = """\
vars: x1 x2 x3 x4 x5
x1' = x2
x2' = -x1
x3' = x2^2
x4' = x3 + x1*x2^2
x5' = -x5 + x3^2 + x1^2*x2
"""

OSCILLATOR = """\
vars: x1 x2
x1' = x2
x2' = -x1
"""

BLOWUP = """\
vars: x
x' = x^2
"""


# Lift-document corruptions that must be a SchemaError: fields of the wrong
# JSON type, and entries of A and D that are not strings (rationals travel as
# strings only, so none rounds through a double).
WRONG_TYPES = {
    "vars_string": lambda doc: doc.update(vars="".join(doc["vars"])),
    "m_float": lambda doc: doc.update(m=doc["m"] + 0.5),
    "m_string": lambda doc: doc.update(m=str(doc["m"])),
    "A_number": lambda doc: doc.update(A=3),
    "D_number": lambda doc: doc.update(D=3),
    "observables_number": lambda doc: doc.update(observables=1),
    "A_row_number": lambda doc: doc["A"].__setitem__(0, 7),
    "A_row_string": lambda doc: doc["A"].__setitem__(0, "1" * len(doc["A"])),
    "A_entry_list": lambda doc: doc["A"][0].__setitem__(0, ["-1"]),
    "D_entry_list": lambda doc: doc["D"].__setitem__(0, ["0"]),
    "A_entry_float": lambda doc: doc["A"][0].__setitem__(0, 0.5),
    "D_entry_int": lambda doc: doc["D"].__setitem__(0, 0),
}


def space(names: str) -> VariableSpace:
    return VariableSpace(tuple(names.split()))


def P(text: str, sp) -> Polynomial:
    if isinstance(sp, str):
        sp = space(sp)
    return parse_polynomial(text, sp)


def chained_substitute(p, images, target=None):
    """`Polynomial.substitute` as a chain of the public operators.

    Each term is ``constant(coeff) * images[i]**e * ...`` in variable order,
    and the terms are summed with ``+`` in term order. `substitute` promises
    this result, dict order included; it is the reference for that promise.
    """
    for img in images.values():
        target = img.space if target is None else target
    if target is None:
        target = p.space
    powers = {}
    result = Polynomial.zero(target)
    for mono, coeff in p.terms.items():
        term = Polynomial.constant(target, coeff)
        for i, e in enumerate(mono):
            if e:
                if (i, e) not in powers:
                    powers[i, e] = pow_by_squaring(images[i], e)
                term = term * powers[i, e]
        result = result + term
    return result


def pow_by_squaring(p, e: int):
    """``p**e`` by square and multiply over the public ``*``, low bits first.

    `Polynomial.__pow__` promises this result, dict order included; it is
    the reference for that promise.
    """
    result = Polynomial.constant(p.space, 1)
    while e:
        if e & 1:
            result = result * p
        p = p * p if e > 1 else p
        e >>= 1
    return result


def to_sympy(p):
    """`p` as a sympy expression, built from its terms alone."""
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols(p.space.names)
    return sympy.Add(
        *(
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*(x**e for x, e in zip(xs, mono)))
            for mono, c in p.terms.items()
        )
    )


def sympy_terms(expr, sp):
    """Nonzero exponent tuple -> Fraction of sympy's expansion of `expr`."""
    sympy = pytest.importorskip("sympy")
    poly = sympy.Poly(sympy.expand(expr), *sympy.symbols(sp.names))
    return {
        mono: Fraction(int(c.p), int(c.q)) for mono, c in poly.as_dict().items() if c != 0
    }


def two_state():
    return parse_system(TWO_STATE)


def five_state():
    return parse_system(FIVE_STATE)


def cascade_text(n: int, d: int) -> str:
    """``x1'=x2, x2'=-x1, xi' = -xi + x(i-1)^d + x1*x(i-2)`` for i = 3..n."""
    lines = [f"vars: {' '.join(f'x{i}' for i in range(1, n + 1))}", "x1' = x2", "x2' = -x1"]
    lines += [f"x{i}' = -x{i} + x{i - 1}^{d} + x1*x{i - 2}" for i in range(3, n + 1)]
    return "\n".join(lines) + "\n"


def cascade(n: int, d: int):
    return parse_system(cascade_text(n, d))


def random_wdg(rng) -> Wdg:
    """Random small digraph with a mix of constant and nonconstant weights."""
    n = rng.randint(1, 6)
    sp = VariableSpace(tuple(f"x{i + 1}" for i in range(n)))
    weights = {}
    for i in range(n):
        for j in range(n):
            r = rng.random()
            if r < 0.25:
                weights[(i, j)] = Polynomial.constant(sp, rng.choice([-2, -1, 1, 2, 3]))
            elif r < 0.40:
                mono = [0] * n
                mono[rng.randrange(n)] = rng.randint(1, 2)
                weights[(i, j)] = Polynomial(
                    sp, {tuple(mono): Fraction(rng.choice([-2, -1, 1, 2]))}
                )
    return Wdg(n, sp, weights)


def brute_force_simple_cycles(g: Wdg):
    """Independent cycle enumeration: try every subset and rotation-fixed order."""
    found = set()
    for k in range(1, g.n + 1):
        for subset in combinations(range(g.n), k):
            base, rest = subset[0], subset[1:]
            for perm in permutations(rest):
                cyc = (base,) + perm
                if all((cyc[t], cyc[(t + 1) % k]) in g.weights for t in range(k)):
                    found.add(cyc + (base,))
    return found


def random_layered_system(rng):
    """Random system that satisfies the lifting condition by construction.

    Variables are split into up to three layers; within a layer they form
    strongly connected groups joined by constant-coefficient cycles (plus
    optional constant chords and self-loops), and every variable of a deeper
    layer gets random polynomial forcing (degree <= 3) in strictly earlier
    layers' variables. No nonconstant weight can appear inside a strong
    component, so the condition check must accept.
    """
    n = rng.randint(1, 6)
    sp = VariableSpace(tuple(f"x{i + 1}" for i in range(n)))
    n_layers = rng.randint(1, min(3, n))
    order = list(range(n))
    rng.shuffle(order)
    layer_of = {}
    for l in range(n_layers):
        layer_of[order[l]] = l
    for v in order[n_layers:]:
        layer_of[v] = rng.randint(0, n_layers - 1)
    layers = [
        sorted(v for v in range(n) if layer_of[v] == l) for l in range(n_layers)
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

    def x_mono(v, e=1):
        mono = [0] * n
        mono[v] = e
        return mono

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
                    add(g[0], x_mono(g[0]), const())
            else:
                for a, b in zip(g, g[1:] + g[:1]):
                    add(b, x_mono(a), const())  # cycle keeps g strongly connected
                if rng.random() < 0.3:
                    a, b = rng.choice(g), rng.choice(g)
                    add(b, x_mono(a), const())

    earlier = []
    for l, layer in enumerate(layers):
        for v in layer:
            if l > 0:
                for _ in range(rng.randint(1, 2)):
                    mono = [0] * n
                    for _ in range(rng.randint(0, 3)):
                        mono[rng.choice(earlier)] += 1
                    add(v, mono, const())
            elif rng.random() < 0.3:
                add(v, [0] * n, const())  # constant drive on a source variable
        earlier = earlier + layer

    rhs = tuple(Polynomial(sp, t) for t in terms)
    from slin import PolySystem

    return PolySystem(sp, rhs)


# --- compiled maps for the kernel tests -------------------------------------

INT_MAX = 2**31 - 1


def random_compiled_map(rng, n_out: int, n_in: int, spike: bool = False):
    """A random `CompiledField` of `n_out` components over `n_in` variables.

    It has what `compile_field` never writes but the layout allows: constant
    terms, components without terms, factors of exponent 0 and a variable
    repeated across the factors of one term. Exponents go up to 12; with
    `spike`, one more term has one factor of degree 24 to 60.
    """
    terms = [[] for _ in range(n_out)]
    for c in range(n_out):
        for _ in range(rng.choice((0, 1, 2, 3, 5))):
            factors = [
                (rng.randrange(n_in), rng.randint(0, 12) if rng.random() < 0.2 else rng.randint(0, 3))
                for _ in range(rng.randint(0, 3))
            ]
            terms[c].append((rng.uniform(-2, 2), factors))
    if spike and n_out:
        factor = (rng.randrange(n_in), rng.randint(24, 60))
        terms[rng.randrange(n_out)].insert(0, (rng.uniform(-1e-3, 1e-3), [factor]))
    comp_ptr, coeff, term_ptr, fvar, fexp = [0], [], [0], [], []
    for component in terms:
        for value, factors in component:
            coeff.append(value)
            for var, e in factors:
                fvar.append(var)
                fexp.append(e)
            term_ptr.append(len(fvar))
        comp_ptr.append(len(coeff))
    return CompiledField(
        n_out, array("i", comp_ptr), array("d", coeff), array("i", term_ptr),
        array("i", fvar), array("i", fexp),
    )


def _one_term_map(fvar, fexp):
    """A one-component map over one variable whose one term has these factors."""
    return CompiledField(
        1, array("i", [0, 1]), array("d", [1.0]), array("i", [0, len(fvar)]),
        array("i", fvar), array("i", fexp),
    )


# One-variable maps the compiled helpers must reject with ValueError before
# they size their term stream.
BAD_LAYOUTS = {
    "negative_exponent": _one_term_map([0, 0, 0], [5, -4, 1]),
    "over_INT_MAX_multiplications": _one_term_map([0, 0], [INT_MAX, 1]),
    "variable_out_of_range": _one_term_map([0, 1], [1, 1]),
}

# A map whose term stream spells 2**27 multiplications: 512 MiB of indices.
HUGE_STREAM = _one_term_map([0], [2**27])


def csr_arrays(cf):
    return [cf.comp_ptr, cf.coeff, cf.term_ptr, cf.fvar, cf.fexp]

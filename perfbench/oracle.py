"""Output checks that share no algebra with slin.

`lift_identity_row` checks a lift's defining identity
``L_f(q_i) = sum_j A_ij q_j + D_i`` exactly at seeded random rational
points (Schwartz-Zippel). It evaluates the generator's own term dicts for
``f`` and the exponent/coefficient data of each expansion; it never calls
slin's polynomial arithmetic or `verify_symbolic`.

`trajectory_error` integrates the original system with scipy's DOP853 and
returns the distance to a state the program computed.
"""

from __future__ import annotations

from fractions import Fraction


def _random_point(rng, n):
    point = []
    for _ in range(n):
        num = 0
        while num == 0:  # the directional derivative divides by each coordinate
            num = rng.randint(-(2**20), 2**20)
        point.append(Fraction(num, rng.randint(1, 2**10)))
    return point


def _value(terms, powers):
    value = Fraction(0)
    for mono, coeff in terms.items():
        for k, e in enumerate(mono):
            if e:
                coeff *= powers[k][e]
        value += coeff
    return value


def _value_and_lie(terms, powers, weights):
    """Value of a term-dict polynomial and of its Lie derivative at one point.

    With ``weights[k] = f_k(x) / x_k``, each term ``c x^a`` contributes
    ``c x^a sum_k a_k weights[k]`` to the derivative along f.
    """
    value = Fraction(0)
    lie = Fraction(0)
    for mono, coeff in terms.items():
        term = coeff
        slope = 0
        for k, e in enumerate(mono):
            if e:
                term *= powers[k][e]
                slope += e * weights[k]
        value += term
        lie += term * slope
    return value, lie


def lift_identity_row(gsys, A, D, expansions, rng, points=2):
    """First 1-based row where the identity fails, 0 when it holds.

    ``expansions[i]`` is the term dict of lifted coordinate i over the
    original variables (the variable itself for i < n). A nonzero polynomial
    residual of degree d vanishes at a random point with probability at most
    d / 2^21, so two points make a false pass negligible.
    """
    dim = len(expansions)
    if len(A) != dim or any(len(row) != dim for row in A) or len(D) != dim:
        return 1
    n = gsys.dim
    top = max(max(m) for polys in (expansions, gsys.rhs) for p in polys for m in p)
    for _ in range(points):
        x = _random_point(rng, n)
        powers = []
        for xk in x:
            col = [Fraction(1)]
            for _ in range(top):
                col.append(col[-1] * xk)
            powers.append(col)
        f_at = [_value(f, powers) for f in gsys.rhs]
        weights = [fk / xk for fk, xk in zip(f_at, x)]
        values, lies = zip(*(_value_and_lie(q, powers, weights) for q in expansions))
        for i in range(dim):
            rhs = D[i] + sum(a * v for a, v in zip(A[i], values) if a)
            if lies[i] != rhs:
                return i + 1
    return 0


def unit_expansions(n):
    """Term dicts of the bare coordinates x_1..x_n."""
    out = []
    for i in range(n):
        mono = [0] * n
        mono[i] = 1
        out.append({tuple(mono): Fraction(1)})
    return out


def trajectory_error(gsys, x0, t_end, state):
    """Max-norm distance between ``state`` and DOP853 (rtol 1e-12) at ``t_end``."""
    from scipy.integrate import solve_ivp

    fields = [
        [(tuple(mono), float(c)) for mono, c in terms.items()] for terms in gsys.rhs
    ]

    def rhs(_t, y):
        out = []
        for terms in fields:
            acc = 0.0
            for mono, c in terms:
                v = c
                for yk, e in zip(y, mono):
                    if e:
                        v *= yk**e
                acc += v
            out.append(acc)
        return out

    sol = solve_ivp(
        rhs, (0.0, t_end), list(x0), method="DOP853", rtol=1e-12, atol=1e-12
    )
    if not sol.success:
        return float("inf")
    return max(abs(a - b) for a, b in zip(sol.y[:, -1], state))

"""Hand-derived 21-dimensional lift of the five-state cascade, as a fixture.

The sixteen observables were obtained by iterating Lie derivatives along the
stage fields by hand: p1..p3 close the x3 forcing over the oscillator block,
p4..p7 absorb x1*x2^2, and p8..p16 absorb x3^2 + x1^2*x2 (definitions reuse
earlier observables as shorthand, exactly as derived). `correct_lift` wires
the x5 row to p8 = x3^2 + x1^2*x2 and verifies exactly; `miswired_lift` wires
it to p7 instead, a plausible transcription slip whose residual the verifier
must pinpoint.
"""

from fractions import Fraction

from slin import Polynomial, VariableSpace
from slin.lift import Observable, SuperLinearization

NAMES = tuple(f"x{i}" for i in range(1, 6)) + tuple(f"p{i}" for i in range(1, 17))
LIFTED = VariableSpace(NAMES)
X_SPACE = VariableSpace(NAMES[:5])


def _definitions():
    def v(nm):
        return Polynomial.variable(LIFTED, LIFTED.index(nm))

    x1, x2, x3 = v("x1"), v("x2"), v("x3")
    p = {i: v(f"p{i}") for i in range(1, 17)}
    half = Fraction(1, 2)

    d = {}
    d[1] = x2**2
    d[2] = -2 * x1 * x2
    d[3] = 2 * (x1**2 - x2**2)
    d[4] = x1 * x2**2
    d[5] = x2**3 - 2 * x1**2 * x2
    d[6] = -7 * p[4] + 2 * x1**3
    d[7] = -7 * p[5] + 6 * x1**2 * x2
    d[8] = x3**2 + x1**2 * x2
    d[9] = 2 * x3 * p[1] - half * (p[6] + 3 * p[4])
    d[10] = 2 * p[1] ** 2 + 2 * x3 * p[2] - half * (p[7] + 3 * p[5])
    d[11] = 6 * p[1] * p[2] + 2 * x3 * p[3] + half * (9 * p[4] + 7 * p[6])
    d[12] = 6 * p[2] ** 2 + 8 * p[1] * p[3] - 8 * x3 * p[2] + half * (9 * p[5] + 7 * p[7])
    d[13] = (
        20 * p[2] * p[3] - 40 * p[1] * p[2] - 8 * x3 * p[3]
        - half * (63 * p[4] + 61 * p[6])
    )
    d[14] = (
        20 * p[3] ** 2 - 120 * p[2] ** 2 - 48 * p[1] * p[3] + 32 * x3 * p[2]
        - half * (63 * p[5] + 61 * p[7])
    )
    d[15] = (
        -448 * p[2] * p[3] + 224 * p[1] * p[2] + 32 * x3 * p[3]
        + half * (549 * p[4] + 547 * p[6])
    )
    d[16] = (
        2016 * p[2] ** 2 - 448 * p[3] ** 2 + 256 * p[1] * p[3] - 128 * x3 * p[2]
        + half * (549 * p[5] + 547 * p[7])
    )
    return d


def observables():
    """Observables as their x-expansions, each substituted from its hand
    definition over the earlier observables."""
    defs = _definitions()
    base_images = {i: Polynomial.variable(X_SPACE, i) for i in range(5)}
    expansions = {}
    out = []
    for k in range(1, 17):
        images = dict(base_images)
        for j in range(1, k):
            images[LIFTED.index(f"p{j}")] = expansions[j]
        expansions[k] = defs[k].substitute(images, target=X_SPACE)
        out.append(Observable(f"p{k}", expansions[k]))
    return tuple(out)


def _matrix(x5_feeds: str):
    dim = 21
    col = {nm: i for i, nm in enumerate(NAMES)}
    A = [[Fraction(0)] * dim for _ in range(dim)]
    D = [Fraction(0)] * dim
    A[0][col["x2"]] = 1
    A[1][col["x1"]] = -1
    A[2][col["p1"]] = 1
    A[3][col["x3"]] = 1
    A[3][col["p4"]] = 1
    A[4][col["x5"]] = -1
    A[4][col[x5_feeds]] = 1
    for i in [1, 2, 4, 5, 6] + list(range(8, 16)):
        A[4 + i][col[f"p{i + 1}"]] = 1
    A[4 + 3][col["p2"]] = -4
    A[4 + 7][col["p6"]] = -10
    A[4 + 7][col["p4"]] = -9
    A[4 + 16][col["p4"]] = Fraction(1485, 2)
    A[4 + 16][col["p6"]] = Fraction(1215, 2)
    A[4 + 16][col["p11"]] = -256
    A[4 + 16][col["p13"]] = -144
    A[4 + 16][col["p15"]] = -24
    return tuple(tuple(row) for row in A), tuple(D)


def _build(x5_feeds: str) -> SuperLinearization:
    A, D = _matrix(x5_feeds)
    return SuperLinearization(
        n=5, m=16, A=A, D=D, observables=observables(), var_names=NAMES
    )


def correct_lift() -> SuperLinearization:
    return _build("p8")


def miswired_lift() -> SuperLinearization:
    return _build("p7")

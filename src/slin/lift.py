"""Construction of finite-dimensional linear lifts for polynomial systems.

The pipeline mirrors the layered structure of the dependency graph: the
depth-0 variables must evolve affinely among themselves; each deeper layer is
affine in its own variables with polynomial forcing from the coordinates
already lifted. Forcing terms are absorbed by growing chains of Lie
derivatives along the current affine field, with exact span detection over
the graded-lex coefficient vectors deciding when a chain closes on itself.

Everything here is exact rational arithmetic; a lift is returned only after
its defining identity has been re-checked symbolically.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .depgraph import build_skeleton, build_wdg, check_condition, scc_decomposition
from .errors import (
    ChainCapError,
    ConditionFailedError,
    DecompositionViolatedError,
    InternalInvariantError,
    SpaceMismatchError,
)
from .numeric import CompiledField, compile_affine, compile_map
from .poly import Polynomial, VariableSpace, grlex_key, lie_derivative
from .sysparse import PolySystem


@dataclass(frozen=True)
class AffineSystem:
    """dz/dt = A z + D over a named coordinate space."""

    space: VariableSpace
    A: tuple
    D: tuple

    def __post_init__(self):
        n = len(self.space)
        A = tuple(tuple(Fraction(entry) for entry in row) for row in self.A)
        D = tuple(Fraction(entry) for entry in self.D)
        if len(A) != n or any(len(row) != n for row in A) or len(D) != n:
            raise ValueError("matrix/offset dimensions do not match the space")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "D", D)

    @property
    def dim(self) -> int:
        return len(self.space)

    def field(self) -> List[Polynomial]:
        """Row polynomials A z + D, one per coordinate."""
        return _affine_field(self.space, self.A, self.D)


def _affine_field(space: VariableSpace, A: tuple, D: tuple) -> List[Polynomial]:
    """Row polynomials A z + D over `space`, each built from one term dict."""
    n = len(space)
    units = [tuple(int(k == j) for k in range(n)) for j in range(n)]
    rows = []
    for i in range(n):
        terms = {(0,) * n: D[i]}
        terms.update((units[j], a) for j, a in enumerate(A[i]) if a)
        rows.append(Polynomial(space, terms))
    return rows


@dataclass(frozen=True)
class Observable:
    """One adjoined coordinate: its stage-level definition and x-expansion."""

    index: int  # 1-based position among observables
    name: str
    definition: Polynomial  # over the creating stage's lifted coordinates
    expansion: Polynomial  # over the original x variables
    stage: int  # depth layer whose processing created it
    seed: int  # ordinal of the originating seed within that stage


@dataclass(frozen=True)
class ChainInfo:
    """Per-seed accounting used to check the chain-length bound."""

    stage: int
    seed: int
    seed_degree: int
    base_dim: int  # lifted dimension n' when the chain started
    created: int  # observables the seed contributed
    cap: int  # C(n' + d, d)


@dataclass(frozen=True)
class SuperLinearization:
    """A linear system whose first n coordinates project onto the original flow."""

    n: int
    m: int
    A: tuple
    D: tuple
    observables: tuple
    var_names: tuple  # original x names first, then observable names
    chains: tuple = ()

    def __post_init__(self):
        dim = self.n + self.m
        A = tuple(tuple(Fraction(e) for e in row) for row in self.A)
        D = tuple(Fraction(e) for e in self.D)
        if len(A) != dim or any(len(row) != dim for row in A) or len(D) != dim:
            raise ValueError("matrix/offset dimensions do not match n + m")
        if len(self.var_names) != dim:
            raise ValueError("need one coordinate name per lifted dimension")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "observables", tuple(self.observables))
        object.__setattr__(self, "var_names", tuple(self.var_names))

    @property
    def dim(self) -> int:
        return self.n + self.m

    @property
    def lifted_space(self) -> VariableSpace:
        return VariableSpace(self.var_names)

    @property
    def x_space(self) -> VariableSpace:
        return VariableSpace(self.var_names[: self.n])

    def x_expansions(self) -> List[Polynomial]:
        """Expansion of every lifted coordinate as a polynomial in x."""
        xs = self.x_space
        out = [Polynomial.variable(xs, i) for i in range(self.n)]
        out.extend(obs.expansion for obs in self.observables)
        return out

    def field(self) -> List[Polynomial]:
        """The lifted right-hand side A z + D as polynomials, for simulation."""
        return _affine_field(self.lifted_space, self.A, self.D)

    @cached_property
    def compiled_field(self) -> CompiledField:
        """``compile_affine(A, D)``, built on first numeric use and kept."""
        return compile_affine(self.A, self.D)

    @cached_property
    def compiled_expansions(self) -> CompiledField:
        """``compile_map`` of the observables' expansions, built on first
        numeric use and kept; it evaluates p(x0) as `Polynomial.evaluate`
        does, bit for bit."""
        return compile_map([obs.expansion for obs in self.observables])


@dataclass(frozen=True)
class XumamaCertificate:
    """Order N and coefficients alpha of a linear recurrence among Lie iterates."""

    N: int
    alpha: tuple

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(Fraction(a) for a in self.alpha))
        if self.N < 1 or len(self.alpha) != self.N:
            raise ValueError("need exactly N coefficients alpha_0..alpha_{N-1}")


# --- exact span detection ---------------------------------------------------


class SpanSolver:
    """Incremental exact row reduction over sparse coefficient vectors.

    Vectors are dicts mapping orderable keys to Fractions. Rows are kept in
    echelon form without back-substitution: each stored row's largest key is
    its pivot, pivots are distinct, so a vector lies in the span iff repeated
    pivot elimination empties it. Alongside each row we track its expression
    in the originally added vectors, which is what `express` reports.
    """

    def __init__(self):
        self._rows: Dict = {}  # pivot key -> (vector, combo over original tags)
        self.tags: List = []

    def _eliminate(self, vec: Dict) -> Tuple[Dict, Dict]:
        work = dict(vec)
        combo: Dict = {}
        while work:
            key = max(work)
            if key not in self._rows:
                break
            coef = work.pop(key)
            row_vec, row_combo = self._rows[key]
            for k, c in row_vec.items():
                if k == key:
                    continue
                acc = work.get(k, Fraction(0)) - coef * c
                if acc:
                    work[k] = acc
                else:
                    work.pop(k, None)
            for t, c in row_combo.items():
                acc = combo.get(t, Fraction(0)) + coef * c
                if acc:
                    combo[t] = acc
                else:
                    combo.pop(t, None)
        return work, combo

    def add(self, vec: Dict, tag) -> bool:
        """Add an original vector; returns True if it enlarged the span."""
        residual, combo = self._eliminate(vec)
        self.tags.append(tag)
        if not residual:
            return False
        pivot = max(residual)
        lead = residual[pivot]
        # vec = sum(combo * originals) + residual, so residual's expression
        # is tag minus the eliminated part; normalize the pivot to 1.
        expr = {t: -c / lead for t, c in combo.items()}
        expr[tag] = expr.get(tag, Fraction(0)) + Fraction(1) / lead
        self._rows[pivot] = (
            {k: c / lead for k, c in residual.items()},
            {t: c for t, c in expr.items() if c},
        )
        return True

    def express(self, vec: Dict) -> Optional[Dict]:
        """Coefficients over the added originals, or None if vec is outside."""
        residual, combo = self._eliminate(vec)
        if residual:
            return None
        return combo


def _poly_vec(p: Polynomial) -> Dict:
    return {grlex_key(mono): coeff for mono, coeff in p.terms.items()}


def _field_vec(components: Sequence[Polynomial]) -> Dict:
    out = {}
    for i, p in enumerate(components):
        for mono, coeff in p.terms.items():
            out[(i,) + grlex_key(mono)] = coeff
    return out


def express_in_span(
    target: Polynomial, basis: Sequence[Polynomial]
) -> Optional[List[Fraction]]:
    """Exact coefficients c with target = sum c_k basis_k, or None.

    Linearly dependent basis entries are tolerated; they simply receive
    coefficient zero. Absence of a representation is a value, not an error.
    """
    solver = SpanSolver()
    for k, b in enumerate(basis):
        if b.space != target.space:
            raise SpaceMismatchError("span basis lives in a different space")
        solver.add(_poly_vec(b), k)
    combo = solver.express(_poly_vec(target))
    if combo is None:
        return None
    coeffs = [combo.get(k, Fraction(0)) for k in range(len(basis))]
    if __debug__:
        acc = Polynomial.zero(target.space)
        for c, b in zip(coeffs, basis):
            acc = acc + b * c
        assert acc == target, "span solver produced an inexact combination"
    return coeffs


def express_field_in_span(
    target: Sequence[Polynomial], basis: Sequence[Sequence[Polynomial]]
) -> Optional[List[Fraction]]:
    """Componentwise variant: each basis entry is a whole vector field."""
    solver = SpanSolver()
    for k, b in enumerate(basis):
        solver.add(_field_vec(b), k)
    combo = solver.express(_field_vec(target))
    if combo is None:
        return None
    return [combo.get(k, Fraction(0)) for k in range(len(basis))]


# --- one layer of the construction -------------------------------------------

_CONST = ("const",)


def prop1_lift(
    affine: AffineSystem,
    layer_names: Sequence[str],
    linear_part: Sequence[Sequence[Fraction]],
    seeds: Sequence[Polynomial],
    *,
    coord_expansions: Sequence[Polynomial] = None,
    obs_prefix: str = "p",
    obs_start: int = 1,
    stage: int = 1,
):
    """Adjoin one affinely-forced block to an affine system.

    The incoming system governs z'; the new block obeys
    dx''/dt = linear_part x'' + seed(z') componentwise. Every seed grows a
    chain of Lie derivatives along the affine field. A chain element that
    falls in the span of {1} u {z' coordinates} u {observables so far} closes
    its chain with that exact dependency; otherwise it becomes the next
    observable. Chains share one span across all seeds of the call, so
    repeated nonlinearities are never adjoined twice.

    Returns (new AffineSystem over (z', x'', p), observables, chain infos).
    """
    k = len(layer_names)
    if len(seeds) != k or len(linear_part) != k:
        raise ValueError("need one seed and one matrix row per layer coordinate")
    for s in seeds:
        if s.space != affine.space:
            raise SpaceMismatchError(
                "seeds must be polynomials over the affine system's coordinates"
            )
    if coord_expansions is None:
        coord_expansions = [
            Polynomial.variable(affine.space, i) for i in range(affine.dim)
        ]

    base = affine.dim
    field = affine.field()
    solver = SpanSolver()
    solver.add(_poly_vec(Polynomial.constant(affine.space, 1)), _CONST)
    for i in range(base):
        solver.add(_poly_vec(Polynomial.variable(affine.space, i)), ("coord", i))

    observables: List[Observable] = []
    chains: List[ChainInfo] = []
    seed_expr: List[Dict] = []  # span combo for each seed's inhomogeneous part
    closing_expr: Dict[int, Dict] = {}  # local obs ordinal -> combo closing its chain
    expansion_map = dict(enumerate(coord_expansions))
    x_target = coord_expansions[0].space if base else None

    def new_observable(q: Polynomial, seed_ordinal: int) -> int:
        t = len(observables)
        name = f"{obs_prefix}{obs_start + t}"
        expansion = q.substitute(expansion_map, target=x_target)
        # Graded-lex descending, the order `render` writes and a reloaded
        # document reads back, so both sum the terms alike when evaluated.
        order = sorted(expansion.terms, key=grlex_key, reverse=True)
        expansion = Polynomial(expansion.space, {m: expansion.terms[m] for m in order})
        observables.append(
            Observable(
                index=obs_start + t,
                name=name,
                definition=q,
                expansion=expansion,
                stage=stage,
                seed=seed_ordinal,
            )
        )
        solver.add(_poly_vec(q), ("obs", t))
        return t

    for seed_ordinal, seed in enumerate(seeds):
        degree = seed.degree()
        d = int(degree) if seed.terms else 0
        cap = math.comb(base + d, d)
        created = 0
        q = seed
        combo = solver.express(_poly_vec(q))
        if combo is not None:
            seed_expr.append(combo)
        else:
            t = new_observable(q, seed_ordinal)
            created += 1
            seed_expr.append({("obs", t): Fraction(1)})
            while True:
                q = lie_derivative(q, field)
                combo = solver.express(_poly_vec(q))
                if combo is not None:
                    closing_expr[t] = combo
                    break
                if created >= cap:
                    raise ChainCapError(
                        f"chain for seed {seed_ordinal} of stage {stage} exceeded "
                        f"its dimension bound C({base}+{d},{d}) = {cap}"
                    )
                prev = t
                t = new_observable(q, seed_ordinal)
                created += 1
                closing_expr[prev] = {("obs", t): Fraction(1)}
        chains.append(ChainInfo(stage, seed_ordinal, d, base, created, cap))

    s = len(observables)
    dim = base + k + s
    names = tuple(affine.space.names) + tuple(layer_names) + tuple(
        o.name for o in observables
    )
    space = VariableSpace(names)

    def column(tag) -> int:
        if tag == _CONST:
            return -1
        kind, i = tag
        return i if kind == "coord" else base + k + i

    A = [[Fraction(0)] * dim for _ in range(dim)]
    D = [Fraction(0)] * dim
    for i in range(base):
        D[i] = affine.D[i]
        for j in range(base):
            A[i][j] = affine.A[i][j]
    for r, row in enumerate(linear_part):
        if len(row) != k:
            raise ValueError("linear part must be square over the layer")
        i = base + r
        for c, entry in enumerate(row):
            A[i][base + c] = Fraction(entry)
        for tag, coeff in seed_expr[r].items():
            if tag == _CONST:
                D[i] += coeff
            else:
                A[i][column(tag)] += coeff
    for t in range(s):
        i = base + k + t
        for tag, coeff in closing_expr[t].items():
            if tag == _CONST:
                D[i] += coeff
            else:
                A[i][column(tag)] += coeff

    return AffineSystem(space, A, D), observables, chains


# --- full pipeline ----------------------------------------------------------


def _observable_prefix(names: Sequence[str]) -> str:
    prefix = "p"
    candidates = ["p", "q", "w", "obs"]
    while True:
        for prefix in candidates:
            if not any(re.fullmatch(re.escape(prefix) + r"\d+", nm) for nm in names):
                return prefix
        candidates = [c + "_" for c in candidates]


def _affine_rows(
    sys: PolySystem, layer: Sequence[int], free: frozenset
) -> Tuple[List[List[Fraction]], List[Dict]]:
    """Split each layer equation into (constant matrix row, leftover terms).

    Leftover monomials may only involve `free` variables; any monomial of
    degree >= 1 in the layer that is not a bare c*x_i breaks the layered
    structure the condition check guarantees.
    """
    pos = {v: c for c, v in enumerate(layer)}
    layer_set = set(layer)
    rows = []
    leftovers = []
    for j in layer:
        f = sys.rhs[j]
        row = [Fraction(0)] * len(layer)
        rest: Dict = {}
        for mono, coeff in f.terms.items():
            layer_deg = sum(mono[i] for i in layer_set)
            if layer_deg == 0:
                outside = [
                    sys.vars.names[i]
                    for i, e in enumerate(mono)
                    if e and i not in free
                ]
                if outside:
                    raise DecompositionViolatedError(
                        f"equation for {sys.vars.names[j]} depends on "
                        f"{', '.join(outside)} from a deeper layer"
                    )
                rest[mono] = coeff
            elif layer_deg == 1 and sum(mono) == 1:
                i = mono.index(1)
                row[pos[i]] += coeff
            else:
                raise DecompositionViolatedError(
                    f"equation for {sys.vars.names[j]} is not affine in its layer"
                )
        rows.append(row)
        leftovers.append(rest)
    return rows, leftovers


def superlinearize(sys: PolySystem) -> SuperLinearization:
    """Construct and certify a linear lift of the given polynomial system.

    Raises ConditionFailedError (with the witness report) when the
    cycle-weight condition does not hold; the condition is sufficient only,
    so failure means "unknown", never "impossible".
    """
    g = build_wdg(sys)
    d = scc_decomposition(g)
    report = check_condition(g, d)
    if not report.ok:
        raise ConditionFailedError(report)
    skeleton = build_skeleton(g, d)

    var_layers = [
        sorted(v for ci in layer for v in d.components[ci])
        for layer in skeleton.layers
    ]
    prefix = _observable_prefix(sys.vars.names)

    # Depth-0 block: must already be affine in its own variables.
    layer0 = var_layers[0]
    rows0, leftovers0 = _affine_rows(sys, layer0, frozenset())
    D0 = []
    for j, rest in zip(layer0, leftovers0):
        const = Fraction(0)
        for mono, coeff in rest.items():
            if any(mono):
                raise DecompositionViolatedError(
                    f"equation for {sys.vars.names[j]} has nonconstant terms "
                    "outside its layer"
                )
            const += coeff
        D0.append(const)
    affine = AffineSystem(
        VariableSpace(tuple(sys.vars.names[v] for v in layer0)), rows0, D0
    )
    coord_expansions = [Polynomial.variable(sys.vars, v) for v in layer0]

    observables: List[Observable] = []
    chains: List[ChainInfo] = []
    processed = list(layer0)

    for depth in range(1, len(var_layers)):
        layer = var_layers[depth]
        rows, leftovers = _affine_rows(sys, layer, frozenset(processed))
        zpos = {}
        for v in processed:
            zpos[v] = affine.space.index(sys.vars.names[v])
        seeds = []
        for rest in leftovers:
            terms = {}
            for mono, coeff in rest.items():
                lifted = [0] * affine.dim
                for i, e in enumerate(mono):
                    if e:
                        lifted[zpos[i]] = e
                terms[tuple(lifted)] = coeff
            seeds.append(Polynomial(affine.space, terms))

        affine, new_obs, new_chains = prop1_lift(
            affine,
            [sys.vars.names[v] for v in layer],
            rows,
            seeds,
            coord_expansions=coord_expansions,
            obs_prefix=prefix,
            obs_start=len(observables) + 1,
            stage=depth,
        )
        observables.extend(new_obs)
        chains.extend(new_chains)
        coord_expansions = (
            coord_expansions
            + [Polynomial.variable(sys.vars, v) for v in layer]
            + [o.expansion for o in new_obs]
        )
        processed.extend(layer)

    # Reorder stage coordinates to (x in original order, observables).
    target_names = tuple(sys.vars.names) + tuple(o.name for o in observables)
    src = [affine.space.index(nm) for nm in target_names]
    n, m = sys.dim, len(observables)
    A = [[affine.A[src[i]][src[j]] for j in range(n + m)] for i in range(n + m)]
    D = [affine.D[src[i]] for i in range(n + m)]
    result = SuperLinearization(
        n=n,
        m=m,
        A=tuple(tuple(r) for r in A),
        D=tuple(D),
        observables=tuple(observables),
        var_names=target_names,
        chains=tuple(chains),
    )

    from .verify import verify_symbolic

    certificate = verify_symbolic(sys, result)
    if not certificate.ok:
        raise InternalInvariantError(
            f"constructed lift failed its own symbolic check on row "
            f"{certificate.failed_row}: residual {certificate.residual}"
        )
    return result


def xumama_check(sys: PolySystem, max_n: int) -> Optional[XumamaCertificate]:
    """Search for the smallest N <= max_n with L^N_f f in span{L^k_f f, k < N}.

    Iterated Lie derivatives of the field along itself are stacked
    componentwise; the dependency search is exact. Returns None when no
    dependency exists up to max_n.
    """
    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    solver = SpanSolver()
    current = list(sys.rhs)
    solver.add(_field_vec(current), 0)
    for N in range(1, max_n + 1):
        current = [lie_derivative(c, sys.rhs) for c in current]
        combo = solver.express(_field_vec(current))
        if combo is not None:
            alpha = tuple(combo.get(k, Fraction(0)) for k in range(N))
            return XumamaCertificate(N, alpha)
        solver.add(_field_vec(current), N)
    return None

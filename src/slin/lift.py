"""Construction of finite-dimensional linear lifts for polynomial systems.

The pipeline mirrors the layered structure of the dependency graph: the
depth-0 variables must evolve affinely among themselves; each deeper layer is
affine in its own variables with polynomial forcing from the coordinates
already lifted. Forcing terms are absorbed by growing chains of Lie
derivatives along the current affine field, with exact span detection over
the graded-lex coefficient vectors deciding when a chain closes on itself.

The lift is built in its final coordinates from the first layer on: x in its
original order, then the observables in the order they are created. Each
stage works over x and the observables of earlier stages, a prefix of those
coordinates, and every affine row is kept sparse as ``{column: coeff}``.

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

from . import numeric
from .depgraph import build_skeleton, build_wdg, check_condition, scc_decomposition
from .errors import (
    ChainCapError,
    ConditionFailedError,
    DecompositionViolatedError,
    InternalInvariantError,
    SpaceMismatchError,
)
from .poly import Polynomial, VariableSpace, grlex_key, lie_derivative
from .sysparse import PolySystem


_CONST = -1  # the column under which an affine row keeps its constant term


def _affine_field(space: VariableSpace, rows: Sequence[Dict]) -> List[Polynomial]:
    """Row polynomials over `space`, one per sparse affine row ``{column:
    coeff}`` with its constant under `_CONST`, each built from one term dict."""
    n = len(space)
    units = {_CONST: (0,) * n}
    units.update((j, tuple(int(k == j) for k in range(n))) for j in range(n))
    return [Polynomial(space, {units[j]: a for j, a in row.items()}) for row in rows]


@dataclass(frozen=True)
class Observable:
    """One adjoined coordinate: its stage-level definition and x-expansion."""

    name: str
    definition: Polynomial  # over x and the observables of earlier stages
    expansion: Polynomial  # over the original x variables


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
        rows = [
            {_CONST: d, **{j: a for j, a in enumerate(row) if a}}
            for row, d in zip(self.A, self.D)
        ]
        return _affine_field(self.lifted_space, rows)

    @cached_property
    def compiled_field(self) -> numeric.CompiledField:
        """``compile_field(field())``, built on first numeric use and kept."""
        return numeric.compile_field(self.field())

    @cached_property
    def compiled_expansions(self) -> numeric.CompiledField:
        """``compile_map`` of the observables' expansions, built on first
        numeric use and kept; it evaluates p(x0) as `Polynomial.evaluate`
        does, bit for bit."""
        return numeric.compile_map([obs.expansion for obs in self.observables])


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


# --- one layer of the construction -------------------------------------------


def prop1_lift(
    space: VariableSpace,
    rows: Dict[int, Dict],
    expansions: List[Polynomial],
    layer: Sequence[int],
    linear_part: Sequence[Dict],
    seeds: Sequence[Polynomial],
    *,
    obs_prefix: str = "p",
    obs_start: int = 1,
    stage: int = 1,
) -> Tuple[List[Observable], List[ChainInfo]]:
    """Adjoin one affinely-forced layer to the lift built so far.

    Coordinates are numbered by their final column: x in its original order,
    then the observables in the order they are created. `space` names x and
    the observables of earlier stages, a prefix of the final coordinates;
    `rows` maps every coordinate already lifted to its affine row ``{column:
    coeff}``, the constant under `_CONST`; `expansions[c]` is column c as a
    polynomial in x.

    The layer's coordinate c = layer[r] obeys x_c' = linear_part[r] x + seeds[r],
    with `linear_part[r]` a row ``{column: coeff}`` over the layer's columns
    and each seed a polynomial over `space` in the lifted coordinates only. Every
    seed grows a chain of Lie derivatives along the lifted field. A chain
    element that falls in the span of {1} u {lifted coordinates} u
    {observables so far} closes its chain with that exact dependency;
    otherwise it becomes the next observable, the next column. Chains share
    one span across all seeds of the call, so repeated nonlinearities are
    never adjoined twice.

    Adds the rows of the layer and of the new observables to `rows`, and the
    new observables' expansions to `expansions`, in place. Returns
    (observables, chain infos).
    """
    if len(seeds) != len(layer) or len(linear_part) != len(layer):
        raise ValueError("need one seed and one matrix row per layer coordinate")
    for s in seeds:
        if s.space != space:
            raise SpaceMismatchError(
                "seeds must be polynomials over the lifted coordinates"
            )

    base = len(rows)
    field = _affine_field(space, [rows.get(c, {}) for c in range(len(space))])
    solver = SpanSolver()
    solver.add(_poly_vec(Polynomial.constant(space, 1)), _CONST)
    for c in rows:
        solver.add(_poly_vec(Polynomial.variable(space, c)), c)

    images = dict(enumerate(expansions))
    observables: List[Observable] = []
    chains: List[ChainInfo] = []

    def new_observable(q: Polynomial) -> int:
        column = len(expansions)
        name = f"{obs_prefix}{obs_start + len(observables)}"
        expansion = q.substitute(images)
        # Graded-lex descending, the order `render` writes and a reloaded
        # document reads back, so both sum the terms alike when evaluated.
        order = sorted(expansion.terms, key=grlex_key, reverse=True)
        expansion = Polynomial(expansion.space, {m: expansion.terms[m] for m in order})
        expansions.append(expansion)
        observables.append(Observable(name=name, definition=q, expansion=expansion))
        solver.add(_poly_vec(q), column)
        return column

    for seed_ordinal, (c, linear, seed) in enumerate(zip(layer, linear_part, seeds)):
        degree = seed.degree()
        d = int(degree) if seed.terms else 0
        cap = math.comb(base + d, d)
        created = 0
        q = seed
        combo = solver.express(_poly_vec(q))
        if combo is None:
            column = new_observable(q)
            created += 1
            combo = {column: Fraction(1)}
            while True:
                q = lie_derivative(q, field)
                closing = solver.express(_poly_vec(q))
                if closing is not None:
                    rows[column] = closing
                    break
                if created >= cap:
                    raise ChainCapError(
                        f"chain for seed {seed_ordinal} of stage {stage} exceeded "
                        f"its dimension bound C({base}+{d},{d}) = {cap}"
                    )
                prev = column
                column = new_observable(q)
                created += 1
                rows[prev] = {column: Fraction(1)}
        rows[c] = {**linear, **combo}
        chains.append(ChainInfo(stage, seed_ordinal, d, base, created, cap))
    return observables, chains


# --- full pipeline ----------------------------------------------------------


def _observable_prefix(names: Sequence[str]) -> str:
    candidates = ["p", "q", "w", "obs"]
    while True:
        for prefix in candidates:
            if not any(re.fullmatch(re.escape(prefix) + r"\d+", nm) for nm in names):
                return prefix
        candidates = [c + "_" for c in candidates]


def _affine_rows(
    sys: PolySystem, layer: Sequence[int], free: frozenset
) -> Tuple[List[Dict], List[Dict]]:
    """Split each layer equation into (linear row ``{column: coeff}`` over the
    layer, leftover terms).

    Leftover monomials may only involve `free` variables; any monomial of
    degree >= 1 in the layer that is not a bare c*x_i breaks the layered
    structure the condition check guarantees.
    """
    layer_set = set(layer)
    rows = []
    leftovers = []
    for j in layer:
        row: Dict = {}
        rest: Dict = {}
        for mono, coeff in sys.rhs[j].terms.items():
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
                row[mono.index(1)] = coeff
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

    # The depth-0 block must already be affine in its own variables: with no
    # free variables, `_affine_rows` leaves only a constant over.
    rows: Dict[int, Dict] = {}
    linear0, leftovers0 = _affine_rows(sys, var_layers[0], frozenset())
    for v, linear, rest in zip(var_layers[0], linear0, leftovers0):
        rows[v] = {**linear, **{_CONST: c for c in rest.values()}}
    expansions = [Polynomial.variable(sys.vars, v) for v in range(sys.dim)]

    observables: List[Observable] = []
    chains: List[ChainInfo] = []
    names = sys.vars.names
    for depth in range(1, len(var_layers)):
        layer = var_layers[depth]
        # The x columns of `rows` are the variables already lifted; its
        # observable columns lie past every x index.
        linear, leftovers = _affine_rows(sys, layer, frozenset(rows))
        space = VariableSpace(names)
        pad = (0,) * len(observables)
        seeds = [
            Polynomial(space, {mono + pad: c for mono, c in rest.items()})
            for rest in leftovers
        ]
        new_obs, new_chains = prop1_lift(
            space,
            rows,
            expansions,
            layer,
            linear,
            seeds,
            obs_prefix=prefix,
            obs_start=len(observables) + 1,
            stage=depth,
        )
        observables.extend(new_obs)
        chains.extend(new_chains)
        names += tuple(o.name for o in new_obs)

    dim = len(names)
    result = SuperLinearization(
        n=sys.dim,
        m=len(observables),
        A=tuple(tuple(rows[i].get(j, 0) for j in range(dim)) for i in range(dim)),
        D=tuple(rows[i].get(_CONST, 0) for i in range(dim)),
        observables=tuple(observables),
        var_names=names,
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

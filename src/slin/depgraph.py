"""Weighted dependency graph of a polynomial system and its analyses.

The graph has one node per state variable and an edge i -> j whenever the
j-th right-hand side depends on variable i; the edge weight is the partial
derivative d(rhs_j)/d(x_i), kept as an exact polynomial. On top of it this
module builds the strong-component decomposition, the acyclic skeleton with
its depth layering, and the cycle-weight constancy check that gates the
lifting construction.

Node and component indices are 0-based internally; rendered output
(witnesses, DOT) is 1-based to match the usual v1..vn / u1..uq labelling.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .errors import InternalInvariantError, SizeGuardError
from .poly import Polynomial, VariableSpace
from .sysparse import PolySystem


@dataclass(frozen=True)
class Wdg:
    """Sparse weighted digraph: ``weights[(i, j)]`` is the nonzero d f_j / d x_i."""

    n: int
    space: VariableSpace
    weights: dict

    def __post_init__(self):
        for (i, j), w in self.weights.items():
            if not 0 <= i < self.n or not 0 <= j < self.n:
                raise ValueError(f"edge ({i}, {j}) out of range for n={self.n}")
            if w.is_zero():
                raise ValueError(f"edge ({i}, {j}) carries a zero weight")

    def successors(self, i: int) -> List[int]:
        return sorted(j for (a, j) in self.weights if a == i)

    def edges(self) -> List[Tuple[int, int]]:
        return sorted(self.weights)


def build_wdg(sys: PolySystem) -> Wdg:
    """Differentiate each right-hand side along the variables occurring in it; all nonzero."""
    weights = {}
    for j, f_j in enumerate(sys.rhs):
        for i in sorted({i for mono in f_j.terms for i, e in enumerate(mono) if e}):
            weights[(i, j)] = f_j.differentiate(i)
    return Wdg(sys.dim, sys.vars, weights)


@dataclass(frozen=True)
class SccDecomposition:
    """Maximal strongly connected components, listed in topological order."""

    components: tuple  # tuple of sorted node-index tuples, sources first
    component_of: tuple  # node index -> component index

    def __len__(self) -> int:
        return len(self.components)


def scc_decomposition(g: Wdg) -> SccDecomposition:
    """Tarjan's algorithm plus a canonical topological ordering.

    The returned component order is the unique topological order of the
    condensation in which ties are broken by the smallest original node
    index contained in each component.
    """
    raw = _tarjan(g)
    comp_of = [0] * g.n
    for ci, nodes in enumerate(raw):
        for v in nodes:
            comp_of[v] = ci

    succ = [set() for _ in raw]
    indeg = [0] * len(raw)
    for (i, j) in g.weights:
        a, b = comp_of[i], comp_of[j]
        if a != b and b not in succ[a]:
            succ[a].add(b)
            indeg[b] += 1

    # Kahn with a min-heap keyed by smallest member node, for determinism.
    heap = [(min(nodes), ci) for ci, nodes in enumerate(raw) if indeg[ci] == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        _, ci = heapq.heappop(heap)
        order.append(ci)
        for nxt in succ[ci]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                heapq.heappush(heap, (min(raw[nxt]), nxt))
    if len(order) != len(raw):
        raise InternalInvariantError("condensation of the dependency graph has a cycle")

    components = tuple(tuple(sorted(raw[ci])) for ci in order)
    component_of = [0] * g.n
    for idx, nodes in enumerate(components):
        for v in nodes:
            component_of[v] = idx
    return SccDecomposition(components, tuple(component_of))


def _tarjan(g: Wdg) -> List[List[int]]:
    """Iterative Tarjan; explicit stack so deep graphs cannot blow recursion."""
    index = {}
    lowlink = {}
    on_stack = set()
    stack = []
    counter = [0]
    components = []
    adjacency = {v: g.successors(v) for v in range(g.n)}

    for root in range(g.n):
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work.pop()
            if pi == 0:
                index[v] = lowlink[v] = counter[0]
                counter[0] += 1
                stack.append(v)
                on_stack.add(v)
            recurse = False
            for offset in range(pi, len(adjacency[v])):
                w = adjacency[v][offset]
                if w not in index:
                    work.append((v, offset + 1))
                    work.append((w, 0))
                    recurse = True
                    break
                if w in on_stack:
                    lowlink[v] = min(lowlink[v], index[w])
            if recurse:
                continue
            if lowlink[v] == index[v]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    component.append(w)
                    if w == v:
                        break
                components.append(component)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
    return components


@dataclass(frozen=True)
class SkeletonGraph:
    """Condensation of the dependency graph, with depth layering."""

    q: int
    edges: tuple  # sorted tuple of (component, component) pairs, no self-loops
    pi: tuple  # node index -> component index
    depth: tuple  # component index -> longest path length from a source
    layers: tuple  # layers[m] = sorted tuple of components at depth m


def build_skeleton(g: Wdg, d: SccDecomposition) -> SkeletonGraph:
    """Condense SCCs to single nodes and layer them by longest source distance."""
    comp_of = d.component_of
    edges = set()
    for (i, j) in g.weights:
        a, b = comp_of[i], comp_of[j]
        if a != b:
            edges.add((a, b))
    for (a, b) in edges:
        if a >= b:
            # d.components is topologically sorted, so every condensation
            # edge must point forward; anything else means the SCC pass broke.
            raise InternalInvariantError(
                f"skeleton edge u{a + 1} -> u{b + 1} goes against topological order"
            )

    q = len(d.components)
    depth = [0] * q
    for (a, b) in sorted(edges):
        depth[b] = max(depth[b], depth[a] + 1)

    layers: List[List[int]] = [[] for _ in range(max(depth, default=0) + 1)]
    for ci, m in enumerate(depth):
        layers[m].append(ci)
    return SkeletonGraph(
        q=q,
        edges=tuple(sorted(edges)),
        pi=tuple(comp_of),
        depth=tuple(depth),
        layers=tuple(tuple(sorted(layer)) for layer in layers),
    )


def walk_weight(g: Wdg, walk: Sequence[int]) -> Polynomial:
    """Product of edge weights along a walk; the empty product is 1."""
    result = Polynomial.constant(g.space, 1)
    for i, j in zip(walk, walk[1:]):
        if (i, j) not in g.weights:
            raise ValueError(f"({i + 1}, {j + 1}) is not an edge of the graph")
        result = result * g.weights[(i, j)]
    return result


@dataclass(frozen=True)
class Witness:
    """An intra-component edge whose weight is not constant."""

    edge: tuple  # (i, j), 0-based
    component: int
    weight: Polynomial

    def render(self) -> str:
        i, j = self.edge
        return f"gamma({i + 1},{j + 1}) = {self.weight.render()}"


@dataclass(frozen=True)
class ConditionReport:
    ok: bool
    witnesses: tuple

    def __bool__(self) -> bool:
        return self.ok


def check_condition(g: Wdg, d: SccDecomposition) -> ConditionReport:
    """Decide the cycle-weight constancy condition.

    Every edge with both endpoints in one strong component (self-loops
    included) lies on a cycle, and a product of real polynomials is constant
    iff each factor is, so it suffices to check intra-component edges for
    constant (degree <= 0) weights.
    """
    witnesses = []
    for (i, j) in g.edges():
        if d.component_of[i] == d.component_of[j]:
            w = g.weights[(i, j)]
            if not w.is_constant():
                witnesses.append(Witness((i, j), d.component_of[i], w))
    return ConditionReport(ok=not witnesses, witnesses=tuple(witnesses))


def enumerate_cycle_products(g: Wdg, max_nodes: int = 8):
    """All simple cycles with their walk weights; brute-force oracle.

    Each cycle appears once, as the node walk starting and ending at its
    smallest node. Guarded by ``max_nodes`` because the count is exponential.
    """
    if g.n > max_nodes:
        raise SizeGuardError(
            f"graph has {g.n} nodes, above the enumeration guard of {max_nodes}"
        )
    adjacency = {v: g.successors(v) for v in range(g.n)}
    cycles = []

    def extend(start: int, v: int, path: List[int], on_path: set):
        for w in adjacency[v]:
            if w == start:
                walk = tuple(path + [start])
                cycles.append((walk, walk_weight(g, walk)))
            elif w > start and w not in on_path:
                on_path.add(w)
                path.append(w)
                extend(start, w, path, on_path)
                path.pop()
                on_path.discard(w)

    for start in range(g.n):
        extend(start, start, [start], {start})
    return cycles


def wdg_dot(g: Wdg) -> str:
    """GraphViz rendering of the dependency graph with weight labels."""
    lines = ["digraph wdg {", "  rankdir=LR;"]
    for name in g.space.names:
        lines.append(f'  "{name}";')
    for (i, j) in g.edges():
        label = g.weights[(i, j)].render()
        lines.append(f'  "{g.space.names[i]}" -> "{g.space.names[j]}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def skeleton_dot(s: SkeletonGraph, d: SccDecomposition, space: VariableSpace) -> str:
    """GraphViz rendering of the skeleton; tooltips list member variables."""
    lines = ["digraph skeleton {", "  rankdir=LR;"]
    for ci, nodes in enumerate(d.components):
        members = ", ".join(space.names[v] for v in nodes)
        lines.append(f'  u{ci + 1} [label="u{ci + 1}" tooltip="{members}"];')
    for (a, b) in s.edges:
        lines.append(f"  u{a + 1} -> u{b + 1};")
    lines.append("}")
    return "\n".join(lines) + "\n"

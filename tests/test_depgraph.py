"""Dependency graph, strong components, skeleton layering, condition check."""

import random
from fractions import Fraction

import pytest

from slin import (
    Polynomial,
    SizeGuardError,
    Wdg,
    build_skeleton,
    build_wdg,
    check_condition,
    enumerate_cycle_products,
    parse_system,
    scc_decomposition,
    walk_weight,
)
from slin.depgraph import skeleton_dot, wdg_dot

from helpers import P, brute_force_simple_cycles, five_state, random_wdg, space


def test_wdg_of_five_state_matches_known_edges():
    g = build_wdg(five_state())
    expected = {
        (0, 1): "-1",
        (1, 0): "1",
        (1, 2): "2*x2",
        (0, 3): "x2^2",
        (1, 3): "2*x1*x2",
        (2, 3): "1",
        (0, 4): "2*x1*x2",
        (1, 4): "x1^2",
        (2, 4): "2*x3",
        (4, 4): "-1",
    }
    assert {e: w.render() for e, w in g.weights.items()} == expected


def test_wdg_of_pure_square_is_one_self_loop():
    g = build_wdg(parse_system("vars: x\nx' = x^2\n"))
    assert set(g.weights) == {(0, 0)}
    assert g.weights[(0, 0)] == P("2*x", g.space)


def test_wdg_of_linear_system_is_transposed_pattern():
    s = parse_system("vars: x y z\nx' = 2*y\ny' = -z\nz' = x + 3*z\n")
    g = build_wdg(s)
    assert set(g.weights) == {(1, 0), (2, 1), (0, 2), (2, 2)}
    assert all(w.is_constant() for w in g.weights.values())


# --- strong components and skeleton -------------------------------------------


def test_scc_of_five_state():
    g = build_wdg(five_state())
    d = scc_decomposition(g)
    assert d.components == ((0, 1), (2,), (3,), (4,))


def test_scc_single_node_without_loop():
    g = build_wdg(parse_system("vars: x\nx' = 1\n"))
    assert scc_decomposition(g).components == ((0,),)


def _seven_node_graph():
    """Three strongly connected blocks with feedforward links between them."""
    sp = space("a b c d e f g")
    one = Polynomial.constant(sp, 1)
    edges = [
        (0, 0), (0, 1), (1, 2), (2, 0),  # block 1: {a, b, c} with a self-loop
        (3, 4), (4, 3),                  # block 2: {d, e}
        (5, 6), (6, 5),                  # block 3: {f, g}
        (1, 4), (2, 4),                  # block 1 -> block 2
        (0, 5),                          # block 1 -> block 3
        (3, 6),                          # block 2 -> block 3
    ]
    return Wdg(7, sp, {e: one for e in edges})


def test_scc_of_seven_node_graph():
    d = scc_decomposition(_seven_node_graph())
    assert sorted(len(c) for c in d.components) == [2, 2, 3]
    assert d.components == ((0, 1, 2), (3, 4), (5, 6))


def test_skeleton_of_seven_node_graph():
    g = _seven_node_graph()
    d = scc_decomposition(g)
    s = build_skeleton(g, d)
    assert s.q == 3
    assert s.edges == ((0, 1), (0, 2), (1, 2))


def test_skeleton_of_five_state():
    g = build_wdg(five_state())
    d = scc_decomposition(g)
    s = build_skeleton(g, d)
    assert s.layers == ((0,), (1,), (2, 3))
    assert s.depth == (0, 1, 2, 2)
    assert s.pi == (0, 0, 1, 2, 3)


def test_skeleton_of_strongly_connected_graph():
    g = build_wdg(parse_system("vars: x y\nx' = y\ny' = -x\n"))
    s = build_skeleton(g, scc_decomposition(g))
    assert s.q == 1
    assert s.edges == ()
    assert s.layers == ((0,),)


# --- walk weights -------------------------------------------------------------


def test_walk_weight_two_cycle():
    g = build_wdg(five_state())
    assert walk_weight(g, [0, 1, 0]) == P("-1", g.space)


def test_walk_weight_self_loop():
    g = build_wdg(five_state())
    assert walk_weight(g, [4, 4]) == P("-1", g.space)


def test_walk_weight_empty_walk_is_one():
    g = build_wdg(five_state())
    assert walk_weight(g, [2]) == P("1", g.space)


def test_walk_weight_rejects_non_edge():
    g = build_wdg(five_state())
    with pytest.raises(ValueError):
        walk_weight(g, [0, 2])


# --- condition check ----------------------------------------------------------


def test_condition_passes_on_five_state():
    g = build_wdg(five_state())
    d = scc_decomposition(g)
    report = check_condition(g, d)
    assert report.ok and report.witnesses == ()
    intra = {
        (i, j): w
        for (i, j), w in g.weights.items()
        if d.component_of[i] == d.component_of[j]
    }
    assert {e: w.constant_value() for e, w in intra.items()} == {
        (0, 1): Fraction(-1),
        (1, 0): Fraction(1),
        (4, 4): Fraction(-1),
    }


def test_condition_fails_on_square_self_loop():
    g = build_wdg(parse_system("vars: x\nx' = x^2\n"))
    report = check_condition(g, scc_decomposition(g))
    assert not report.ok
    assert len(report.witnesses) == 1
    assert report.witnesses[0].render() == "gamma(1,1) = 2*x"


def test_condition_passes_on_affine_systems():
    s = parse_system("vars: x y\nx' = 2*x - 3*y + 1\ny' = x\n")
    g = build_wdg(s)
    assert check_condition(g, scc_decomposition(g)).ok


def test_nonconstant_weight_outside_components_is_fine():
    # feedforward nonlinearity only: v1 -> v2 edge weight 2*x, no cycle
    s = parse_system("vars: x y\nx' = 1\ny' = x^2\n")
    g = build_wdg(s)
    assert check_condition(g, scc_decomposition(g)).ok


# --- cycle enumeration ---------------------------------------------------------


def test_enumerate_cycles_five_state():
    g = build_wdg(five_state())
    cycles = dict(enumerate_cycle_products(g))
    assert set(cycles) == {(0, 1, 0), (4, 4)}
    assert cycles[(0, 1, 0)] == P("-1", g.space)
    assert cycles[(4, 4)] == P("-1", g.space)


def test_enumerate_cycles_acyclic():
    s = parse_system("vars: x y\nx' = 1\ny' = x^2\n")
    assert enumerate_cycle_products(build_wdg(s)) == []


def _complete_digraph(n, with_loops):
    sp = space(" ".join(f"x{i}" for i in range(n)))
    one = Polynomial.constant(sp, 1)
    weights = {
        (i, j): one for i in range(n) for j in range(n) if with_loops or i != j
    }
    return Wdg(n, sp, weights)


def test_enumerate_cycles_complete_digraphs():
    # frozen counts, cross-checked against the subset/permutation oracle
    with_loops = _complete_digraph(3, with_loops=True)
    cycles = enumerate_cycle_products(with_loops)
    assert len(cycles) == 8
    assert {w for w, _ in cycles} == brute_force_simple_cycles(with_loops)

    loopless = _complete_digraph(3, with_loops=False)
    cycles = enumerate_cycle_products(loopless)
    assert len(cycles) == 5
    assert {w for w, _ in cycles} == brute_force_simple_cycles(loopless)


def test_enumerate_cycles_size_guard():
    g = _complete_digraph(4, with_loops=False)
    with pytest.raises(SizeGuardError):
        enumerate_cycle_products(g, max_nodes=3)


# --- randomized invariants ------------------------------------------------------


def test_random_graph_invariants():
    rng = random.Random(905)
    for _ in range(150):
        g = random_wdg(rng)
        d = scc_decomposition(g)
        s = build_skeleton(g, d)

        # pi is onto and component sizes agree
        assert sorted(v for c in d.components for v in c) == list(range(g.n))
        for v in range(g.n):
            assert v in d.components[s.pi[v]]

        # layers partition the skeleton nodes; edges increase depth
        flattened = sorted(u for layer in s.layers for u in layer)
        assert flattened == list(range(s.q))
        for (a, b) in s.edges:
            assert s.depth[b] >= s.depth[a] + 1
        assert all(s.layers[m] for m in range(len(s.layers)))
        assert set(s.layers[0]) == {
            u for u in range(s.q) if all(b != u for (_, b) in s.edges)
        }

        # oracle equivalence and the cycle-cover property of intra edges
        cycles = enumerate_cycle_products(g)
        assert check_condition(g, d).ok == all(
            w.is_constant() for _, w in cycles
        )
        on_cycle = {
            (walk[t], walk[t + 1]) for walk, _ in cycles for t in range(len(walk) - 1)
        }
        for (i, j) in g.edges():
            if d.component_of[i] == d.component_of[j]:
                assert (i, j) in on_cycle


def test_scc_agrees_with_reachability_definition():
    # maximality via pairwise mutual reachability, on small random graphs
    rng = random.Random(906)
    for _ in range(80):
        g = random_wdg(rng)
        reach = [[False] * g.n for _ in range(g.n)]
        for v in range(g.n):
            stack, seen = [v], {v}
            while stack:
                u = stack.pop()
                for w in g.successors(u):
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            for w in seen:
                reach[v][w] = True
        d = scc_decomposition(g)
        for i in range(g.n):
            for j in range(g.n):
                mutual = i == j or (reach[i][j] and reach[j][i])
                same = d.component_of[i] == d.component_of[j]
                assert mutual == same


# --- DOT export -----------------------------------------------------------------


def test_dot_exports():
    g = build_wdg(five_state())
    d = scc_decomposition(g)
    s = build_skeleton(g, d)
    wd = wdg_dot(g)
    assert '"x2" -> "x3" [label="2*x2"];' in wd
    assert wd.startswith("digraph wdg {")
    sd = skeleton_dot(s, d, g.space)
    assert 'u1 [label="u1" tooltip="x1, x2"];' in sd
    assert "u1 -> u2;" in sd

"""The benchmark's own checks: generators, oracle and tracer.

    python3 -m pytest perfbench/tests
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import gen
import oracle
import pytest
import spans
import workloads

from slin import build_wdg, check_condition, parse_system, scc_decomposition, superlinearize
from slin import lift as slin_lift


def _all_systems():
    rungs = [gen.fivestate(), gen.cascade(4, 2), gen.cascade(5, 2), gen.cascade(4, 3)]
    pool = gen.population(workloads.POPULATION_SEED, workloads.POPULATION_SIZE)
    return rungs + pool + gen.population(11, 100)


def test_same_seed_gives_identical_systems():
    assert gen.population(7, 50) == gen.population(7, 50)
    assert gen.population(7, 50) != gen.population(8, 50)
    assert gen.cascade(5, 2) == gen.cascade(5, 2)
    first, _ = workloads.setup_population(3)
    again, _ = workloads.setup_population(3)
    assert [it.gsys for it in first] == [it.gsys for it in again]


def test_generated_systems_render_parse_and_satisfy_the_condition():
    for g in _all_systems():
        system = parse_system(g.render())
        assert tuple(system.vars.names) == g.names
        assert tuple(dict(p.terms) for p in system.rhs) == g.rhs
        wdg = build_wdg(system)
        assert check_condition(wdg, scc_decomposition(wdg)).ok, g.render()


def test_cascade_matches_its_definition():
    assert gen.cascade(4, 3).render() == (
        "vars: x1 x2 x3 x4\n"
        "x1' = x2\n"
        "x2' = -x1\n"
        "x3' = x2^3 + x1^2 - x3\n"
        "x4' = x3^3 + x1*x2 - x4\n"
    )


@pytest.mark.parametrize("g", [gen.fivestate(), gen.cascade(4, 2)], ids=lambda g: g.name)
def test_oracle_accepts_a_lift_and_rejects_one_perturbed_entry(g):
    sl = superlinearize(parse_system(g.render()))
    expansions = oracle.unit_expansions(g.dim) + [dict(o.expansion.terms) for o in sl.observables]
    rng = random.Random(1)
    assert oracle.lift_identity_row(g, sl.A, sl.D, expansions, rng) == 0
    for i, j in [(0, 1), (g.dim, g.dim + 1), (sl.dim - 1, 0)]:
        A = [list(row) for row in sl.A]
        A[i][j] += Fraction(1, 3)
        assert oracle.lift_identity_row(g, A, sl.D, expansions, rng) == i + 1
    D = list(sl.D)
    D[-1] += 1
    assert oracle.lift_identity_row(g, sl.A, D, expansions, rng) == sl.dim


def test_tracer_self_time_and_restore():
    tracer = spans.Tracer()
    original = slin_lift.prop1_lift
    restore = spans.install(tracer)
    try:
        assert slin_lift.prop1_lift is not original
        tracer.aggregate = True
        superlinearize(parse_system(gen.cascade(4, 2).render()))
    finally:
        restore()
    assert slin_lift.prop1_lift is original
    assert tracer.counts["poly.substitute_calls"] == 6  # one per observable, m = 6
    assert tracer.counts["lift.span_calls"] > 0
    prop1 = tracer.inclusive["lift.prop1_lift"]
    assert 0 < tracer.self_time["lift.prop1_lift"] < prop1
    ids = {s[0] for s in tracer.spans}
    assert all(parent == -1 or parent in ids for *_, parent in tracer.spans)


def test_benchmark_json_declares_what_a_traced_run_measures():
    bench = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        res = workloads.run("simulate", seed=1, seconds=0, tracer=tracer)
    finally:
        restore()
    assert res.failed == 0, res.failures
    e2e = workloads.end_to_end(res, import_s=0.0)
    layers = workloads.per_layer(res)
    for declared, measured in ((bench["end_to_end"], e2e), (bench["per_layer"], layers)):
        for m in declared:
            assert measured[m["name"]][1] == m["unit"], m["name"]
    assert {m["name"] for m in bench["per_layer"]} == set(layers)
    assert e2e["lift_dim"][0] == 45
    assert layers["numeric.steps"][0] == 2 * workloads.SIM_OP_STEPS

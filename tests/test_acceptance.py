"""Acceptance gate: every criterion at its stated tolerance.

Each test prints nothing on its own; conftest.py emits one PASS/FAIL line per
criterion in the terminal summary. Tolerances and budgets are pinned here and
nowhere else.
"""

import random
import time
from fractions import Fraction
from math import comb

from slin import (
    build_wdg,
    check_condition,
    enumerate_cycle_products,
    parse_system,
    scc_decomposition,
    superlinearize,
    verify_numeric,
    verify_symbolic,
    xumama_check,
)
from slin.cli import main

from helpers import (
    BLOWUP,
    OSCILLATOR,
    P,
    five_state,
    random_layered_system,
    random_wdg,
    two_state,
)
import handlift


def test_criterion_1_motivating_example_lift():
    start = time.perf_counter()
    sl = superlinearize(two_state())
    elapsed = time.perf_counter() - start

    assert sl.m == 1
    assert sl.observables[0].expansion == P("y^2", "x y")
    # rows: dx = -x + w, dy = -y, dw = -2w; exact rational match
    assert sl.var_names[:2] == ("x", "y")
    assert sl.A == ((-1, 0, 1), (0, -1, 0), (0, 0, -2))
    assert sl.D == (0, 0, 0)
    assert elapsed < 0.100, f"lift took {elapsed * 1000:.1f} ms, budget is 100 ms"


def test_criterion_2_five_state_end_to_end():
    start = time.perf_counter()
    s = five_state()
    g = build_wdg(s)
    d = scc_decomposition(g)
    report = check_condition(g, d)
    assert report.ok
    intra = {
        e: w.render()
        for e, w in g.weights.items()
        if d.component_of[e[0]] == d.component_of[e[1]]
    }
    assert intra == {(0, 1): "-1", (1, 0): "1", (4, 4): "-1"}

    sl = superlinearize(s)
    assert sl.m <= 16
    assert verify_symbolic(s, sl).ok
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"end-to-end run took {elapsed:.2f} s, budget is 5 s"


def test_criterion_3_hand_derived_fixture_replay():
    s = five_state()

    # the fixture as originally transcribed: x5 row wired to p7.
    # the verifier must pinpoint the single bad row and its exact residual
    # (p8 - p7 expanded), so the discrepancy is documented, not absorbed.
    report = verify_symbolic(s, handlift.miswired_lift())
    assert not report.ok
    assert report.failed_row == 5
    assert report.failed_name == "x5"
    assert report.residual == P("x3^2 + 7*x2^3 - 19*x1^2*x2", s.vars)

    # with the x5 row wired to p8 = x3^2 + x1^2*x2, all 21 rows verify exactly:
    # every dp_i = p_{i+1} row, dp3 = -4 p2, dp7 = -10 p6 - 9 p4, and
    # dp16 = 1485/2 p4 + 1215/2 p6 - 256 p11 - 144 p13 - 24 p15.
    fixed = handlift.correct_lift()
    assert verify_symbolic(s, fixed).ok
    assert fixed.A[20][8] == Fraction(1485, 2)
    assert fixed.A[20][10] == Fraction(1215, 2)
    assert fixed.A[20][15] == -256
    assert fixed.A[20][17] == -144
    assert fixed.A[20][19] == -24


def test_criterion_4_numeric_flow_identity():
    s = five_state()
    sl = superlinearize(s)
    x0 = [0.1, 0.2, 0.3, 0.4, 0.5]
    err = verify_numeric(s, sl, x0, 2.0, 1e-3)
    assert err <= 1e-6, f"projection error {err:.3e} above 1e-6"
    halved = verify_numeric(s, sl, x0, 2.0, 5e-4)
    assert err / halved >= 12.0, (
        f"halving the step only improved {err:.3e} -> {halved:.3e} "
        f"({err / halved:.1f}x, need >= 12x)"
    )


def test_criterion_5_random_layered_systems():
    start = time.perf_counter()
    rng = random.Random(20240814)
    lifted = 0
    for _ in range(200):
        s = random_layered_system(rng)
        g = build_wdg(s)
        d = scc_decomposition(g)
        assert check_condition(g, d).ok, f"generator broke the condition:\n{s}"
        sl = superlinearize(s)
        assert verify_symbolic(s, sl).ok
        for chain in sl.chains:
            cap = comb(chain.base_dim + chain.seed_degree, chain.seed_degree)
            assert chain.cap == cap
            assert chain.created <= cap
        lifted += 1
    elapsed = time.perf_counter() - start
    assert lifted == 200
    assert elapsed < 60.0, f"property suite took {elapsed:.1f} s, budget is 60 s"


def test_criterion_6_oracle_equivalence():
    rng = random.Random(20240815)
    for _ in range(500):
        g = random_wdg(rng)
        d = scc_decomposition(g)
        decided = check_condition(g, d).ok
        enumerated = all(
            w.is_constant() for _, w in enumerate_cycle_products(g, max_nodes=6)
        )
        assert decided == enumerated


def test_criterion_7_negative_control(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SLIN_COLOR", "0")
    path = tmp_path / "blowup.sys"
    path.write_text(BLOWUP)
    assert main(["check", str(path)]) == 2
    out = capsys.readouterr().out
    assert "gamma(1,1) = 2*x" in out
    assert xumama_check(parse_system(BLOWUP), 10) is None


def test_criterion_8_recurrence_certificates():
    cert = xumama_check(two_state(), 5)
    assert (cert.N, cert.alpha) == (2, (-2, -3))
    _recheck_certificate(two_state(), cert)

    osc = parse_system(OSCILLATOR)
    cert = xumama_check(osc, 5)
    assert (cert.N, cert.alpha) == (2, (-1, 0))
    _recheck_certificate(osc, cert)


def _recheck_certificate(s, cert):
    """Exact re-substitution of the recurrence, independent of the search."""
    from slin import Polynomial, lie_derivative

    iterates = [list(s.rhs)]
    for _ in range(cert.N):
        iterates.append([lie_derivative(c, s.rhs) for c in iterates[-1]])
    for comp in range(s.dim):
        acc = Polynomial.zero(s.vars)
        for k, a in enumerate(cert.alpha):
            acc = acc + iterates[k][comp] * a
        assert acc == iterates[cert.N][comp], "certificate does not re-substitute"

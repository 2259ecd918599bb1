"""Backend equivalence and the compiled-field representation."""

import math
import os
import random
import subprocess
import sys
import types
from array import array
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slin import Polynomial, numeric, parse_system, superlinearize
from slin.document import document_to_lift, lift_to_document
from slin.numeric import (
    BACKEND,
    FORMAT_ROWS,
    compile_field,
    compile_map,
    evaluate_compiled,
    integrate,
    projection_error_python,
    rk4_kernel_python,
)

from helpers import (
    BAD_LAYOUTS,
    cascade,
    csr_arrays,
    five_state,
    random_compiled_map,
    space,
    two_state,
)

ROOT = Path(__file__).resolve().parents[1]

try:
    import slin._rk4  # noqa: F401

    HAVE_EXT = True
except ImportError:
    HAVE_EXT = False


def test_backend_reports_a_known_name():
    assert BACKEND in ("c", "python")
    if HAVE_EXT and os.environ.get("SLIN_PURE_PYTHON") != "1":
        assert BACKEND == "c"


def test_row_formatter_comes_with_the_c_backend():
    assert (FORMAT_ROWS is not None) == (BACKEND == "c")


def test_compiled_field_evaluation_matches_polynomials():
    s = five_state()
    cf = compile_field(s.rhs)
    rng = random.Random(4)
    for _ in range(50):
        y = [rng.uniform(-2, 2) for _ in range(5)]
        for p, k in zip(s.rhs, _eval_compiled(cf, y)):
            assert math.isclose(p.evaluate(y), k, rel_tol=1e-15, abs_tol=1e-15)


def test_zero_step_integration_returns_initial_state():
    s = five_state()
    cf = compile_field(s.rhs)
    states, completed = integrate(cf, [1, 2, 3, 4, 5], 1.0, 0)
    assert completed == 0
    assert list(states) == [1.0, 2.0, 3.0, 4.0, 5.0]


def _eval_compiled(cf, y):
    out = []
    for c in range(cf.dim):
        acc = 0.0
        for t in range(cf.comp_ptr[c], cf.comp_ptr[c + 1]):
            v = cf.coeff[t]
            for f in range(cf.term_ptr[t], cf.term_ptr[t + 1]):
                x = y[cf.fvar[f]]
                for _ in range(cf.fexp[f]):
                    v *= x
            acc += v
        out.append(acc)
    return out


def test_backends_agree_bit_for_bit(compiled_kernel):
    s = five_state()
    sl = superlinearize(s)
    for field, y0 in [
        (list(s.rhs), [0.1, 0.2, 0.3, 0.4, 0.5]),
        (sl.field(), [0.1, 0.2, 0.3, 0.4, 0.5] + [o.expansion.evaluate([0.1, 0.2, 0.3, 0.4, 0.5]) for o in sl.observables]),
    ]:
        cf = compile_field(field)
        py_states, py_done = integrate(cf, y0, 1e-2, 200, rk4_kernel_python)
        c_states, c_done = integrate(cf, y0, 1e-2, 200, compiled_kernel)
        assert py_done == c_done == 200
        assert py_states == c_states  # exact equality, not approximate


def test_backends_agree_on_divergence_step(compiled_kernel):
    s = parse_system("vars: x\nx' = x^2\n")
    cf = compile_field(s.rhs)
    py_states, py_done = integrate(cf, [1.0], 1e-3, 2000, rk4_kernel_python)
    c_states, c_done = integrate(cf, [1.0], 1e-3, 2000, compiled_kernel)
    assert py_done == c_done < 2000
    assert py_states == c_states


def test_compiled_kernel_checks_its_buffers(compiled_kernel):
    cf = compile_field(five_state().rhs)
    arrays = csr_arrays(cf)
    y = array("d", [0.1, 0.2, 0.3, 0.4, 0.5])
    out = array("d", bytes(8 * 11 * cf.dim))
    assert compiled_kernel(*arrays, y, 1e-3, 10, out) == 10
    for k, wrong in [(0, array("l", cf.comp_ptr)), (1, array("f", cf.coeff)),
                     (4, array("d", cf.fexp))]:
        bad = list(arrays)
        bad[k] = wrong
        with pytest.raises(TypeError):
            compiled_kernel(*bad, y, 1e-3, 10, out)
    with pytest.raises(TypeError):
        compiled_kernel(*arrays, array("i", [1] * 5), 1e-3, 10, out)
    with pytest.raises(ValueError):
        compiled_kernel(*arrays, y, 1e-3, 11, out)  # needs 12 samples, has 11
    with pytest.raises(ValueError):
        compiled_kernel(*arrays, y[:4], 1e-3, 10, out)  # fvar indexes x5
    for cf in BAD_LAYOUTS.values():
        with pytest.raises(ValueError):
            compiled_kernel(*csr_arrays(cf), y[:1], 1e-3, 10, out)


def test_integrate_rejects_wrong_state_size():
    s = five_state()
    cf = compile_field(s.rhs)
    with pytest.raises(ValueError):
        integrate(cf, [1.0, 2.0], 1e-3, 10)


def test_compile_field_requires_square_field():
    s = five_state()
    with pytest.raises(ValueError):
        compile_field(s.rhs[:3])


# Its lift has the nonzero offset D = (0, 2, 2).
OFFSET = "vars: x y\nx' = -x + y^2 + 1\ny' = -y + 2\n"


def _csr_bytes(cf):
    arrays = (cf.comp_ptr, cf.coeff, cf.term_ptr, cf.fvar, cf.fexp)
    return cf.dim, [(a.typecode, a.tobytes()) for a in arrays]


def _affine_csr_bytes(A, D):
    """`_csr_bytes` of ``z' = A z + D`` written out by hand: each row's
    nonzero entries by ascending column, then its offset if nonzero."""
    comp_ptr, coeff, term_ptr, fvar = [0], [], [0], []
    for row, d in zip(A, D):
        for j, a in enumerate(row):
            if a:
                coeff.append(float(a))
                fvar.append(j)
                term_ptr.append(len(fvar))
        if d:
            coeff.append(float(d))
            term_ptr.append(len(fvar))
        comp_ptr.append(len(coeff))
    arrays = [
        array("i", comp_ptr), array("d", coeff), array("i", term_ptr),
        array("i", fvar), array("i", [1] * len(fvar)),
    ]
    return len(A), [(a.typecode, a.tobytes()) for a in arrays]


@pytest.mark.parametrize(
    "system",
    [
        two_state,
        five_state,
        lambda: cascade(5, 2),
        lambda: parse_system(OFFSET),
    ],
    ids=["twostate", "fivestate", "cascade(5,2)", "offset"],
)
def test_lift_field_compiles_to_its_matrix_and_offset(system):
    sl = superlinearize(system())
    assert _csr_bytes(sl.compiled_field) == _affine_csr_bytes(sl.A, sl.D)


def test_lift_compiles_its_field_on_first_use_only():
    sl = superlinearize(cascade(5, 2))
    reloaded = document_to_lift(lift_to_document(sl))
    # neither construction nor loading a document compiles the field
    assert "compiled_field" not in vars(sl)
    assert "compiled_field" not in vars(reloaded)
    cf = sl.compiled_field
    assert sl.compiled_field is cf
    assert _csr_bytes(cf) == _csr_bytes(compile_field(sl.field()))
    assert _csr_bytes(reloaded.compiled_field) == _csr_bytes(cf)
    # the same holds for the expansions and for the original system's field
    assert "compiled_expansions" not in vars(sl)
    expansions = sl.compiled_expansions
    assert sl.compiled_expansions is expansions
    s = cascade(5, 2)
    assert "compiled_field" not in vars(s)
    assert s.compiled_field is s.compiled_field
    assert _csr_bytes(s.compiled_field) == _csr_bytes(compile_field(s.rhs))


def test_offset_lift_has_a_nonzero_offset():
    # keeps the "offset" case above covering constant terms
    assert superlinearize(parse_system(OFFSET)).D == (0, 2, 2)


@pytest.mark.parametrize(
    "system, x0",
    [
        (five_state, [0.1, 0.2, 0.3, 0.4, 0.5]),
        (lambda: cascade(4, 2), [0.7, -0.6, 0.5, -0.8]),
    ],
    ids=["fivestate", "cascade(4,2)"],
)
def test_rk4_end_state_agrees_with_dop853(system, x0):
    """Independent oracle: scipy's DOP853 shares no code with the RK4 kernels."""
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    s = system()
    states, completed = integrate(s.compiled_field, x0, 1e-3, 1000)
    assert completed == 1000
    sol = solve_ivp(
        lambda _t, y: [p.evaluate(y) for p in s.rhs],
        (0.0, 1.0), x0, method="DOP853", rtol=1e-12, atol=1e-12,
    )
    assert sol.success
    end = states[-s.dim:]
    assert max(abs(a - b) for a, b in zip(end, sol.y[:, -1])) <= 1e-9


# --- start state and projection error ---------------------------------------


def _hex(values):
    return [v.hex() for v in values]


def _eval_both(compiled_ext, cf, point):
    """`evaluate_compiled` with the C helper and with its pure twin."""
    results = []
    for helper in (compiled_ext.eval_into, numeric._eval_into):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(numeric, "EVAL_INTO", helper)
            results.append(_hex(evaluate_compiled(cf, point)))
    return results


@pytest.mark.parametrize(
    "system", [two_state, five_state, lambda: cascade(5, 2)],
    ids=["twostate", "fivestate", "cascade(5,2)"],
)
def test_compiled_start_state_equals_evaluate(compiled_ext, system):
    sl = superlinearize(system())
    rng = random.Random(7)
    for _ in range(20):
        x0 = [rng.uniform(-1.5, 1.5) for _ in range(sl.n)]
        expected = _hex(o.expansion.evaluate(x0) for o in sl.observables)
        c, pure = _eval_both(compiled_ext, sl.compiled_expansions, x0)
        assert c == pure == expected


MONOS = [m for m in product(range(4), repeat=3) if sum(m) <= 5]
wide_coeffs = st.builds(Fraction, st.integers(-(2**200), 2**200), st.integers(1, 2**200))
polys = st.dictionaries(st.sampled_from(MONOS), wide_coeffs, max_size=6).map(
    lambda terms: Polynomial(space("x1 x2 x3"), terms)
)


@settings(max_examples=200, deadline=None)
@given(st.lists(polys, max_size=4), st.tuples(st.floats(), st.floats(), st.floats()))
def test_compiled_map_equals_evaluate_on_any_point(compiled_ext, ps, point):
    expected = _hex(p.evaluate(point) for p in ps)
    c, pure = _eval_both(compiled_ext, compile_map(ps), point)
    assert c == pure == expected


def test_compiled_map_checks_its_buffers(compiled_ext):
    cf = superlinearize(five_state()).compiled_expansions
    arrays = csr_arrays(cf)
    y = array("d", [0.1, 0.2, 0.3, 0.4, 0.5])
    res = array("d", [0.0]) * cf.dim
    compiled_ext.eval_into(*arrays, y, res)
    with pytest.raises(TypeError):
        compiled_ext.eval_into(*arrays, array("f", y), res)
    with pytest.raises(TypeError):
        compiled_ext.eval_into(*arrays[:4], array("d", cf.fexp), y, res)
    with pytest.raises(ValueError):
        compiled_ext.eval_into(*arrays, y[: max(cf.fvar)], res)  # one variable short
    with pytest.raises(ValueError):
        compiled_ext.eval_into(*arrays, y, res[:-1])  # one component too few
    with pytest.raises(ValueError):
        compiled_ext.eval_into(*arrays, res, res)  # y and res share memory
    for cf in BAD_LAYOUTS.values():
        with pytest.raises(ValueError):
            compiled_ext.eval_into(*csr_arrays(cf), y[:1], res[:1])


def test_a_term_stream_too_large_to_allocate_is_a_memory_error(compiled_ext):
    # In a process of its own, whose address space kernel_smoke.py caps.
    if not Path("/proc/self/statm").exists():
        pytest.skip("capping the address space reads its size from /proc")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "kernel_smoke.py"), compiled_ext.__file__,
         "--limit-memory"],
        capture_output=True, text=True, timeout=600,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]),
                 SLIN_PURE_PYTHON="1"),
    )
    assert proc.returncode == 0 and proc.stdout == "ok\n", proc.stdout + proc.stderr


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 6), st.booleans())
def test_compiled_kernel_equals_its_twin_on_any_field(compiled_ext, rng, dim, spike):
    cf = random_compiled_map(rng, dim, dim, spike)
    y0 = [rng.uniform(-1, 1) for _ in range(dim)]
    c_states, c_done = integrate(cf, y0, 1e-2, 50, compiled_ext.rk4_kernel)
    py_states, py_done = integrate(cf, y0, 1e-2, 50, rk4_kernel_python)
    assert c_done == py_done
    assert c_states.tobytes() == py_states.tobytes()


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 6), st.integers(1, 6), st.booleans())
def test_compiled_map_equals_its_twin_on_any_map(compiled_ext, rng, n_out, n_in, spike):
    cf = random_compiled_map(rng, n_out, n_in, spike)
    c, pure = _eval_both(compiled_ext, cf, [rng.uniform(-1.5, 1.5) for _ in range(n_in)])
    assert c == pure


def _projection_errors(compiled_ext, zs, dim_z, xs, n):
    c = compiled_ext.projection_error(zs, dim_z, xs, n)
    pure = projection_error_python(zs, dim_z, xs, n)
    return c.hex(), pure.hex()


@pytest.mark.parametrize(
    "system", [two_state, five_state, lambda: cascade(5, 2)],
    ids=["twostate", "fivestate", "cascade(5,2)"],
)
def test_compiled_projection_error_equals_its_twin_on_lifts(compiled_ext, system):
    s = system()
    sl = superlinearize(s)
    x0 = [0.9 - 0.3 * i for i in range(s.dim)]
    for step in (0.05, 1e-3):
        xs, _ = integrate(s.compiled_field, x0, step, round(2 / step))
        z0 = array("d", x0) + evaluate_compiled(sl.compiled_expansions, x0)
        zs, _ = integrate(sl.compiled_field, z0, step, round(2 / step))
        c, pure = _projection_errors(compiled_ext, zs, sl.dim, xs, s.dim)
        assert c == pure
        assert 0 < float.fromhex(c) < 1e-3


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_compiled_projection_error_equals_its_twin_on_any_floats(compiled_ext, data):
    n = data.draw(st.integers(0, 4))
    dim_z = data.draw(st.integers(max(n, 1), 6))
    samples = data.draw(st.integers(1, 8))
    floats = st.floats(width=64)
    zs = array("d", data.draw(st.lists(floats, min_size=samples * dim_z, max_size=samples * dim_z)))
    xs = array("d", data.draw(st.lists(floats, min_size=samples * n, max_size=samples * n)))
    c, pure = _projection_errors(compiled_ext, zs, dim_z, xs, n)
    assert c == pure


def test_compiled_projection_error_checks_its_arguments(compiled_ext):
    zs, xs = array("d", [0.0] * 6), array("d", [0.0] * 4)
    assert compiled_ext.projection_error(zs, 3, xs, 2) == 0.0
    for args in [(zs, 4, xs, 2), (zs, 3, xs[:3], 2), (zs, 1, xs, 2), (zs, 3, xs, -1),
                 (zs[:0], 3, xs[:0], 2)]:
        with pytest.raises(ValueError):
            compiled_ext.projection_error(*args)
    with pytest.raises(TypeError):
        compiled_ext.projection_error(array("f", zs), 3, xs, 2)


def test_every_twin_comes_with_its_backend():
    selected = (numeric.RK4_KERNEL, FORMAT_ROWS, numeric.EVAL_INTO, numeric.PROJECTION_ERROR)
    pure = numeric._PURE[:4]
    if BACKEND == "python":
        assert all(a is b for a, b in zip(selected, pure))
    else:
        assert all(a is not b for a, b in zip(selected, pure))


HELPERS = ("rk4_kernel", "format_rows", "eval_into", "projection_error")


@pytest.mark.parametrize("missing", HELPERS)
def test_a_stale_build_selects_every_pure_twin(monkeypatch, missing):
    stale = types.ModuleType("slin._rk4")
    for name in HELPERS:
        if name != missing:
            setattr(stale, name, object())
    monkeypatch.setitem(sys.modules, "slin._rk4", stale)
    monkeypatch.delenv("SLIN_PURE_PYTHON", raising=False)
    kernel, format_rows, eval_into, projection_error, backend = numeric._select_backend()
    assert backend == "python"
    assert kernel is rk4_kernel_python
    assert format_rows is None
    assert eval_into is numeric._eval_into
    assert projection_error is projection_error_python


def test_a_complete_build_selects_every_compiled_helper(monkeypatch):
    fresh = types.ModuleType("slin._rk4")
    for name in HELPERS:
        setattr(fresh, name, object())
    monkeypatch.setitem(sys.modules, "slin._rk4", fresh)
    monkeypatch.delenv("SLIN_PURE_PYTHON", raising=False)
    selected = numeric._select_backend()
    assert selected == (fresh.rk4_kernel, fresh.format_rows, fresh.eval_into,
                        fresh.projection_error, "c")

"""Backend equivalence and the compiled-field representation."""

import math
import os
import random
from array import array

import pytest

from slin import parse_system, superlinearize
from slin.document import document_to_lift, lift_to_document
from slin.numeric import (
    BACKEND,
    FORMAT_ROWS,
    compile_affine,
    compile_field,
    integrate,
    integrate_compiled,
    rk4_kernel_python,
)

from helpers import cascade, five_state, two_state

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
    states, completed = integrate_compiled(cf, [1, 2, 3, 4, 5], 1.0, 0)
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
        py_states, py_done = integrate_compiled(cf, y0, 1e-2, 200, rk4_kernel_python)
        c_states, c_done = integrate_compiled(cf, y0, 1e-2, 200, compiled_kernel)
        assert py_done == c_done == 200
        assert py_states == c_states  # exact equality, not approximate


def test_backends_agree_on_divergence_step(compiled_kernel):
    s = parse_system("vars: x\nx' = x^2\n")
    cf = compile_field(s.rhs)
    py_states, py_done = integrate_compiled(cf, [1.0], 1e-3, 2000, rk4_kernel_python)
    c_states, c_done = integrate_compiled(cf, [1.0], 1e-3, 2000, compiled_kernel)
    assert py_done == c_done < 2000
    assert py_states == c_states


def test_compiled_kernel_checks_its_buffers(compiled_kernel):
    cf = compile_field(five_state().rhs)
    arrays = [cf.comp_ptr, cf.coeff, cf.term_ptr, cf.fvar, cf.fexp]
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


def test_integrate_rejects_wrong_state_size():
    s = five_state()
    cf = compile_field(s.rhs)
    with pytest.raises(ValueError):
        integrate_compiled(cf, [1.0, 2.0], 1e-3, 10)


def test_compile_field_requires_square_field():
    s = five_state()
    with pytest.raises(ValueError):
        compile_field(s.rhs[:3])


# Its lift has the nonzero offset D = (0, 2, 2).
OFFSET = "vars: x y\nx' = -x + y^2 + 1\ny' = -y + 2\n"


def _csr_bytes(cf):
    arrays = (cf.comp_ptr, cf.coeff, cf.term_ptr, cf.fvar, cf.fexp)
    return cf.dim, [(a.typecode, a.tobytes()) for a in arrays]


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
def test_compile_affine_equals_compile_field_of_the_lift(system):
    sl = superlinearize(system())
    assert _csr_bytes(compile_affine(sl.A, sl.D)) == _csr_bytes(compile_field(sl.field()))


def test_lift_compiles_its_field_on_first_use_only():
    sl = superlinearize(cascade(5, 2))
    reloaded = document_to_lift(lift_to_document(sl))
    # neither construction nor loading a document compiles the field
    assert "compiled_field" not in vars(sl)
    assert "compiled_field" not in vars(reloaded)
    cf = sl.compiled_field
    assert sl.compiled_field is cf
    assert _csr_bytes(cf) == _csr_bytes(compile_affine(sl.A, sl.D))
    assert _csr_bytes(reloaded.compiled_field) == _csr_bytes(cf)


def test_offset_lift_has_a_nonzero_offset():
    # keeps the "offset" case above covering constant terms
    assert superlinearize(parse_system(OFFSET)).D == (0, 2, 2)


def test_compile_affine_requires_a_square_matrix():
    with pytest.raises(ValueError):
        compile_affine(((1, 0), (0, 1)), (0,))
    with pytest.raises(ValueError):
        compile_affine(((1, 0), (0,)), (0, 0))


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
    states, completed = integrate(s.rhs, x0, 1e-3, 1000)
    assert completed == 1000
    sol = solve_ivp(
        lambda _t, y: [p.evaluate(y) for p in s.rhs],
        (0.0, 1.0), x0, method="DOP853", rtol=1e-12, atol=1e-12,
    )
    assert sol.success
    end = states[-s.dim:]
    assert max(abs(a - b) for a, b in zip(end, sol.y[:, -1])) <= 1e-9

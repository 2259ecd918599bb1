"""Run one build of `slin._rk4` against its pure twins, in a process of its own.

    PYTHONPATH=src:tests python tests/kernel_smoke.py BUILD/_rk4.so [--limit-memory]

The compiled RK4 kernel and map evaluation must equal `rk4_kernel_python`
and `_eval_into` bit for bit on random maps (`helpers.random_compiled_map`)
and on the lifts of fivestate, cascade(5,2) and cascade(4,3); the CSV row
formatter must equal `format_rows_python` byte for byte on
`helpers.edge_floats` and on random bit patterns, and the projection error
`projection_error_python` on random flat trajectories. Lifts are affine
fields, which the kernel steps by their RK4 step map; so are random affine
fields, one of dimension 1, an all-zero field, a constants-only field, a
field whose map overflows and one whose map has an empty row and a row of
more than 16 entries, on which the kernel must equal its twin too. Runs
that keep only the first coordinates of each sample (`keep` equal to the
system's n on a lift, equal to dim, and 1 on a field whose other coordinate
diverges) must equal the twin's as well. Every map of `helpers.BAD_LAYOUTS`,
a `keep` below 0 or above dim, an `out` too short for `keep`, and every bad
argument of the formatter and the projection error (a dimension below 1, a
length that is not a whole number of samples) must be a ValueError, a
buffer of another typecode a TypeError, and `helpers.HUGE_STREAM`, whose
term stream needs 512 MiB, a MemoryError. For that allocation to fail, either
pass `--limit-memory`, which caps this process's address space, or, under
AddressSanitizer (which reserves far more address space than it uses), set
``ASAN_OPTIONS=max_allocation_size_mb=256:allocator_may_return_null=1``.
Prints ``ok`` when every check holds; any other outcome is an exception or,
under a sanitizer, its report.
"""

import importlib.util
import random
import resource
import sys
from array import array

from slin import superlinearize
from slin.numeric import (
    _eval_into,
    evaluate_compiled,
    format_rows_python,
    integrate,
    projection_error_python,
    rk4_kernel_python,
)

from helpers import (
    BAD_LAYOUTS,
    HUGE_STREAM,
    cascade,
    csr_arrays,
    edge_floats,
    five_state,
    random_affine_terms,
    random_compiled_map,
    random_doubles,
    terms_to_compiled,
)


def load(path):
    spec = importlib.util.spec_from_file_location("slin._rk4", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def limit_address_space(extra):
    """Cap the address space at its present size plus `extra` bytes."""
    with open("/proc/self/statm") as fh:
        size = int(fh.read().split()[0]) * resource.getpagesize()
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    resource.setrlimit(resource.RLIMIT_AS, (size + extra, hard))


def expect(exc_type, call):
    try:
        call()
    except exc_type:
        return
    raise AssertionError(f"expected {exc_type.__name__}")


def same_flow(ext, cf, y0, step, n_steps, keep=None):
    c_states, c_done = integrate(cf, y0, step, n_steps, ext.rk4_kernel, keep)
    py_states, py_done = integrate(cf, y0, step, n_steps, rk4_kernel_python, keep)
    assert c_done == py_done and c_states.tobytes() == py_states.tobytes()
    return c_done


def same_values(ext, cf, point):
    c = array("d", [0.0]) * cf.dim
    py = array("d", [0.0]) * cf.dim
    ext.eval_into(*csr_arrays(cf), array("d", point), c)
    _eval_into(*csr_arrays(cf), array("d", point), py)
    assert c.tobytes() == py.tobytes()


def same_rows(ext, values, dim, step):
    flat = array("d", values) + array("d", [0.0]) * (-len(values) % dim)
    n = len(flat) // dim
    for start, stop in [(0, n), (-3, 2), (n - 1, n + 5), (5, 3), (0, 0)]:
        text = ext.format_rows(flat, dim, step, start, stop)
        assert text == format_rows_python(flat, dim, step, start, stop)


def same_error(ext, zs, dim_z, xs, n):
    c = ext.projection_error(zs, dim_z, xs, n)
    assert c.hex() == projection_error_python(zs, dim_z, xs, n).hex()


def main(path, limit_memory):
    ext = load(path)
    one, res = array("d", [0.5]), array("d", [0.0])
    out = array("d", [0.0]) * 11
    for cf in BAD_LAYOUTS.values():
        expect(ValueError, lambda: ext.rk4_kernel(*csr_arrays(cf), one, 1e-3, 10, out))
        expect(ValueError, lambda: ext.eval_into(*csr_arrays(cf), one, res))
    decay = terms_to_compiled([[(-1.0, [(0, 1)])], [(-1.0, [(1, 1)])]])
    two = array("d", [0.5, 0.25])
    for kernel in (ext.rk4_kernel, rk4_kernel_python):
        for keep in (-1, 3):
            expect(ValueError, lambda: kernel(*csr_arrays(decay), two, 1e-3, 10, out, keep))
        # 10 steps keeping 1 coordinate need 11 doubles, keeping 2 need 22.
        expect(ValueError, lambda: kernel(*csr_arrays(decay), two, 1e-3, 10, out[:10], 1))
        expect(ValueError, lambda: kernel(*csr_arrays(decay), two, 1e-3, 10, out, 2))
    six = array("d", [0.5]) * 6
    for args in [(six, 0, 1e-3, 0, 6), (six, -1, 1e-3, 0, 6), (six, 4, 1e-3, 0, 6)]:
        expect(ValueError, lambda: ext.format_rows(*args))
    expect(TypeError, lambda: ext.format_rows(array("f", six), 2, 1e-3, 0, 3))
    for args in [(six, 0, six, 0), (six, 4, six, 2), (six, 3, six[:5], 2), (six, 2, six, 3)]:
        expect(ValueError, lambda: ext.projection_error(*args))
    expect(TypeError, lambda: ext.projection_error(six, 3, array("f", six), 2))
    # No sample: an empty text, however large the dimension.
    assert ext.format_rows(array("d"), sys.maxsize, 1e-3, 0, 10) == ""
    if limit_memory:
        limit_address_space(2**28)
    expect(MemoryError, lambda: ext.rk4_kernel(*csr_arrays(HUGE_STREAM), one, 1e-3, 10, out))
    expect(MemoryError, lambda: ext.eval_into(*csr_arrays(HUGE_STREAM), one, res))

    rng = random.Random(2024)
    for step in (1e-3, 5e-4, 0.1):
        same_rows(ext, edge_floats(), 4, step)
    same_rows(ext, random_doubles(rng, 200_000), 10, 1e-3)
    for _ in range(300):
        n = rng.randint(0, 4)
        dim_z, samples = rng.randint(max(n, 1), 6), rng.randint(1, 8)
        same_error(ext, random_doubles(rng, samples * dim_z), dim_z,
                   random_doubles(rng, samples * n), n)
    for k in range(300):
        n_in = rng.randint(1, 6)
        spike = k % 5 == 0
        square = random_compiled_map(rng, n_in, n_in, spike)
        same_flow(ext, square, [rng.uniform(-1, 1) for _ in range(n_in)], 1e-2, 50)
        some = random_compiled_map(rng, rng.randint(0, 6), n_in, spike)
        same_values(ext, some, [rng.uniform(-1.5, 1.5) for _ in range(n_in)])
    for k in range(100):
        dim = rng.randint(1, 6)
        affine = terms_to_compiled(random_affine_terms(rng, dim, 1e8 if k % 5 == 0 else 2.0))
        same_flow(ext, affine, [rng.uniform(-1, 1) for _ in range(dim)], 1e-2, 50)
    for terms, y0 in [
        ([[(-0.5, [(0, 1)]), (0.25, [])]], [1.0]),                 # dimension 1
        ([[], [], []], [0.5, -1.0, 2.0]),                          # all zero
        ([[(2.0, [])], [], [(-0.5, [(1, 0)])]], [0.0, 1.0, 3.0]),  # constants only
        ([[(1e200, [(0, 1)])], [(1.0, [(1, 1)])]], [1.0, 1.0]),    # the map overflows
    ]:
        same_flow(ext, terms_to_compiled(terms), y0, 1e-3, 20)
    # Row 0 of the map reads all 20 values and the slot; row 1 is empty.
    wide = [[(0.05 * (j + 1), [(j, 1)]) for j in range(20)] + [(0.5, [])], []]
    wide += [[(-1.0, [(i, 1)]), (0.25, [(i - 1, 1)])] for i in range(2, 20)]
    for keep in (None, 2, 0):
        same_flow(ext, terms_to_compiled(wide), [0.1 * i for i in range(20)], 1e-2, 50, keep)
    # x1 = 1 / (1 - t) leaves the finite range near t = 1: a run keeping
    # only x0 stops where the full run stops.
    blowup = terms_to_compiled([[(-1.0, [(0, 1)])], [(1.0, [(1, 2)])]])
    stops = {same_flow(ext, blowup, [1.0, 1.0], 1e-3, 2000, keep) for keep in (1, 2)}
    assert len(stops) == 1 and stops.pop() < 2000
    for system in (five_state(), cascade(5, 2), cascade(4, 3)):
        sl = superlinearize(system)
        x0 = [0.9 - 0.3 * i for i in range(system.dim)]
        same_values(ext, sl.compiled_expansions, x0)
        z0 = array("d", x0) + evaluate_compiled(sl.compiled_expansions, x0)
        same_flow(ext, system.compiled_field, x0, 1e-3, 200)
        for keep in (None, system.dim, sl.dim):
            same_flow(ext, sl.compiled_field, z0, 1e-3, 200, keep)
    print("ok")


if __name__ == "__main__":
    main(sys.argv[1], "--limit-memory" in sys.argv[2:])

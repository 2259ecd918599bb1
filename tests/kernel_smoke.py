"""Run one build of `slin._rk4` against its pure twins, in a process of its own.

    PYTHONPATH=src:tests python tests/kernel_smoke.py BUILD/_rk4.so [--limit-memory]

The compiled RK4 kernel and map evaluation must equal `rk4_kernel_python`
and `_eval_into` bit for bit on random maps (`helpers.random_compiled_map`)
and on the lifts of fivestate and cascade(5,2). Every map of
`helpers.BAD_LAYOUTS` must be a ValueError, and `helpers.HUGE_STREAM`, whose
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
from slin.numeric import _eval_into, evaluate_compiled, integrate, rk4_kernel_python

from helpers import BAD_LAYOUTS, HUGE_STREAM, cascade, csr_arrays, five_state, random_compiled_map


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


def same_flow(ext, cf, y0, step, n_steps):
    c_states, c_done = integrate(cf, y0, step, n_steps, ext.rk4_kernel)
    py_states, py_done = integrate(cf, y0, step, n_steps, rk4_kernel_python)
    assert c_done == py_done and c_states.tobytes() == py_states.tobytes()


def same_values(ext, cf, point):
    c = array("d", [0.0]) * cf.dim
    py = array("d", [0.0]) * cf.dim
    ext.eval_into(*csr_arrays(cf), array("d", point), c)
    _eval_into(*csr_arrays(cf), array("d", point), py)
    assert c.tobytes() == py.tobytes()


def main(path, limit_memory):
    ext = load(path)
    one, res = array("d", [0.5]), array("d", [0.0])
    out = array("d", [0.0]) * 11
    for cf in BAD_LAYOUTS.values():
        expect(ValueError, lambda: ext.rk4_kernel(*csr_arrays(cf), one, 1e-3, 10, out))
        expect(ValueError, lambda: ext.eval_into(*csr_arrays(cf), one, res))
    if limit_memory:
        limit_address_space(2**28)
    expect(MemoryError, lambda: ext.rk4_kernel(*csr_arrays(HUGE_STREAM), one, 1e-3, 10, out))
    expect(MemoryError, lambda: ext.eval_into(*csr_arrays(HUGE_STREAM), one, res))

    rng = random.Random(2024)
    for k in range(300):
        n_in = rng.randint(1, 6)
        spike = k % 5 == 0
        square = random_compiled_map(rng, n_in, n_in, spike)
        same_flow(ext, square, [rng.uniform(-1, 1) for _ in range(n_in)], 1e-2, 50)
        some = random_compiled_map(rng, rng.randint(0, 6), n_in, spike)
        same_values(ext, some, [rng.uniform(-1.5, 1.5) for _ in range(n_in)])
    for system in (five_state(), cascade(5, 2)):
        sl = superlinearize(system)
        x0 = [0.9 - 0.3 * i for i in range(system.dim)]
        same_values(ext, sl.compiled_expansions, x0)
        z0 = array("d", x0) + evaluate_compiled(sl.compiled_expansions, x0)
        same_flow(ext, system.compiled_field, x0, 1e-3, 200)
        same_flow(ext, sl.compiled_field, z0, 1e-3, 200)
    print("ok")


if __name__ == "__main__":
    main(sys.argv[1], "--limit-memory" in sys.argv[2:])

"""The compiled helpers under AddressSanitizer and UndefinedBehaviorSanitizer.

`slin._rk4` is built from this checkout with ``-fsanitize=address,undefined
-fno-sanitize-recover=all`` into a temporary directory, and
`tests/kernel_smoke.py` runs it in a subprocess: random maps, affine fields
stepped by their RK4 step map (dimension 1, all zero, constants only, one
whose map overflows, one whose map has an empty row and a row of 21
entries), runs that keep only some coordinates of each sample and three
lifts against the pure twins, the bad layouts, bad `keep` values and a
term stream too large to allocate. Any sanitizer report fails the test. The subprocess preloads
libasan (the interpreter itself is not instrumented) and sets
``PYTHONMALLOC=malloc``, without which Python's small-object allocator would
hide the blocks `PyMem_Malloc` hands out from AddressSanitizer.
"""

import os
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SANITIZE = "-fsanitize=address,undefined"


def _libasan(cc):
    """The path of the compiler's libasan, or None when it has none."""
    try:
        proc = subprocess.run([cc, "-print-file-name=libasan.so"], capture_output=True, text=True)
    except OSError:
        return None
    path = proc.stdout.strip()
    return path if proc.returncode == 0 and os.path.isabs(path) and os.path.exists(path) else None


@pytest.fixture(scope="module")
def sanitized_ext(tmp_path_factory):
    cc = (sysconfig.get_config_var("CC") or "cc").split()[0]
    libasan = _libasan(cc)
    if libasan is None:
        pytest.skip(f"the C compiler ({cc}) has no libasan")
    tmp = tmp_path_factory.mktemp("rk4asan")
    env = dict(
        os.environ,
        CFLAGS=f"{SANITIZE} -fno-sanitize-recover=all -fno-omit-frame-pointer -g",
        LDFLAGS=SANITIZE,
    )
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext",
         "--build-lib", str(tmp / "lib"), "--build-temp", str(tmp / "temp")],
        cwd=ROOT, capture_output=True, text=True, env=env,
    )
    built = list((tmp / "lib" / "slin").glob("_rk4.*"))
    assert proc.returncode == 0 and len(built) == 1, proc.stdout + proc.stderr
    return built[0], libasan


def test_compiled_helpers_run_clean_under_sanitizers(sanitized_ext):
    module, libasan = sanitized_ext
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]),
        SLIN_PURE_PYTHON="1",  # slin itself must not load another build
        PYTHONMALLOC="malloc",
        LD_PRELOAD=libasan,
        ASAN_OPTIONS="detect_leaks=0:max_allocation_size_mb=256:allocator_may_return_null=1",
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "kernel_smoke.py"), str(module)],
        capture_output=True, text=True, env=env, timeout=600,
    )
    report = proc.stdout + proc.stderr
    assert proc.returncode == 0 and proc.stdout == "ok\n", report
    assert "ERROR:" not in proc.stderr and "runtime error" not in proc.stderr, report

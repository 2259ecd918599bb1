"""Shared fixtures and the terminal summary of the acceptance criteria."""

import importlib.util
import os
import re
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def compiled_ext(tmp_path_factory):
    """The C extension `slin._rk4` built from this checkout into a temporary directory.

    Building here, rather than importing an installed copy, means the RK4
    kernel and the CSV row formatter are tested even when no in-place build
    exists, and a stale build from other sources is never the one tested.
    It compiles with every warning an error, set through the environment
    so that an install (`setup.py` itself) never fails on a warning.
    """
    cc = (sysconfig.get_config_var("CC") or "cc").split()[0]
    if shutil.which(cc) is None:
        pytest.skip(f"no C compiler ({cc}) on PATH")
    tmp = tmp_path_factory.mktemp("rk4build")
    cflags = f"{os.environ.get('CFLAGS', '')} -Wall -Wextra -Werror".strip()
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext",
         "--build-lib", str(tmp / "lib"), "--build-temp", str(tmp / "temp")],
        cwd=ROOT, capture_output=True, text=True, env=dict(os.environ, CFLAGS=cflags),
    )
    built = list((tmp / "lib" / "slin").glob("_rk4.*"))
    assert proc.returncode == 0 and len(built) == 1, proc.stdout + proc.stderr
    spec = importlib.util.spec_from_file_location("slin._rk4", built[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def compiled_kernel(compiled_ext):
    return compiled_ext.rk4_kernel


@pytest.fixture
def canonical_constructions(monkeypatch):
    """A list that gains one entry, the size of the terms given, per call of
    the public, canonicalizing ``Polynomial(space, terms)`` during the test."""
    from slin import Polynomial

    calls = []
    init = Polynomial.__init__

    def counting(self, space, terms):
        calls.append(len(terms))
        init(self, space, terms)

    monkeypatch.setattr(Polynomial, "__init__", counting)
    return calls


_ACCEPTANCE = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    match = re.match(r"test_criterion_(\d+)", item.name)
    if match and report.when == "call":
        _ACCEPTANCE[int(match.group(1))] = (item.name, report.passed)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number in sorted(_ACCEPTANCE):
        name, passed = _ACCEPTANCE[number]
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {number} [{name}]: {status}")

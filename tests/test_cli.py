"""End-to-end tests of the command-line surface and its exit-code contract."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import slin
from slin import numeric, parse_system, simulate, verify_numeric
from slin.cli import main
from slin.document import lift_to_document, load_lift
from slin.verify import write_trajectory_csv

from helpers import BLOWUP, FIVE_STATE, OSCILLATOR, TWO_STATE, WRONG_TYPES, cascade_text
import handlift


@pytest.fixture(autouse=True)
def plain_output(monkeypatch):
    monkeypatch.setenv("SLIN_COLOR", "0")


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [
        ("two_state", TWO_STATE),
        ("five_state", FIVE_STATE),
        ("oscillator", OSCILLATOR),
        ("blowup", BLOWUP),
    ]:
        p = tmp_path / f"{name}.sys"
        p.write_text(text)
        paths[name] = str(p)
    paths["dir"] = tmp_path
    return paths


# --- check -----------------------------------------------------------------


def test_check_pass(files, capsys):
    assert main(["check", files["five_state"]]) == 0
    assert "PASS" in capsys.readouterr().out


def test_check_fail_with_witness(files, capsys):
    assert main(["check", files["blowup"]]) == 2
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "gamma(1,1) = 2*x" in out


def test_check_missing_file(capsys):
    assert main(["check", "/nonexistent/no.sys"]) == 1
    assert "no such file" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "{dir}"],
        ["check", "{latin1}"],
        ["check", "{two_state}", "--dot", "{dir}"],
        ["lift", "{two_state}", "-o", "{dir}"],
        ["verify", "{two_state}", "{dir}"],
        ["verify", "{two_state}", "{latin1}"],
        ["simulate", "{two_state}", "--lift", "{latin1_lift}", "--x0", "1,1"],
        ["simulate", "{two_state}", "--lift", "{lift}", "--x0", "1,1", "-o", "{dir}"],
    ],
    ids=["check-dir", "check-latin1", "dot-to-dir", "lift-o-dir", "verify-dir", "verify-latin1",
         "simulate-latin1-lift", "simulate-lift-o-dir"],
)
def test_io_failure_prints_one_error_line(files, capsys, argv):
    lift = files["dir"] / "lift.json"
    assert main(["lift", files["two_state"], "-o", str(lift)]) == 0
    capsys.readouterr()
    latin1 = files["dir"] / "latin1.sys"
    latin1.write_bytes("vars: x\nx' = -x # caf\xe9\n".encode("latin-1"))
    latin1_lift = files["dir"] / "latin1.json"
    latin1_lift.write_bytes('{"schema": "caf\xe9"}'.encode("latin-1"))
    paths = dict(files, latin1=str(latin1), latin1_lift=str(latin1_lift), lift=str(lift))
    assert main([arg.format(**paths) for arg in argv]) == 1
    out, err = capsys.readouterr()
    assert out == ""  # no verdict, summary, projection error or trajectory before the error
    assert err.startswith("error: ") and err.count("\n") == 1
    for key in ("latin1", "latin1_lift"):
        if "{%s}" % key in argv:
            assert paths[key] in err  # the error names the file that is not UTF-8


@pytest.mark.parametrize(
    "argv, code",
    [
        ([], 1),
        (["frob"], 1),
        (["simulate", "{two_state}"], 1),  # --x0 is required
        (["simulate", "{two_state}", "--x0", "1,1", "--t", "abc"], 1),
        (["xumama", "{two_state}", "--max-n", "abc"], 1),
        (["-h"], 0),
        (["simulate", "-h"], 0),
    ],
    ids=["no-command", "unknown-command", "no-x0", "t-abc", "max-n-abc", "help", "simulate-help"],
)
def test_usage_errors_exit_1_and_help_exits_0(files, capsys, argv, code):
    # 2 is reserved for mathematical negatives, so a typo must not read as one.
    assert main([arg.format(**files) for arg in argv]) == code
    out, err = capsys.readouterr()
    assert "usage: slin" in (err if code else out)


def test_check_parse_error_position(files, capsys, tmp_path):
    bad = tmp_path / "bad.sys"
    bad.write_text("vars: x\nx' = 1/x\n")
    assert main(["check", str(bad)]) == 1
    assert "2:" in capsys.readouterr().err


def test_check_dot_export(files, capsys, tmp_path):
    out = tmp_path / "graphs.dot"
    assert main(["check", files["five_state"], "--dot", str(out)]) == 0
    text = out.read_text()
    assert "digraph wdg {" in text
    assert "digraph skeleton {" in text
    assert 'label="2*x2"' in text
    assert 'tooltip="x1, x2"' in text


# --- lift ------------------------------------------------------------------


def test_lift_two_state(files, capsys, tmp_path):
    out = tmp_path / "lift.json"
    assert main(["lift", files["two_state"], "-o", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "n = 2" in stdout
    assert "m = 1" in stdout
    assert "lifted dimension = 3" in stdout
    assert "symbolic verification: PASS" in stdout
    doc = json.loads(out.read_text())
    assert doc["m"] == 1


def test_lift_affine_system(capsys, tmp_path):
    p = tmp_path / "affine.sys"
    p.write_text("vars: x y\nx' = -x + y\ny' = 2*y + 1\n")
    assert main(["lift", str(p)]) == 0
    assert "m = 0" in capsys.readouterr().out


def test_lift_five_state(files, capsys, tmp_path):
    out = tmp_path / "five.json"
    assert main(["lift", files["five_state"], "-o", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "m = 16" in stdout
    assert "symbolic verification: PASS" in stdout


def test_lift_condition_failure(files, capsys):
    assert main(["lift", files["blowup"]]) == 2
    out = capsys.readouterr().out
    assert "gamma(1,1) = 2*x" in out


def test_lift_then_verify_roundtrip(files, capsys, tmp_path):
    out = tmp_path / "lift.json"
    assert main(["lift", files["five_state"], "-o", str(out)]) == 0
    assert main(["verify", files["five_state"], str(out)]) == 0
    assert "PASS" in capsys.readouterr().out


# --- verify ----------------------------------------------------------------


def _write_doc(tmp_path, sl, name="hand.json"):
    path = tmp_path / name
    path.write_text(json.dumps(lift_to_document(sl), indent=2))
    return str(path)


def test_verify_hand_built_document(files, capsys, tmp_path):
    doc = _write_doc(tmp_path, handlift.correct_lift())
    assert main(["verify", files["five_state"], doc]) == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_miswired_document_pinpoints_row(files, capsys, tmp_path):
    doc = _write_doc(tmp_path, handlift.miswired_lift())
    assert main(["verify", files["five_state"], doc]) == 2
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "row 5 (x5)" in out


def test_verify_corrupted_entry(files, capsys, tmp_path):
    sl = handlift.correct_lift()
    doc = lift_to_document(sl)
    doc["A"][7][8] = "17"  # arbitrary corruption in an observable row
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", files["five_state"], str(path)]) == 2
    assert "residual" in capsys.readouterr().out


def test_verify_wrong_system_dimension(files, capsys, tmp_path):
    doc = _write_doc(tmp_path, handlift.correct_lift())
    assert main(["verify", files["two_state"], doc]) == 1
    assert "error" in capsys.readouterr().err


def test_verify_schema_mismatch(files, capsys, tmp_path):
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps({"schema": "other/1"}))
    assert main(["verify", files["five_state"], str(path)]) == 1


@pytest.mark.parametrize("corrupt", WRONG_TYPES.values(), ids=WRONG_TYPES.keys())
def test_verify_wrongly_typed_document_exits_1(files, capsys, tmp_path, corrupt):
    doc = lift_to_document(handlift.correct_lift())
    corrupt(doc)
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", files["five_state"], str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("fault", ["system", "lift"])
@pytest.mark.parametrize("command", ["verify", "simulate"])
def test_the_error_names_the_faulty_one_of_two_files(files, capsys, tmp_path, command, fault):
    lift = tmp_path / "good.json"
    assert main(["lift", files["two_state"], "-o", str(lift)]) == 0
    system = files["two_state"]
    if fault == "system":
        system = tmp_path / "bad.sys"
        system.write_text(TWO_STATE.replace("y' = -y", "y' = -y *"))
        expected = f"error: {system}:3:10: expected a term\n"
    else:
        truncated = tmp_path / "trunc.json"
        truncated.write_text(lift.read_text()[:40])
        lift = truncated
        expected = f"error: {truncated}: not valid JSON: "
    argv = {
        "verify": ["verify", str(system), str(lift)],
        "simulate": ["simulate", str(system), "--lift", str(lift), "--x0", "1,1"],
    }[command]
    capsys.readouterr()
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(expected) and err.count("\n") == 1


# --- simulate ----------------------------------------------------------------


def test_simulate_writes_csv(files, capsys, tmp_path):
    out = tmp_path / "traj.csv"
    rc = main(
        ["simulate", files["two_state"], "--x0", "1,1", "--t", "2", "-o", str(out)]
    )
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,x,y"
    assert len(lines) == 2002  # header + 2001 samples


def test_simulate_with_lift_reports_error(files, capsys, tmp_path):
    lift_path = tmp_path / "lift.json"
    assert main(["lift", files["two_state"], "-o", str(lift_path)]) == 0
    capsys.readouterr()
    out = tmp_path / "traj.csv"
    rc = main(
        [
            "simulate",
            files["two_state"],
            "--lift",
            str(lift_path),
            "--x0",
            "1,1",
            "--t",
            "2",
            "-o",
            str(out),
        ]
    )
    assert rc == 0
    stdout = capsys.readouterr().out
    error_line = next(l for l in stdout.splitlines() if "max projection error" in l)
    reported = float(error_line.split(":")[-1])
    assert reported <= 1e-6


def test_simulate_rejects_a_lift_over_other_names(files, capsys, tmp_path):
    lift_path = tmp_path / "lift.json"
    assert main(["lift", files["two_state"], "-o", str(lift_path)]) == 0
    capsys.readouterr()
    renamed = tmp_path / "renamed.sys"
    renamed.write_text(TWO_STATE.replace("x", "u").replace("y", "v"))
    argv = ["simulate", str(renamed), "--lift", str(lift_path), "--x0", "1,1"]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""  # no projection error and no CSV
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("lift", ["two_state", "missing"])
def test_simulate_reads_the_lift_before_it_integrates(files, capsys, tmp_path, monkeypatch, lift):
    # blowup.sys diverges from x = 1, so an integration first would exit 3.
    lift_path = tmp_path / "lift.json"
    if lift == "two_state":
        assert main(["lift", files["two_state"], "-o", str(lift_path)]) == 0
        capsys.readouterr()
    calls = []
    monkeypatch.setattr(numeric, "RK4_KERNEL", lambda *args: calls.append(args))
    argv = ["simulate", files["blowup"], "--lift", str(lift_path), "--x0", "1", "--t", "5"]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and calls == []
    assert err.startswith("error: ") and err.count("\n") == 1


def test_simulate_with_lift_integrates_each_flow_once(files, capsys, tmp_path, monkeypatch):
    lift_path = tmp_path / "lift.json"
    assert main(["lift", files["five_state"], "-o", str(lift_path)]) == 0
    capsys.readouterr()
    calls = []
    kernel = numeric.RK4_KERNEL

    def counting_kernel(*args):
        calls.append(len(args[5]))  # the state's dimension
        return kernel(*args)

    monkeypatch.setattr(numeric, "RK4_KERNEL", counting_kernel)
    out = tmp_path / "traj.csv"
    x0 = "0.1,-0.2,0.3,-0.4,0.5"
    argv = ["simulate", files["five_state"], "--lift", str(lift_path), "--x0", x0,
            "--t", "2", "-o", str(out)]
    assert main(argv) == 0
    assert calls == [5, 21]  # the original system once, then the lift once
    monkeypatch.setattr(numeric, "RK4_KERNEL", kernel)

    s = parse_system(FIVE_STATE)
    xs = [float(v) for v in x0.split(",")]
    traj = simulate(s.rhs, xs, 2.0, 1e-3)
    csv = io.StringIO()
    write_trajectory_csv(traj, s.vars.names, csv)
    assert out.read_text() == csv.getvalue()
    error = verify_numeric(s, load_lift(str(lift_path)), xs, 2.0, 1e-3)
    assert capsys.readouterr().out == (
        f"max projection error on [0, 2]: {error:.3e}\n"
        f"trajectory written to {out} (2001 samples)\n"
    )


@pytest.mark.parametrize(
    "text, x0",
    [(FIVE_STATE, "0.1,0.2,0.3,0.4,0.5"), (cascade_text(5, 2), "0.7,-0.6,0.5,-0.8,0.9")],
    ids=["fivestate", "cascade(5,2)"],
)
def test_simulate_output_is_the_same_on_either_backend(
    compiled_ext, monkeypatch, tmp_path, capsys, text, x0
):
    system = tmp_path / "system.sys"
    system.write_text(text)
    lift_path = tmp_path / "lift.json"
    assert main(["lift", str(system), "-o", str(lift_path)]) == 0
    capsys.readouterr()
    argv = ["simulate", str(system), "--lift", str(lift_path), "--x0", x0, "--t", "1"]

    monkeypatch.setattr(numeric, "FORMAT_ROWS", compiled_ext.format_rows)
    assert main(argv) == 0
    compiled = capsys.readouterr().out

    env = dict(os.environ, SLIN_PURE_PYTHON="1", SLIN_COLOR="0")
    src = str(Path(slin.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    pure = subprocess.run(
        [sys.executable, "-m", "slin.cli", *argv],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert compiled == pure
    assert compiled.count("\n") == 1 + 1 + 1001  # error line, header, samples


@pytest.mark.parametrize(
    "argv, lines_read",
    [
        # 20001 rows, far more than a pipe holds: a write of the CSV meets
        # the closed pipe after the reader took one line.
        (["simulate", "--x0", "1,1", "--t", "2", "--step", "1e-4"], 1),
        # A few lines, still buffered when the reader has gone: the flush
        # meets the closed pipe.
        (["lift"], 0),
    ],
    ids=["simulate", "lift"],
)
def test_a_reader_that_closes_early_ends_the_command_quietly(files, argv, lines_read):
    env = dict(os.environ, SLIN_COLOR="0")
    env.pop("PYTHONUNBUFFERED", None)  # a pipe's stdout is block-buffered
    src = str(Path(slin.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "slin.cli", argv[0], files["two_state"], *argv[1:]],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    for _ in range(lines_read):
        assert proc.stdout.readline() == b"t,x,y\n"
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert stderr == b""


def test_importing_slin_loads_only_its_own_and_standard_library_modules():
    # slin has no runtime dependency, and import time is most of a short
    # command's run: a third-party import would cost both.
    code = (
        "import sys; before = set(sys.modules); import slin, slin.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    src = str(Path(slin.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    added = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "slin.cli" in added
    roots = {name.partition(".")[0] for name in added}
    assert roots - {"slin"} <= set(sys.stdlib_module_names)


def test_simulate_zero_horizon_single_row(files, tmp_path):
    out = tmp_path / "traj.csv"
    assert (
        main(["simulate", files["two_state"], "--x0", "1,1", "--t", "0", "-o", str(out)])
        == 0
    )
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 2
    assert lines[1].startswith("0.0,1.0,1.0")


def test_simulate_blowup_exits_3(files, capsys):
    assert main(["simulate", files["blowup"], "--x0", "1", "--t", "2"]) == 3
    assert "non-finite" in capsys.readouterr().err


def test_simulate_x0_validation(files, capsys):
    assert main(["simulate", files["two_state"], "--x0", "1"]) == 1
    assert main(["simulate", files["two_state"], "--x0", "a,b"]) == 1


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--step", "0"),
        ("--step", "nan"),
        ("--t", "nan"),
        ("--x0", "nan,1"),
        ("--t", "inf"),
        ("--step", "1e-320"),
        ("--step", "inf"),
        ("--step", "0.6"),  # 2 / 0.6 is not a whole number of steps
    ],
)
def test_simulate_bad_number_exits_1(files, capsys, flag, value):
    args = {"--x0": "1,1", "--t": "2", "--step": "1e-3"} | {flag: value}
    argv = ["simulate", files["two_state"]] + [w for kv in args.items() for w in kv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""


def test_simulate_stdout_when_no_output(files, capsys):
    assert main(["simulate", files["two_state"], "--x0", "1,1", "--t", "0"]) == 0
    assert capsys.readouterr().out.startswith("t,x,y")


# --- xumama -------------------------------------------------------------------


def test_xumama_two_state(files, capsys):
    assert main(["xumama", files["two_state"], "--max-n", "5"]) == 0
    assert capsys.readouterr().out.strip() == "N=2, alpha=[-2, -3]"


def test_xumama_oscillator(files, capsys):
    assert main(["xumama", files["oscillator"]]) == 0
    assert capsys.readouterr().out.strip() == "N=2, alpha=[-1, 0]"


def test_xumama_not_found(files, capsys):
    assert main(["xumama", files["blowup"], "--max-n", "10"]) == 2
    assert capsys.readouterr().out.strip() == "NOT FOUND up to N=10"


def test_xumama_bad_bound(files, capsys):
    assert main(["xumama", files["two_state"], "--max-n", "0"]) == 1


# --- color handling -------------------------------------------------------------


def test_color_can_be_forced_on(files, capsys, monkeypatch):
    monkeypatch.setenv("SLIN_COLOR", "1")
    main(["check", files["five_state"]])
    assert "\x1b[32m" in capsys.readouterr().out


def test_color_disabled_by_default_env(files, capsys):
    main(["check", files["five_state"]])
    assert "\x1b[" not in capsys.readouterr().out

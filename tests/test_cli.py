"""Command-line interface: artifacts, exit codes, overrides."""

import json
import os
import signal
import struct
import subprocess
import sys
import time

import numpy as np
import pytest

from poistop import (FiniteHorizonSolver, ValueSurface, load_preset,
                     preset_names, sim, valueiter)
from poistop.cli import main
from poistop.model import model_hash, model_to_dict, save_model
from test_valueiter import (assert_no_child, deadline,  # noqa: F401
                            in_writer_child, reference_surface_csv)


def run(args):
    return main(list(args))


@pytest.fixture()
def out(tmp_path):
    return tmp_path / "run"


# -- examples ---------------------------------------------------------------

def test_examples_lists_presets(capsys):
    assert run(["examples"]) == 0
    text = capsys.readouterr().out
    for name in ("insurance", "regime", "reliability", "reliability2",
                 "techadopt", "targeting"):
        assert name in text


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "poistop.cli", "examples"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "regime" in proc.stdout


def test_cli_import_leaves_scipy_stats_out():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, poistop.cli; "
         "print('scipy.stats' in sys.modules)"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "False"


FOOTPRINT = """
import sys, numpy, scipy.sparse
base = set(sys.modules)
import poistop.cli
from poistop.presets import load_preset
def added():
    return sorted(m for m in set(sys.modules) - base
                  if m.startswith(("scipy.linalg", "scipy.special")))
load_preset("reliability")
load_preset("regime")
print(added())
load_preset("insurance")
print("scipy.special" in sys.modules)
"""


def test_import_footprint_beyond_numpy_and_scipy_sparse():
    # the library needs only numpy and scipy.sparse; scipy.special is
    # loaded by the gamma marks alone.  Modules are counted from what numpy
    # and scipy.sparse load themselves, which depends on the scipy version
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["[]", "True"]


# -- solve ------------------------------------------------------------------

def test_solve_regime_artifacts(out):
    assert run(["solve", "--example", "regime", "--R", "40", "--L", "60",
                "--out", str(out)]) == 0
    # these and nothing else: no temporary file of the CSV writer is left
    assert sorted(os.listdir(out)) == [
        "boundary.csv", "manifest.json", "regions.csv", "report.json",
        "surface.bin", "surface.csv"]
    report = json.loads((out / "report.json").read_text())
    assert report["converged"]
    assert report["objective_sense"] == "min"
    # the minimized Bayes risk is reported back on the original scale
    assert 0.5 < report["value_at_initial"] < 0.8
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "solve"
    assert manifest["model"]["n"] == 2
    assert manifest["grid_R"] == 40
    assert manifest["model_hash"] == model_hash(load_preset("regime")[0])
    assert set(manifest["versions"]) == {"poistop", "numpy", "scipy",
                                         "python"}


def test_solve_no_boundary_csv_for_three_states(out):
    assert run(["solve", "--example", "reliability", "--R", "12", "--L",
                "20", "--tol", "1e-3", "--out", str(out)]) == 0
    assert not (out / "boundary.csv").exists()
    assert (out / "surface.bin").exists()


def test_solve_model_file(tmp_path, out):
    model, _ = load_preset("regime")
    mfile = tmp_path / "custom.json"
    save_model(model, mfile)
    assert run(["solve", "--model", str(mfile), "--R", "20", "--L", "30",
                "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["example"] is None
    assert manifest["model_file"] == str(mfile)


def test_solve_overrides_applied(out):
    assert run(["solve", "--example", "regime", "--R", "20", "--L", "30",
                "--override", "horizon=1.0", "--override", "c=-2",
                "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["model"]["horizon"] == 1.0
    assert manifest["model"]["c"] == [-2.0, -2.0]


def test_report_floats_full_precision(out):
    run(["solve", "--example", "regime", "--R", "20", "--L", "30",
         "--out", str(out)])
    report = json.loads((out / "report.json").read_text())
    text = (out / "report.json").read_text()
    # round-trip: the printed value parses back to the same double
    v = report["value_at_initial"]
    assert f"{v:.17g}" in text


# -- configuration errors (exit code 1) -------------------------------------

def test_both_example_and_model_rejected(tmp_path):
    assert run(["solve", "--example", "regime", "--model",
                str(tmp_path / "x.json")]) == 1


def test_missing_source_rejected():
    assert run(["solve"]) == 1


def test_unknown_example_rejected():
    assert run(["solve", "--example", "nope"]) == 1


def test_missing_model_file_rejected(tmp_path):
    assert run(["solve", "--model", str(tmp_path / "absent.json")]) == 1


def test_invalid_model_file_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 2, "Q": [[0.0, 0.5], [0.0, 0.0]],
                               "lambda": [1.0, 2.0], "mu": [[1.0, 0.0]]}))
    assert run(["solve", "--model", str(bad)]) == 1


def _regime_file(path, **fields):
    d = model_to_dict(load_preset("regime")[0])
    d.update(fields)
    path.write_text(json.dumps(d))
    return path


@pytest.mark.parametrize("case", ["list", "null n", "marks string",
                                  "directory"])
def test_malformed_model_file_is_config_error(tmp_path, out, capsys, case):
    # each of these used to end in a traceback (TypeError, AttributeError,
    # IsADirectoryError)
    mfile = tmp_path / "bad.json"
    if case == "list":
        mfile.write_text("[1, 2]")
    elif case == "null n":
        mfile.write_text('{"n": null}')
    elif case == "marks string":
        _regime_file(mfile, marks="none")
    else:
        mfile.mkdir()
    assert run(["solve", "--model", str(mfile), "--R", "4", "--L", "4",
                "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("example, law, field", [
    ("insurance", {"shape": [[3.0, 4.0, 5.0]]}, "marks.shape"),
    ("insurance", {"rate": [2.0, 2.0]}, "marks.rate"),
    ("insurance", {"n_quad": 0}, "marks.n_quad"),
    ("techadopt", {"pmf": [[0.2, 0.8]] * 2}, "marks.pmf"),
    ("techadopt", {"support": [[1.0, 2.0]]}, "marks.support"),
    ("insurance", {"n_quad": 1001}, "marks.n_quad"),
])
def test_malformed_mark_law_names_its_field(tmp_path, out, capsys, example,
                                            law, field):
    # the gamma cases were refused with numpy's message and no field name
    # ("operands could not be broadcast together", "deg must be a positive
    # integer"), the pmf with the model's mark-table message, and the
    # nested support not at all
    d = model_to_dict(load_preset(example)[0])
    d["marks"].update(law)
    mfile = tmp_path / "bad.json"
    mfile.write_text(json.dumps(d))
    assert run(["solve", "--model", str(mfile), "--R", "4", "--L", "4",
                "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert f"invalid model: {field}: expected " in err
    assert not out.exists()


def test_bad_override_rejected(out):
    assert run(["solve", "--example", "regime", "--override", "weird=1",
                "--out", str(out)]) == 1
    assert run(["solve", "--example", "regime", "--override", "no-equals",
                "--out", str(out)]) == 1
    assert run(["solve", "--example", "regime", "--override", "rho=abc",
                "--out", str(out)]) == 1


def test_invalid_override_value_is_config_error(out, capsys):
    # a negative rate passes the override parser; model validation must
    # still reject it before the solve starts
    assert run(["solve", "--example", "regime", "--override",
                "lambda=-1,5", "--R", "10", "--L", "10",
                "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "lambda" in err
    assert "Traceback" not in err
    assert not (out / "surface.bin").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("override, key", [
    ("rho=nan", "rho"), ("rho=inf", "rho"), ("horizon=nan", "horizon"),
    ("T=inf", "horizon"), ("c=nan,0", "c"), ("lambda=1,nan", "lambda"),
])
def test_non_finite_override_is_config_error(out, capsys, override, key):
    # these used to reach the solver and exit 2 ("did not settle",
    # "non-finite point"), some with numpy RuntimeWarnings
    assert run(["solve", "--example", "regime", "--override", override,
                "--R", "10", "--L", "10", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{key}: every value must be " \
        "finite" in err
    assert "Warning" not in err and not out.exists()


@pytest.mark.parametrize("override, key", [
    ("rho=1,2", "rho"), ("horizon=0.5,9", "horizon"), ("T=1,2,3", "T"),
])
def test_scalar_override_takes_one_value(out, capsys, override, key):
    # the extra values used to be dropped silently
    assert run(["solve", "--example", "regime", "--override", override,
                "--R", "10", "--L", "10", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: override {key}: expected 1 value")
    assert not out.exists()


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0


def test_unknown_command_exits_one():
    assert run(["frobnicate"]) == 1


@pytest.mark.parametrize("command", ["solve", "diagnose", "simulate"])
def test_unwritable_out_exits_one(tmp_path, capsys, command):
    # --out below a regular file cannot be made; this used to end in a
    # NotADirectoryError traceback
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "x"
    assert run([command, "--example", "regime", "--R", "4", "--L", "4",
                "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err
    assert "Traceback" not in err and len(err.splitlines()) == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs /dev/full, whose writes fail with ENOSPC")
def test_artifact_write_error_names_the_output_directory(out, capsys):
    # the OSError of a failed write carries no file name: the error line
    # names the output directory instead
    out.mkdir()
    (out / "regions.csv").symlink_to("/dev/full")
    assert run(["solve", "--example", "regime", "--R", "4", "--L", "4",
                "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out}: ") and "Traceback" not in err
    assert_nothing_left(out)


def assert_nothing_left(out):
    # a failed solve leaves no surface.csv, no .part file and no child
    assert not (out / "surface.csv").exists()
    assert not [p for p in os.listdir(out) if p.endswith(".part")]
    assert not (out / "report.json").exists()
    assert_no_child()


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs /dev/full, whose writes fail with ENOSPC")
def test_artifact_write_error_while_the_writer_runs_leaves_nothing(
        out, capsys, monkeypatch, deadline):
    # regions.csv fails while the surface.csv writer still sleeps: the
    # writer is killed and its .part file removed
    in_writer_child(monkeypatch, lambda: time.sleep(0.5))
    out.mkdir()
    (out / "regions.csv").symlink_to("/dev/full")
    assert run(["solve", "--example", "reliability", "--R", "8", "--L", "20",
                "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out}: ") and "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert_nothing_left(out)


@pytest.mark.parametrize("name", preset_names())
def test_streamed_surface_csv_equals_in_memory_writer(out, deadline, name):
    # the file the writer child streamed during the march, against to_csv
    # of the finished surface and the per-row reference
    model, _ = load_preset(name)
    assert run(["solve", "--example", name, "--R", "5", "--L", "24",
                "--out", str(out)]) == 0
    surf = ValueSurface.load(out / "surface.bin", model)
    surf.to_csv(out / "in_memory.csv")
    reference_surface_csv(surf, out / "reference.csv")
    text = (out / "surface.csv").read_bytes()
    assert text == (out / "in_memory.csv").read_bytes()
    assert text == (out / "reference.csv").read_bytes()
    assert not [p for p in os.listdir(out) if p.endswith(".part")]
    assert_no_child()


@pytest.mark.skipif(sys.platform != "linux",
                    reason="off Linux the CSV is written inline")
def test_writer_child_error_exits_one(out, capsys, monkeypatch):
    # the forked writer of surface.csv fails; its OSError reaches main
    def no_space():
        raise OSError(28, "No space left on device", "surface.csv.part")

    in_writer_child(monkeypatch, no_space)
    assert run(["solve", "--example", "regime", "--R", "10", "--L", "20",
                "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "surface.csv.part" in err
    assert not (out / "report.json").exists()
    assert not [p for p in os.listdir(out) if p.endswith(".part")]
    assert_no_child()


@pytest.mark.skipif(sys.platform != "linux",
                    reason="off Linux the CSV is written inline")
def test_writer_child_without_result_exits_one(out, capsys, monkeypatch):
    # a writer that ends without a result is an output failure, not a
    # numeric one
    in_writer_child(monkeypatch, lambda: os._exit(9))
    assert run(["solve", "--example", "regime", "--R", "10", "--L", "20",
                "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out}: ") and "exit status 9" in err
    assert "Traceback" not in err and not (out / "report.json").exists()
    assert not [p for p in os.listdir(out) if p.endswith(".part")]
    assert_no_child()


# -- numeric failures (exit code 2) -----------------------------------------

def test_grid_cap_exit_code(out):
    assert run(["solve", "--example", "targeting", "--R", "5000",
                "--out", str(out)]) == 2


@pytest.mark.skipif(sys.platform != "linux",
                    reason="off Linux the certificate runs inline")
def test_certificate_child_without_result_exit_code(out, capsys,
                                                    monkeypatch):
    # value iteration runs only in the certificate's forked child
    monkeypatch.setattr(FiniteHorizonSolver, "iterate",
                        lambda self: os._exit(3))
    assert run(["solve", "--example", "regime", "--R", "10", "--L", "20",
                "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ") and "exit status 3" in err
    assert "Traceback" not in err and not (out / "report.json").exists()
    assert_no_child()


@pytest.mark.skipif(sys.platform != "linux",
                    reason="off Linux the Monte Carlo runs in one process")
def test_evaluation_child_without_result_exit_code(out, capsys,
                                                   monkeypatch):
    # the second half of the paths runs only in evaluate's forked child
    assert run(["solve", "--example", "regime", "--R", "10", "--L", "20",
                "--out", str(out)]) == 0
    parent, simulate = os.getpid(), sim.simulate_paths

    def simulate_here_only(*args):
        if os.getpid() != parent:
            os._exit(5)
        return simulate(*args)

    monkeypatch.setattr(sim, "simulate_paths", simulate_here_only)
    assert run(["evaluate", "--example", "regime", "--paths", "50",
                "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ") and "exit status 5" in err
    assert "Traceback" not in err
    assert not (out / "evaluation.json").exists()
    assert_no_child()


def test_diverging_time_grid_exit_code(out, capsys):
    # one knot on insurance: dt lam_bar / 2 = 2, so the self-term of the
    # march cannot settle; this used to exit 0 with a value of 1e58
    assert run(["solve", "--example", "insurance", "--R", "10", "--L", "1",
                "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ")
    assert "dt * lam_bar / 2 = 2" in err and "L = 3" in err
    assert_nothing_left(out)
    assert run(["solve", "--example", "insurance", "--R", "10", "--L", "3",
                "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] and report["certificate_converged"]
    assert report["march_gap"] <= 10.0 * 1e-4
    assert report["picard_max"] > 1


def test_march_failing_after_the_writer_started_leaves_nothing(
        out, capsys, monkeypatch, deadline):
    # a NumericalError in the main march once the writer has put rows on
    # disk: the writer is killed and its .part file removed
    parent, picard = os.getpid(), FiniteHorizonSolver._picard
    calls = []

    def picard_fails_late(self, *args):
        if os.getpid() == parent:
            calls.append(1)
            if len(calls) == 30:
                part = out / "surface.csv.part"
                t0 = time.monotonic()
                while not (part.exists() and part.stat().st_size) \
                        and time.monotonic() - t0 < 30:
                    time.sleep(0.01)
                assert part.stat().st_size > 0
                raise valueiter.NumericalError("injected mid-march")
        return picard(self, *args)

    monkeypatch.setattr(FiniteHorizonSolver, "_picard", picard_fails_late)
    assert run(["solve", "--example", "reliability", "--R", "20", "--L", "40",
                "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "numeric failure: injected mid-march\n"
    assert len(calls) == 30
    assert_nothing_left(out)


def pids_running(text):
    """Processes whose command line holds text (a zombie's is empty)."""
    found = []
    for d in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{d}/cmdline", "rb") as fh:
                if text.encode() in fh.read():
                    found.append(int(d))
        except OSError:                 # ended while being read
            pass
    return found


def wait_for(cond, timeout=20.0):
    t0 = time.monotonic()
    while not cond() and time.monotonic() - t0 < timeout:
        time.sleep(0.02)
    return cond()


@pytest.mark.skipif(sys.platform != "linux",
                    reason="off Linux the CSV is written inline")
def test_solve_killed_from_outside_leaves_no_writer(tmp_path, deadline):
    # the solving process is SIGKILLed mid-march (only the main march, the
    # one given v, stalls), after the certificate child has ended: the
    # writer child, which dropped its own copy of the pipe's write end,
    # sees the end of the pipe and exits
    out = tmp_path / "killed-solve"
    code = (
        "import sys, time\n"
        "from poistop import cli, valueiter\n"
        "march = valueiter.FiniteHorizonSolver.march\n"
        "def stalled(self, v=None, final=lambda e: None):\n"
        "    def late(e):\n"
        "        final(e)\n"
        "        time.sleep(120)\n"
        "    return march(self, v, final if v is None else late)\n"
        "valueiter.FiniteHorizonSolver.march = stalled\n"
        "cli.main(sys.argv[1:])\n")
    proc = subprocess.Popen(
        [sys.executable, "-c", code, "solve", "--example", "reliability",
         "--R", "8", "--L", "20", "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    try:
        # the parent and the writer, the certificate child gone
        assert wait_for(lambda: (out / "surface.csv.part").exists()
                        and len(pids_running(str(out))) == 2)
        proc.kill()
        proc.wait()
        assert wait_for(lambda: not pids_running(str(out)))
    finally:
        proc.kill()
        proc.wait()
        for pid in pids_running(str(out)):
            os.kill(pid, signal.SIGKILL)


# -- diagnose ---------------------------------------------------------------

def test_json_artifacts_escape_control_characters(tmp_path, out):
    # tab, newline, quote and backslash in state names: manifest.json and
    # diagnostics.json used to carry the first two raw, which json rejects
    names = ["low\tstate \"a\"", "high\nstate \\b"]
    mfile = _regime_file(tmp_path / "names.json", states=names)
    assert run(["solve", "--model", str(mfile), "--R", "4", "--L", "4",
                "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["model"]["states"] == names
    assert run(["diagnose", "--model", str(mfile), "--R", "4", "--L", "4",
                "--out", str(out)]) == 0
    d = json.loads((out / "diagnostics.json").read_text())
    assert list(d["corners"]) == names
    # diagnose writes a manifest of its own
    assert json.loads((out / "manifest.json").read_text())["model"][
        "states"] == names


def test_diagnose_reliability(out, capsys):
    assert run(["diagnose", "--example", "reliability", "--R", "30",
                "--L", "40", "--out", str(out)]) == 0
    d = json.loads((out / "diagnostics.json").read_text())
    assert d["ila_coefficients"] == [3.5, 1.5, -1.0]
    assert d["ila_match_score"] > 0.9
    assert "good" in d["corners"]
    # the report is also echoed to stdout
    assert "ila_match_score" in capsys.readouterr().out


def test_diagnose_regime_two_hypothesis(out):
    assert run(["diagnose", "--example", "regime", "--out", str(out)]) == 0
    d = json.loads((out / "diagnostics.json").read_text())
    assert d["two_hypothesis"]["flat_level"] == 0.25
    assert d["two_hypothesis"]["t0_boundary"] == 0.5
    assert d["two_hypothesis"]["trivial"] is False


def test_diagnose_witness_point(out):
    assert run(["diagnose", "--example", "reliability2", "--R", "30",
                "--L", "40", "--out", str(out)]) == 0
    d = json.loads((out / "diagnostics.json").read_text())
    # at the witness point the look-ahead boundary is crossed from inside:
    # the rule's level drifts upward, so it is not a one-way barrier
    assert d["ila_witness"]["ddt_at_zero"] > 0.0


# -- simulate / evaluate ----------------------------------------------------

def test_simulate_writes_paths(out):
    assert run(["simulate", "--example", "regime", "--paths", "2",
                "--seed", "11", "--out", str(out)]) == 0
    for i in range(2):
        assert (out / f"path{i}_arrivals.csv").exists()
        assert (out / f"path{i}_hidden.csv").exists()
    again = out.parent / "again"
    assert run(["simulate", "--example", "regime", "--paths", "2",
                "--seed", "11", "--out", str(again)]) == 0
    assert (out / "path0_arrivals.csv").read_text() == \
        (again / "path0_arrivals.csv").read_text()


def test_simulate_accepts_the_largest_seed(out):
    assert run(["simulate", "--example", "insurance", "--paths", "1",
                "--seed", str(2 ** 64 - 1), "--out", str(out)]) == 0
    assert (out / "path0_hidden.csv").exists()


@pytest.mark.parametrize("command, option, value", [
    ("evaluate", "--paths", "0"),
    ("evaluate", "--paths", "-5"),
    ("evaluate", "--seed", "99999999999999999999999"),
    ("evaluate", "--seed", "-1"),
    ("evaluate", "--seed", str(2 ** 64)),
    ("simulate", "--paths", "0"),
    ("simulate", "--seed", "-1"),
])
def test_paths_and_seed_out_of_range_exit_one(out, capsys, command, option,
                                              value):
    if command == "evaluate":
        assert run(["solve", "--example", "regime", "--R", "10", "--L", "10",
                    "--out", str(out)]) == 0
    capsys.readouterr()
    assert run([command, "--example", "regime", option, value,
                "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"argument {option}" in err and "Traceback" not in err
    assert not (out / "evaluation.json").exists()
    assert not (out / "path0_hidden.csv").exists()


@pytest.mark.parametrize("option, value", [
    ("--R", "0"),                         # no grid, not the preset's R
    ("--L", "0"),                         # no time step, not one knot
    ("--tol", "-1"),                      # a range error, not a numeric one
    ("--eps", "nan"),                     # no region tolerance
])
def test_solve_options_out_of_range_exit_one(out, capsys, option, value):
    assert run(["solve", "--example", "regime", option, value,
                "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"argument {option}" in err and "Traceback" not in err
    assert not out.exists()


def test_evaluate_requires_solve_first(out):
    assert run(["evaluate", "--example", "regime", "--out", str(out)]) == 1


def test_evaluate_after_solve(out):
    assert run(["solve", "--example", "regime", "--R", "40", "--L", "60",
                "--out", str(out)]) == 0
    assert run(["evaluate", "--example", "regime", "--paths", "300",
                "--eps", "0.01", "--seed", "3", "--out", str(out)]) == 0
    ev = json.loads((out / "evaluation.json").read_text())
    assert ev["n_paths"] == 300
    assert ev["objective_sense"] == "min"
    # reported on the original (risk) scale: positive, near the solved value
    assert 0.4 < ev["mean"] < 1.0
    assert ev["rng_algorithm"] == "philox4x64"
    assert (out / "manifest_evaluate.json").exists()


@pytest.mark.parametrize("cut", ["header", "values", "metadata"])
def test_evaluate_truncated_surface_is_config_error(out, capsys, cut):
    assert run(["solve", "--example", "regime", "--R", "20", "--L", "20",
                "--out", str(out)]) == 0
    path = out / "surface.bin"
    blob = path.read_bytes()
    at = {"header": 20, "values": 8 + 32 + 8 * 21 + 100,
          "metadata": len(blob) - 3}[cut]
    path.write_bytes(blob[:at])
    capsys.readouterr()
    assert run(["evaluate", "--example", "regime", "--paths", "10",
                "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "surface.bin: truncated" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("R", [15, 5])
def test_evaluate_surface_with_a_wrong_grid_size_is_config_error(out, capsys,
                                                                 R):
    # R rewritten in the header of a regime surface solved at R = 10: at
    # 15 the lattice outgrows the stored values (an IndexError), at 5 it
    # reads another lattice from them (a wrong mean and exit code 0)
    assert run(["solve", "--example", "regime", "--R", "10", "--L", "10",
                "--out", str(out)]) == 0
    with open(out / "surface.bin", "r+b") as fh:
        fh.seek(16)
        fh.write(struct.pack("<q", R))
    capsys.readouterr()
    assert run(["evaluate", "--example", "regime", "--paths", "50",
                "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert f"surface.bin: corrupt value-surface header (n = 2, R = {R}" in err
    assert not (out / "evaluation.json").exists()


def test_evaluate_surface_with_non_finite_values_is_config_error(out,
                                                                 capsys):
    # every value of a regime surface overwritten with NaN, the model hash
    # intact: evaluate wrote mean=2.09 with every path at the horizon
    assert run(["solve", "--example", "regime", "--R", "10", "--L", "10",
                "--out", str(out)]) == 0
    surf = ValueSurface.load(out / "surface.bin", load_preset("regime")[0])
    with open(out / "surface.bin", "r+b") as fh:
        fh.seek(8 + 32 + 8 * len(surf.knots))
        fh.write(np.full(surf.values.size, np.nan).astype("<f8").tobytes())
    capsys.readouterr()
    assert run(["evaluate", "--example", "regime", "--paths", "50",
                "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert "surface.bin: corrupt value-surface file" in err
    assert not (out / "evaluation.json").exists()


def test_evaluate_refuses_surface_of_other_model(out, capsys):
    assert run(["solve", "--example", "regime", "--R", "20", "--L", "20",
                "--override", "horizon=0.5", "--out", str(out)]) == 0
    capsys.readouterr()
    assert run(["evaluate", "--example", "regime", "--paths", "10",
                "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "another model" in err
    assert "Traceback" not in err
    assert not (out / "evaluation.json").exists()
    # the same overrides reproduce the model, so the surface loads
    assert run(["evaluate", "--example", "regime", "--paths", "10",
                "--override", "horizon=0.5", "--out", str(out)]) == 0

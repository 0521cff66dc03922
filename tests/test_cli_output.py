"""The CLI writes the same bytes to stdout and to ``--out``, and runs
without the test-only dependency scipy."""

import math
import os
import pathlib
import subprocess
import sys

import pytest

import gwreduced
from gwreduced.cli import cli_main

COMMANDS = {
    "exact": ["exact", "--law", "poisson", "--n", "12", "--m", "6"],
    "exact_bound": [
        "exact", "--law", "ternary_uniform", "--n", "12", "--m", "6", "--bound", "4",
    ],
    "simulate": [
        "simulate", "--law", "ternary_uniform", "--n", "8", "--bound", "3",
        "--m", "2,5", "--replicates", "40", "--seed", "3",
    ],
    "limits_small_phi": ["limits", "--regime", "small_phi", "--x", "1.0"],
    "limits_band": ["limits", "--regime", "linear_band", "--t", "0.5", "--a", "1.0"],
    "limits_small_phi_defaults": ["limits", "--regime", "small_phi"],
    "limits_band_defaults": ["limits", "--regime", "linear_band"],
}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_matches_out_file(name, fmt, tmp_path, capsys):
    argv = COMMANDS[name] + ["--format", fmt]
    assert cli_main(argv) == 0
    printed = capsys.readouterr().out.encode()
    path = tmp_path / f"{name}.{fmt}"
    assert cli_main(argv + ["--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    written = path.read_bytes()
    assert printed == written
    assert b"\r" not in written
    assert written.endswith(b"\n") and not written.endswith(b"\n\n")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_compare_writes_report_only_to_out(fmt, tmp_path, capsys):
    argv = ["compare", "--regime", "small_phi", "--law", "linear_fractional",
            "--n", "100", "--x", "1.0", "--format", fmt]
    cli_main(argv)
    bare = capsys.readouterr().out
    path = tmp_path / f"report.{fmt}"
    cli_main(argv + ["--out", str(path)])
    assert capsys.readouterr().out == bare
    assert bare.startswith("experiment ")
    written = path.read_bytes()
    assert b"\r" not in written
    assert written.startswith(b"{" if fmt == "json" else b"n,m,C,epsilon")


@pytest.mark.parametrize(
    "regime, flags",
    [("small_phi", ["--x", "1.0"]), ("linear_band", ["--t", "0.5", "--a", "1.0"])],
)
def test_limits_parameters_default_to_x1_t05_a1(regime, flags, capsys):
    assert cli_main(["limits", "--regime", regime]) == 0
    bare = capsys.readouterr().out
    assert cli_main(["limits", "--regime", regime] + flags) == 0
    assert capsys.readouterr().out == bare


def test_selftest_runs_without_scipy(tmp_path):
    # scipy is in the test extra only: a None entry in sys.modules makes
    # every import of it fail, so a stray import under src/ shows here
    src = str(pathlib.Path(gwreduced.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import gwreduced\n"
        "from gwreduced.cli import cli_main\n"
        "sys.exit(cli_main(['selftest']))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert "all selftest checks passed" in result.stdout


def test_narrow_window_limit_prints_every_row_of_unit_mass(capsys):
    # x = 1e-5: the law's Poisson tails have mean 1e5, where e^-u underflows
    assert cli_main(["limits", "--x", "1e-5", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "j,p"
    assert len(lines) == 1 + 102_129
    mass = math.fsum(float(line.split(",")[1]) for line in lines[1:])
    assert mass == pytest.approx(1.0, abs=1e-12)

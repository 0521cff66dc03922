"""Every demo script runs to completion."""

import os
import pathlib
import subprocess
import sys

import pytest

import gwreduced

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"
SLOW = {"02_population_series.py", "05_mrca_distance.py"}


@pytest.mark.parametrize("name", [
    pytest.param(path.name, marks=pytest.mark.slow) if path.name in SLOW
    else path.name
    for path in sorted(DEMOS.glob("*.py"))
])
def test_demo_runs(name, tmp_path):
    src = str(pathlib.Path(gwreduced.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(DEMOS / name)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr

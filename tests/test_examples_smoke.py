"""Smoke tests: the example scripts must stay runnable end to end."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

#: the examples this suite runs; CI's examples job runs every script,
#: the omitted ones (md_simulation, ocean_model, placement_study,
#: custom_machine) included
FAST_EXAMPLES = ["quickstart.py", "mpi_comparison.py",
                 "bottleneck_analysis.py", "hybrid_programming.py",
                 "characterize_your_app.py"]


@pytest.mark.parametrize("script", FAST_EXAMPLES)
def test_example_runs(script):
    # -W error::DeprecationWarning: examples must run warning-free, as
    # CI's examples job runs them
    result = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning",
         str(EXAMPLES / script)],
        capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip()


def test_quickstart_reports_improvement():
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / "quickstart.py")],
        capture_output=True, text=True, timeout=600,
    )
    assert "numactl --cpunodebind" in result.stdout
    assert "improvement" in result.stdout


def test_all_examples_exist():
    names = {p.name for p in EXAMPLES.glob("*.py")}
    assert {"quickstart.py", "placement_study.py", "md_simulation.py",
            "ocean_model.py", "mpi_comparison.py", "hybrid_programming.py",
            "bottleneck_analysis.py", "custom_machine.py",
            "characterize_your_app.py"} <= names

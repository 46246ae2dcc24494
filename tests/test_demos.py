"""The demo scripts run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# the leading output of a demo that is computed without rounding
EXACT_OUTPUT = {
    "normal_form_quartic_oscillator.py": """\
H = I + 1/4 q^4, rational mode
  m = 2:  h_m(I) = 1 * I^1, 3/8 * I^2
  m = 3:  h_m(I) = 1 * I^1, 3/8 * I^2, -17/64 * I^3
  m = 4:  h_m(I) = 1 * I^1, 3/8 * I^2, -17/64 * I^3, 375/1024 * I^4
  expected degree-4 coefficient: (3/2) c = 3/8
""",
}

# a line the output must contain
REQUIRED_LINE = {
    "experiment_pipeline.py": "rerun from the saved spec is byte-identical: True",
}


@pytest.mark.parametrize(
    "script",
    [
        "sdm_genericity_survey.py",
        "diophantine_constants.py",
        "normal_form_quartic_oscillator.py",
        "remainder_scaling_experiment.py",
        "long_time_drift.py",
        "experiment_pipeline.py",
    ],
)
def test_demo_runs(script, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(tmp_path)}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(EXACT_OUTPUT.get(script, ""))
    if script in REQUIRED_LINE:
        assert REQUIRED_LINE[script] in proc.stdout.splitlines()

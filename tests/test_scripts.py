"""Smoke runs of the example scripts: each must finish with exit 0."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).parent.parent / "scripts"


@pytest.mark.parametrize("script", ["conjugator_demo.py", "germ_survey.py"])
def test_script_runs(script):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script)], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr

"""Smoke tests: the bundled scripts run to completion and report success."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "argv",
    [
        ["run_corpus.py"],
        ["equivalence_experiments.py", "--trials", "300", "--engine-trials", "60"],
    ],
    ids=["run_corpus", "equivalence_experiments"],
)
def test_script_exits_0(argv):
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr

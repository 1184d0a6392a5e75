"""Smoke test: every demo script runs to completion against the package
under test."""

import subprocess
import sys
from pathlib import Path

import pytest

from helpers import cli_env

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    res = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=cli_env(),
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr

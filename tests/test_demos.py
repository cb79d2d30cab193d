"""Smoke test of the demo scripts: each runs to completion and prints.

The demos drive the public API end to end (demo 01 joins a channel and
measures Markov slack; demo 02 runs exact C, the brute-force oracle, the
Wyner estimate and the verification reports), so a change that breaks one
of them fails here rather than only when someone runs it by hand.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert len(DEMOS) >= 4


def run_demo(script):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script):
    assert run_demo(script).strip()


def test_demo_01_prints_the_same_bytes_on_every_run():
    """Demo 01 writes its document into a fresh temporary directory and
    prints only the file's name, so two runs print the same bytes."""
    script = ROOT / "demos" / "01_distributions_and_measures.py"
    assert run_demo(script) == run_demo(script)

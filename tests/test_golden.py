"""Byte-for-byte CLI snapshots.

Each pipeline's stdout was recorded once and committed under
``tests/golden/``; a rerun must reproduce it exactly.  Criterion 9 only
checks that two reruns agree with each other; this test pins the seeded
values themselves, so a refactor that moves any of them fails here.
"""

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import graywyner as gw
from graywyner.cli import run

from conftest import example1, example2, example2_w_x0

GOLDEN_DIR = Path(__file__).parent / "golden"

# name -> (exit code, argv); {ex1}, {ex2} and {wx0} are document paths.
PIPELINES = {
    "ex1_info": (0, ["info", "--pmf", "{ex1}"]),
    "ex2_info": (0, ["info", "--pmf", "{ex2}"]),
    "ex1_common_info_gk": (0, ["common-info", "--pmf", "{ex1}", "--method", "gk"]),
    "ex2_common_info_gk": (0, ["common-info", "--pmf", "{ex2}", "--method", "gk"]),
    "ex2_common_info_wyner": (0, [
        "common-info", "--pmf", "{ex2}", "--method", "wyner",
        "--w-cardinality", "3", "--restarts", "2", "--seed", "7"]),
    "ex2_region_sweep": (0, [
        "region", "sweep", "--pmf", "{ex2}", "--r0-grid", "0,0.5,1",
        "--restarts", "2", "--seed", "5", "--format", "csv"]),
    "ex2_region_check": (0, [
        "region", "check", "--pmf", "{ex2}", "--r0", "1", "--rk", "1,1,1",
        "--delta", "6", "--restarts", "2", "--seed", "3"]),
    "ex2_simulate": (0, [
        "simulate", "--pmf", "{ex2}", "--aux", "{wx0}", "--n", "3",
        "--slack", "0.25", "--trials", "2000", "--seed", "7",
        "--exact-equivocation"]),
    "ex2_verify_chain": (0, [
        "verify", "--pmf", "{ex2}", "--props", "1,2,3,4", "--chain",
        "--w-cardinality", "3", "--restarts", "2", "--seed", "7"]),
    "ex1_verify_prop4": (0, [
        "verify", "--pmf", "{ex1}", "--props", "4", "--seed", "7"]),
    "ex1_verify_chain": (0, [
        "verify", "--pmf", "{ex1}", "--props", "1,2,3,4", "--chain",
        "--w-cardinality", "4", "--restarts", "2", "--seed", "11"]),
    "ex1_region_sweep": (0, [
        "region", "sweep", "--pmf", "{ex1}", "--r0-grid", "0,0.5,1",
        "--restarts", "2", "--seed", "5"]),
}


def write_documents(directory) -> dict:
    paths = {
        "ex1": str(Path(directory) / "ex1.pmf.json"),
        "ex2": str(Path(directory) / "ex2.pmf.json"),
        "wx0": str(Path(directory) / "wx0.aux.json"),
    }
    gw.save_pmf(example1(), paths["ex1"])
    gw.save_pmf(example2(), paths["ex2"])
    gw.save_aux_channel(example2_w_x0(), paths["wx0"])
    return paths


def run_pipeline(argv, paths) -> tuple[int, bytes]:
    out, err = io.StringIO(), io.StringIO()
    code = run([arg.format(**paths) for arg in argv], out, err)
    return code, out.getvalue().encode()


@pytest.mark.parametrize("name", sorted(PIPELINES))
def test_cli_stdout_matches_golden(name, tmp_path):
    expected_code, argv = PIPELINES[name]
    code, stdout = run_pipeline(argv, write_documents(tmp_path))
    assert code == expected_code
    assert stdout == (GOLDEN_DIR / f"{name}.stdout").read_bytes()


SWEEP_PROBE = """
import sys
from graywyner.cli import run
code = run(sys.argv[1:])
print(code, "scipy.optimize" in sys.modules)
"""


def test_region_sweep_does_not_load_the_solver(tmp_path):
    # The sweep is a two-corner rule, so a sweep command never imports
    # scipy.optimize, which takes longer to load than the command runs.
    _, argv = PIPELINES["ex2_region_sweep"]
    paths = write_documents(tmp_path)
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", SWEEP_PROBE, *(arg.format(**paths) for arg in argv)],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"

"""The CLI's tables against golden files.

Each case runs one command through `cli.main` and compares its output byte
for byte with its file under tests/golden/. The bits depend on numpy and on
the BLAS it links, so golden/VERSIONS.json records the build the files were
made with; on another build every case fails and names the difference.
The d=128 verify case also depends on the BLAS thread count: the eigensolve
of its 256 x 256 F block differs in the last bits at one thread and at two,
and its file was made at OpenBLAS's default on a 2-core host (two threads).
So that case runs `python -m phasekit.cli` in a subprocess with
OPENBLAS_NUM_THREADS=2, whatever the count of this process, and is skipped on
one core. There is no tolerance: a change that moves one bit of a table fails
here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from phasekit import cli

GOLDEN = Path(__file__).parent / "golden"

_SWEEP = ["--d", "32", "--trials", "4", "--seed", "7"]
CASES = {
    "recover_real_uniform.csv":
        ["recover-bench", "--field", "real", "--ensemble", "uniform", "--ratios", "2,3,4", *_SWEEP],
    "recover_complex_ternary.csv":
        ["recover-bench", "--field", "complex", "--ensemble", "ternary", "--ratios", "8", *_SWEEP],
    "init_real_ternary.csv":
        ["init-bench", "--field", "real", "--ensemble", "ternary", "--ratios", "4,8", *_SWEEP],
    "init_complex_gaussian.csv":
        ["init-bench", "--field", "complex", "--ensemble", "gaussian", "--ratios", "4,8", *_SWEEP],
    "verify_moments_complex_ternary.json":
        ["verify-moments", "--field", "complex", "--ensemble", "ternary", "--d", "4",
         "--samples", "20000"],
    "verify_moments_complex_ternary_blocks.json":  # two 1,250-row blocks per chunk
        ["verify-moments", "--field", "complex", "--ensemble", "ternary", "--d", "128",
         "--samples", "50000"],
    "solve_real_ternary.json":
        ["solve", "--field", "real", "--ensemble", "ternary", "--d", "32", "--ratios", "6"],
}


def build_versions() -> dict:
    """numpy's version and the name, version and configuration of its BLAS."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")}}


# the case whose bits depend on the BLAS thread count; its file was made at two threads
THREADED = "verify_moments_complex_ternary_blocks.json"


def cli_output(name: str, capsys) -> str:
    """The text the command of CASES[name] writes: in this process, or for THREADED in a
    subprocess at two threads, as OpenBLAS reads its thread count when it loads."""
    if name != THREADED:
        assert cli.main(CASES[name]) == 0
        return capsys.readouterr().out
    env = os.environ | {"PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"),
                        "OPENBLAS_NUM_THREADS": "2"}
    done = subprocess.run([sys.executable, "-m", "phasekit.cli", *CASES[name]], env=env,
                          capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode("utf-8")
    return done.stdout.decode("utf-8")


ONE_CORE = pytest.mark.skipif((os.cpu_count() or 1) < 2,
                              reason="OpenBLAS runs one thread on one core")


@pytest.mark.parametrize("name", [pytest.param(name, marks=ONE_CORE) if name == THREADED else name
                                  for name in sorted(CASES)])
def test_cli_output_matches_golden(name, capsys):
    recorded = json.loads((GOLDEN / "VERSIONS.json").read_text(encoding="utf-8"))
    current = build_versions()
    assert current == recorded, (
        f"golden files were made with {recorded}; this build is {current}")
    expected = (GOLDEN / name).read_text(encoding="utf-8")
    assert cli_output(name, capsys) == expected

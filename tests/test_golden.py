"""The CLI's tables against golden files.

Each case runs one command through `cli.main` and compares its output byte
for byte with its file under tests/golden/. The bits depend on numpy and on
the BLAS it links, so golden/VERSIONS.json records the build the files were
made with; on another build every case fails and names the difference.
There is no tolerance: a change that moves one bit of a table fails here.
"""

import json
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
    # wall_time is dropped from the output
    "solve_real_ternary.json":
        ["solve", "--field", "real", "--ensemble", "ternary", "--d", "32", "--ratios", "6"],
}


def build_versions() -> dict:
    """numpy's version and the name, version and configuration of its BLAS."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")}}


def cli_output(name: str, capsys) -> str:
    """The text the command of CASES[name] writes, without a solve's wall_time."""
    assert cli.main(CASES[name]) == 0
    out = capsys.readouterr().out
    if name.startswith("solve"):
        payload = json.loads(out)
        del payload["wall_time"]
        out = json.dumps(payload, indent=2) + "\n"
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys):
    recorded = json.loads((GOLDEN / "VERSIONS.json").read_text(encoding="utf-8"))
    current = build_versions()
    assert current == recorded, (
        f"golden files were made with {recorded}; this build is {current}")
    expected = (GOLDEN / name).read_text(encoding="utf-8")
    assert cli_output(name, capsys) == expected

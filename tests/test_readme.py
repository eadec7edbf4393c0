"""The README's Python examples, run in order in one namespace as a reader would."""

import re
from pathlib import Path

import numpy as np

from phasekit import SolveStatus, dist

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_examples_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert "SolveStatus.GRAD_TOLERANCE_MET" in capsys.readouterr().out
    report, x = namespace["report"], namespace["x"]
    assert report.status is SolveStatus.GRAD_TOLERANCE_MET
    assert dist(report.final_z, x) / np.linalg.norm(x) < 1e-10
    assert namespace["slope"] < 0 and namespace["r2"] > 0.9

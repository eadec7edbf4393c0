"""The README's Python examples, run in order in one namespace as a reader would, and its
pointers: every repo path, `path::name` and `phasekit.` dotted name it mentions exists."""

import ast
import importlib
import re
from pathlib import Path

import numpy as np

from phasekit import SolveStatus, dist

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


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


def _bound(body: list) -> dict:
    """Each name that a statement of `body` binds by def, class or assignment, to its node."""
    bound = {}
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound |= {n.id: node for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return bound


def _defines(path: Path, names: list[str]) -> bool:
    """Whether the Python file at `path` binds names[0] at its top level, and each further
    name in the body of the class before it."""
    node = ast.parse(path.read_text(encoding="utf-8"))
    for name in names:
        node = _bound(getattr(node, "body", [])).get(name)
        if node is None:
            return False
    return True


def _resolves(dotted: str) -> bool:
    """Whether `dotted` names a module of phasekit or an attribute of one."""
    parts = dotted.split(".")
    try:
        obj = importlib.import_module(parts[0])
        for i, part in enumerate(parts[1:], 2):
            obj = getattr(obj, part) if hasattr(obj, part) \
                else importlib.import_module(".".join(parts[:i]))
    except ImportError:
        return False
    return True


def broken_pointers(text: str) -> list[str]:
    """The repo paths (under src/, tests/ or benchmarks/), with any `::name` parts, and the
    phasekit dotted names in `text` that name nothing."""
    broken = []
    for path, names in re.findall(r"\b((?:src|tests|benchmarks)/[\w./-]*\w/?)((?:::\w+)*)",
                                  text):
        target = ROOT / path
        if not target.exists() or names and not _defines(target, names.split("::")[1:]):
            broken.append(path + names)
    return broken + [d for d in re.findall(r"\bphasekit(?:\.[A-Za-z_]\w*)+", text)
                     if not _resolves(d)]


def test_the_scan_finds_a_broken_pointer():
    assert broken_pointers(
        "`tests/test_readme.py::broken_pointers`, `tests/golden/`, src/phasekit/bench.py, "
        "`phasekit.verify._draws`, `phasekit.cli.main`, `phasekit.ExperimentConfig`. "
        "`tests/test_nothing.py`, `tests/test_cli.py::_NO_ROWS`, `phasekit.nothing`, "
        "`phasekit.solver.solve.nothing`, `src/phasekit/nothing/`."
    ) == ["tests/test_nothing.py", "tests/test_cli.py::_NO_ROWS", "src/phasekit/nothing/",
          "phasekit.nothing", "phasekit.solver.solve.nothing"]


def test_every_pointer_of_the_readme_names_something():
    # the README says where each rule lives; a renamed test, table or function must take
    # the README's pointer with it
    text = README.read_text(encoding="utf-8")
    assert re.search(r"tests/\w+\.py::\w+", text) and re.search(r"phasekit\.\w+", text)
    assert broken_pointers(text) == []

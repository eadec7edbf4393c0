"""No module imports a name it never uses.

The package's __init__.py is left out: its imports are the public API.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(path for top in ("src/phasekit", "tests", "benchmarks")
                 for path in (ROOT / top).rglob("*.py")
                 if path != ROOT / "src/phasekit/__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names that `source` binds by an import and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_scan_finds_an_unused_import():
    assert unused_imports("import math\nimport os.path\nfrom a import b as c\nos.sep\n") \
        == ["math (line 1)", "c (line 3)"]
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []

"""No module imports a name it never uses, no private helper of the package
is left unused, no statement of the package is a `del`, the package
makes a Generator and scales an array by a power of two in one function each,
and makes no call of `np.linalg.norm`, neither `bench` nor `cli` imports
a helper of the scale rule, `verify` draws its rows in one function, cuts
its chunks in one loop and measures them through the private kernels,
`spectral` forms GSI's matrices in one function and its start in one recipe,
which both of `bench`'s protocols reach through one trial function, and the
package tests float range in named functions and methods only: `_ldexp` alone
judges a result.

The package's __init__.py is left out of the import scan: its imports are
the public API.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(path for top in ("src/phasekit", "tests", "benchmarks")
                 for path in (ROOT / top).rglob("*.py")
                 if path != ROOT / "src/phasekit/__init__.py")
PACKAGE = sorted((ROOT / "src/phasekit").glob("*.py"))


def imported_names(tree: ast.AST) -> dict[str, int]:
    """The names that `tree` binds by an import, each with its line."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    return imported


def unused_imports(source: str) -> list[str]:
    """The names that `source` binds by an import and never reads."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported_names(tree).items()
            if name not in used]


def test_the_scan_finds_an_unused_import():
    assert unused_imports("import math\nimport os.path\nfrom a import b as c\nos.sep\n") \
        == ["math (line 1)", "c (line 3)"]
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def dead_private_names(sources: list[str]) -> list[str]:
    """The private functions and constants that a module of `sources` defines
    at its top level and that no module of `sources` reads."""
    defined, read = [], set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defined.append(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        read |= {node.id for node in ast.walk(tree)
                 if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return [name for name in defined
            if name.startswith("_") and not name.startswith("__") and name not in read]


def test_the_scan_finds_a_dead_private_helper():
    assert dead_private_names(["def _used(): pass\ndef _dead(): pass\n_A, _B = 1, 2\n"
                               "_C: int = 3\nPUBLIC = 4\n",
                               "from m import _used\n_used(_A)\nm._B\n"]) == ["_dead", "_C"]


def test_every_private_helper_is_used():
    assert dead_private_names([path.read_text(encoding="utf-8") for path in PACKAGE]) == []


def del_statements(source: str) -> list[int]:
    """The lines of the `del` statements in `source`."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Delete)]


def test_the_scan_finds_a_del():
    assert del_statements("a = [1]\ndel a[0]\ndef f(b):\n    del b\n") == [2, 4]
    assert del_statements("deleted = 1\n") == []


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_del_statements(path):
    # scope, not `del`, ends a buffer's life: a `del` that a loop body must
    # remember is the kind of rule that a later edit forgets
    assert del_statements(path.read_text(encoding="utf-8")) == []


# the calls that the package makes in one function only, named as module.function, or nowhere
CONFINED_CALLS = {"np.random.default_rng": "ensembles._rng", "np.linalg.norm": None,
                  "np.ldexp": "ensembles._ldexp"}


def stray_calls(source: str, module: str) -> list[str]:
    """The calls in `source`, the text of `module`, of a name of CONFINED_CALLS
    made outside the function that it is confined to."""
    found = []

    def visit(node, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                name = ast.unparse(child.func)
                if name in CONFINED_CALLS and CONFINED_CALLS[name] != where:
                    found.append(f"{name} (line {child.lineno})")
            visit(child, f"{module}.{child.name}" if isinstance(child, ast.FunctionDef) else where)

    visit(ast.parse(source), module)
    return found


def test_the_scan_finds_a_stray_call():
    source = ("def _rng(v):\n    return np.random.default_rng(v)\n"
              "def f(v):\n    return np.random.default_rng(v), np.linalg.norm(v)\n")
    assert stray_calls(source, "ensembles") == ["np.random.default_rng (line 4)",
                                                "np.linalg.norm (line 4)"]
    assert stray_calls(source, "verify") == ["np.random.default_rng (line 2)",
                                             "np.random.default_rng (line 4)",
                                             "np.linalg.norm (line 4)"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_one_seed_rule_and_one_vector_norm(path):
    # every Generator comes from ensembles._rng, every vector norm from ensembles._norm,
    # and every power-of-two scaling of an array from ensembles._ldexp
    assert stray_calls(path.read_text(encoding="utf-8"), path.stem) == []


# the scale rule's helpers: the kernels apply the rule, so the experiment harness and
# the CLI hand them values at the caller's scale and take results back at it
SCALE_HELPERS = {"_to_unit", "_ldexp"}


@pytest.mark.parametrize("module", ["bench", "cli"])
def test_bench_and_cli_leave_the_scale_rule_to_the_kernels(module):
    source = (ROOT / "src/phasekit" / f"{module}.py").read_text(encoding="utf-8")
    assert sorted(SCALE_HELPERS & imported_names(ast.parse(source)).keys()) == []


def top_level_callers(source: str, name: str) -> list[str]:
    """The top-level functions of `source` with a call of `name` anywhere in their body."""
    return [node.name for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)
            and any(isinstance(n, ast.Call) and ast.unparse(n.func) == name
                    for n in ast.walk(node))]


def test_the_scan_finds_the_callers():
    source = "def f():\n    def g():\n        h(1)\ndef k():\n    m.h()\nh()\n"
    assert top_level_callers(source, "h") == ["f"]


VERIFY = (ROOT / "src/phasekit/verify.py").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", ["sample_measurements", "_rng"])
def test_verify_draws_its_rows_in_one_function(name):
    assert top_level_callers(VERIFY, name) == ["_draws"]


def test_verify_cuts_its_chunks_in_one_loop():
    # the two matrix oracles each called _blocks, and each held a chunk helper of its own
    assert top_level_callers(VERIFY, "_blocks") == ["_chunk_means"]


def test_verify_measures_through_the_private_kernels():
    # concentration_curve re-checked every trial's rows and intensities through measure
    # and rho_from_intensities, at the caller's scale
    assert sorted({"measure", "rho_from_intensities"}
                  & imported_names(ast.parse(VERIFY)).keys()) == []


SPECTRAL = (ROOT / "src/phasekit/spectral.py").read_text(encoding="utf-8")


def test_verify_takes_gsi_matrices_from_spectral():
    # concentration_curve held a hand copy of GSI's Y, rho and M from _Y, _rho and build_M
    assert sorted({"_Y", "_rho", "build_M"} & imported_names(ast.parse(VERIFY)).keys()) == []


def test_gsi_forms_its_matrices_in_one_function():
    assert top_level_callers(SPECTRAL, "build_M") == ["_gsi_matrices"]


BENCH = (ROOT / "src/phasekit/bench.py").read_text(encoding="utf-8")


# gsi held a second copy of _paired_init's recipe, without its all-zero check, and the
# recovery trial called gsi, which checked the rows and y again
@pytest.mark.parametrize("source, name, callers", [
    (SPECTRAL, "_gsi_matrices", ["_paired_init"]), (BENCH, "_paired_init", ["_trial"])],
    ids=["spectral", "bench"])
def test_both_protocols_take_gsi_from_one_recipe(source, name, callers):
    assert top_level_callers(source, name) == callers


def test_bench_reaches_the_initializers_through_the_recipe_alone():
    assert sorted({"gsi", "baseline_si"} & imported_names(ast.parse(BENCH)).keys()) == []


# a test of float range, by a call of isfinite or a comparison with the largest float
FLOAT_RANGE_TESTS = {"np.isfinite", "math.isfinite", "isfinite", "sys.float_info.max"}


def float_range_testers(source: str) -> list[str]:
    """The functions of `source`, top-level or methods as `Class.method`, that name a
    test of FLOAT_RANGE_TESTS, a bare `isfinite` (as `from math import` binds it) too."""
    tree = ast.parse(source)
    functions = [(node.name, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
    functions += [(f"{node.name}.{method.name}", method)
                  for node in tree.body if isinstance(node, ast.ClassDef)
                  for method in node.body if isinstance(method, ast.FunctionDef)]
    return sorted(name for name, node in functions
                  if any(isinstance(n, (ast.Attribute, ast.Name))
                         and ast.unparse(n) in FLOAT_RANGE_TESTS for n in ast.walk(node)))


def test_the_scan_finds_the_float_range_testers():
    source = ("from math import isfinite\n"
              "def f(v):\n    return np.isfinite(v)\n"
              "def g(v):\n    return v <= sys.float_info.max\n"
              "def h(v):\n    return math.isfinite\ndef k(v):\n    return sys.float_info.min\n"
              "class C:\n    def m(self):\n        return isfinite(self.v)\n"
              "    def n(self):\n        return self.v\n")
    assert float_range_testers(source) == ["C.m", "f", "g", "h"]


def test_only_ldexp_judges_a_result_beyond_float_range():
    # build_M, hermitian_opnorm and derived_constants each held a copy of the judgement,
    # and gsi, baseline_si and the matrix oracles left an overflowed matrix to another
    # function's argument check. The others test arguments (_vector, _matrix, _number,
    # MeasurementSet's vectors), solve's iterates for its NON_FINITE status and
    # convergence_rate_fit's trace
    assert sorted(name for path in PACKAGE
                  for name in float_range_testers(path.read_text(encoding="utf-8"))) \
        == ["MeasurementSet.__post_init__", "_ldexp", "_matrix", "_number", "_vector",
            "convergence_rate_fit", "solve"]

"""Importing the package loads numpy and no scipy: scipy's import costs
more than the package itself, and maps a second OpenBLAS; a solve imports
nothing more.  The package's
modules factor and solve only through ``kernelbcd.linalg``, state the
integer and real-number input rules only in ``kernelbcd.errors``, write
the method names and the kernel families once, and a star import binds the
package's public names, not its submodules."""

import ast
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import kernelbcd

SRC = Path(__file__).resolve().parent.parent / "src"


def test_package_and_cli_import_no_scipy():
    code = (
        "import sys, kernelbcd, kernelbcd.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_a_solve_imports_no_module():
    # numpy 2's np.unique imports numpy.ma on its first call, about 1 MB
    # that a process's peak memory pays; the index checks sort instead
    code = (
        "import sys, kernelbcd as kb\n"
        "data = kb.gaussian_blobs(32, 3, 2)\n"
        "before = set(sys.modules)\n"
        "kb.solve_full(data, kb.KernelSpec('rbf', 2.0), 0.1, kb.make_plan(32, 4), 2)\n"
        "kb.solve_nystrom(data, kb.KernelSpec('rbf', 2.0), 8, 0.1, 1e-3, kb.make_plan(8, 4), 2)\n"
        "model, _ = kb.solve_rf(data, kb.FeatureMapSpec(8, 2.0), 0.1, kb.make_plan(8, 4), 2)\n"
        "kb.evaluate(model, data)\n"
        "print(sorted(set(sys.modules) - before))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _np_linalg_names(path: Path) -> set[str]:
    """The ``np.linalg.<name>`` attributes a module's code uses."""
    return {
        node.attr
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "linalg"
        and isinstance(node.value.value, ast.Name)
        and node.value.value.id == "np"
    }


def test_only_linalg_calls_cholesky_and_solve():
    # one SPD solve, spd_solve, with one set of checks for every caller
    users = {
        path.name
        for path in (SRC / "kernelbcd").glob("*.py")
        if {"cholesky", "solve"} & _np_linalg_names(path)
    }
    assert users == {"linalg.py"}


def _rule_names(path: Path) -> set[str]:
    """The ``operator.index`` and ``numbers.Real`` a module's code uses, as
    an attribute or imported by name."""
    tree = ast.parse(path.read_text(), str(path))
    used = {
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
    } | {
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    return used & {"operator.index", "numbers.Real"}


def test_only_errors_states_the_integer_and_real_rules():
    # the scalar input rules have one owner, beside the ConfigError they
    # raise; every other module calls them instead of restating them
    users = {path.name for path in (SRC / "kernelbcd").glob("*.py") if _rule_names(path)}
    assert users == {"errors.py"}


def test_method_names_and_kernel_families_are_written_once():
    # one tuple each, which every check reads through check_choice
    found = [
        ast.literal_eval(node)
        for path in (SRC / "kernelbcd").glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Tuple) and node.elts
        and all(isinstance(e, ast.Constant) for e in node.elts)
    ]
    assert found.count(("full", "nystrom", "rf")) == 1
    assert found.count(("rbf", "linear")) == 1


def test_all_names_no_submodule_and_no_table1_formula():
    assert not [
        name
        for name in kernelbcd.__all__
        if isinstance(getattr(kernelbcd, name), types.ModuleType)
    ]
    # the Table 1 regime formulas, their spectrum model and the synthetic
    # spectrum kernel are gone from the package
    assert not [
        name
        for name in kernelbcd.__all__
        if re.search("table1|spectrum|regime", name, re.IGNORECASE)
    ]

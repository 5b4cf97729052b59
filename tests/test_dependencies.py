"""The package imports only what ``pyproject.toml`` declares."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent

#: Third-party distributions ``pyproject.toml`` lists under ``dependencies``.
DECLARED = {"numpy", "scipy"}


def _top_level_imports(path: Path) -> set[str]:
    """Top-level module names of every absolute import in one file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names.add(node.module.split(".")[0])
    return names


def test_every_third_party_import_is_declared():
    undeclared = {}
    for path in sorted(SRC.rglob("*.py")):
        third_party = {
            name
            for name in _top_level_imports(path)
            if name not in sys.stdlib_module_names and name != "repro"
        }
        if third_party - DECLARED:
            undeclared[str(path.relative_to(SRC))] = sorted(third_party - DECLARED)
    assert undeclared == {}


def test_experiments_import_without_networkx():
    """``networkx`` is not a dependency: the figure package must import
    with it blocked (``None`` in ``sys.modules`` makes its import fail)."""
    code = (
        "import sys\n"
        "sys.modules['networkx'] = None\n"
        "import repro.experiments\n"
        "assert 'networkx' not in [m.split('.')[0] for m in sys.modules if sys.modules[m]]\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr

"""The declared runtime dependencies are exactly the third-party imports."""

import ast
import pathlib
import re
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
# Distribution names whose import name differs.
IMPORT_NAME = {"pyyaml": "yaml"}


def _third_party_imports() -> set[str]:
    names = set()
    for path in (ROOT / "src" / "cotloop").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"cotloop"}


def test_declared_dependencies_match_imports():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as f:
        declared = tomllib.load(f)["project"]["dependencies"]
    names = {re.match(r"[A-Za-z0-9_.-]+", d).group(0).lower() for d in declared}
    assert {IMPORT_NAME.get(n, n) for n in names} == _third_party_imports()

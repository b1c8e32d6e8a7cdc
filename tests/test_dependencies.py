"""The runtime dependencies declared in pyproject.toml are the third-party
modules that the package imports, no more and no fewer."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent


def imported_top_level_modules(package_dir):
    """Top-level names of the absolute imports in every module of the package."""
    names = set()
    for path in package_dir.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def test_declared_dependencies_are_the_imported_third_party_modules():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fobj:
        project = tomllib.load(fobj)["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", d).group().lower().replace("-", "_") for d in project["dependencies"]}
    imported = imported_top_level_modules(ROOT / "src" / "wlstrack")
    third_party = imported - set(sys.stdlib_module_names) - {"__future__", "wlstrack"}
    assert third_party == declared == {"numpy", "orjson"}

"""What the package ships and exports.

The package-data globs in ``pyproject.toml`` against the files they ship:
an editable install reads data files from the source tree, so a file no
glob matches is missed only by a wheel, and a glob that matches nothing
is never noticed at all. And every exported name against the package: a
name left in an ``__all__`` after its definition went fails only a
star import.
"""

import ast
import importlib
from pathlib import Path

import pytest

try:
    import tomllib
except ModuleNotFoundError:  # the standard library has it from Python 3.11
    tomllib = None

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rxnparse"
needs_tomllib = pytest.mark.skipif(tomllib is None, reason="tomllib is in the standard library from Python 3.11")


def _package_data_globs() -> list[str]:
    if tomllib is None:
        return []
    with open(ROOT / "pyproject.toml", "rb") as handle:
        return tomllib.load(handle)["tool"]["setuptools"]["package-data"]["rxnparse"]


@needs_tomllib
def test_every_data_file_is_packaged():
    packaged = {path for pattern in _package_data_globs() for path in PACKAGE.glob(pattern)}
    data_files = {
        path
        for path in (PACKAGE / "data").rglob("*")
        if path.is_file() and path.suffix not in (".py", ".pyc") and "__pycache__" not in path.parts
    }
    assert sorted(data_files - packaged) == []


@pytest.mark.parametrize("pattern", _package_data_globs())
def test_every_package_data_glob_matches_a_file(pattern):
    assert any(path.is_file() for path in PACKAGE.glob(pattern)), pattern


@pytest.mark.parametrize("module", ["rxnparse.chem", "rxnparse.reasoning"])
def test_every_name_in_all_resolves(module):
    package = importlib.import_module(module)
    assert package.__all__
    assert [name for name in package.__all__ if not hasattr(package, name)] == []


def test_every_name_the_package_imports_resolves():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = {
        f"{'.' * node.level}{node.module}": [alias.name for alias in node.names]
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
    }
    assert imported
    unresolved = [
        f"{module}.{name}"
        for module, names in imported.items()
        for name in names
        if not hasattr(importlib.import_module(module, "rxnparse"), name)
    ]
    assert unresolved == []

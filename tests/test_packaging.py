"""The package-data globs in ``pyproject.toml`` against the files they ship.

An editable install reads data files from the source tree, so a file no
glob matches is missed only by a wheel, and a glob that matches nothing
is never noticed at all.
"""

from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # the standard library has it from Python 3.11

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rxnparse"


def _package_data_globs() -> list[str]:
    with open(ROOT / "pyproject.toml", "rb") as handle:
        return tomllib.load(handle)["tool"]["setuptools"]["package-data"]["rxnparse"]


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

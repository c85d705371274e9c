"""What the package ships, exports and loads.

The package-data globs in ``pyproject.toml`` against the files they ship:
an editable install reads data files from the source tree, so a file no
glob matches is missed only by a wheel, and a glob that matches nothing
is never noticed at all. Every exported name against the package: a
name left in an ``__all__`` after its definition went fails only a
star import. And what an import loads, each in a fresh interpreter: a
module loads only the modules it uses, so scoring a corpus never loads
the pipeline.
"""

import importlib
import json
import os
import subprocess
import sys
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


def _loaded_after(module: str) -> list[str]:
    """The modules a fresh interpreter holds after importing ``module``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    code = f"import json, sys, {module}; print(json.dumps(sorted(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_importing_the_package_loads_no_submodule():
    assert [name for name in _loaded_after("rxnparse") if name.startswith("rxnparse.")] == []


def test_chemistry_loads_without_numpy():
    loaded = _loaded_after("rxnparse.chem")
    assert "rxnparse.chem.smiles" in loaded and "numpy" not in loaded


def test_evaluation_loads_no_pipeline_layer():
    loaded = _loaded_after("rxnparse.evaluation")
    layers = ("rxnparse.pipeline", "rxnparse.agents", "rxnparse.planner", "rxnparse.render", "rxnparse.reasoning")
    assert "rxnparse.evaluation" in loaded and [name for name in layers if name in loaded] == []


def _loaded_after_running(argv: list[str]) -> list[str]:
    """The modules a fresh interpreter holds after ``rxnparse.cli.main(argv)`` returns 0."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    code = (
        "import json, sys\nfrom rxnparse.cli import main\n"
        f"code = main({argv!r})\nprint(json.dumps([code, sorted(sys.modules)]), file=sys.stderr)"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    exit_code, loaded = json.loads(done.stderr.strip().splitlines()[-1])
    assert exit_code == 0, done.stderr
    return loaded


def test_the_fingerprint_command_loads_no_numpy():
    loaded = _loaded_after_running(["fingerprint", "CCO"])
    assert "rxnparse.chem.fingerprint" in loaded and "numpy" not in loaded


def test_the_eval_command_loads_no_pipeline_layer(tmp_path):
    reactions = [{
        "reactants": [{"label": "molecule", "bbox": [0, 0, 10, 10]}],
        "products": [{"label": "molecule", "bbox": [20, 0, 30, 10]}],
        "conditions": [],
        "arrow": [],
    }]
    path = tmp_path / "reactions.json"
    path.write_text(json.dumps(reactions), encoding="utf-8")
    loaded = _loaded_after_running(["eval", "--gt", str(path), "--pred", str(path)])
    layers = ("rxnparse.pipeline", "rxnparse.planner", "rxnparse.reasoning", "rxnparse.render")
    assert "rxnparse.evaluation" in loaded and [name for name in layers if name in loaded] == []

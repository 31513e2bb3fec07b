"""The public names of the package, and where its version is written.

`lescop/__init__.py` states each public name once, in its import block;
`lescop.__all__` is derived from the names that block binds, and
`pyproject.toml` reads the version from `lescop.__version__`.
"""

import ast
import sys
import warnings
from pathlib import Path
from types import ModuleType

import pytest

import lescop

ROOT = Path(__file__).resolve().parent.parent


def imported_names():
    """The names that the relative imports of lescop/__init__.py bind, in order."""
    tree = ast.parse(Path(lescop.__file__).read_text(encoding="utf-8"))
    return [alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def test_all_is_the_import_block():
    assert lescop.__all__ == imported_names()
    assert len(lescop.__all__) == len(set(lescop.__all__)) == 58
    assert not any(isinstance(getattr(lescop, name), ModuleType) for name in lescop.__all__)


def test_each_name_is_a_submodule_attribute():
    """`corpus` is the function, although lescop.corpus is also a submodule."""
    submodules = [module for name, module in sys.modules.items()
                  if name.startswith("lescop.") and name.count(".") == 1]
    for name in lescop.__all__:
        value = getattr(lescop, name)
        assert any(vars(module).get(name) is value for module in submodules), name
    assert callable(lescop.corpus)


def test_star_import_binds_exactly_all():
    scope = {}
    exec("from lescop import *", scope)
    del scope["__builtins__"]
    assert sorted(scope) == sorted(lescop.__all__)
    assert all(scope[name] is getattr(lescop, name) for name in scope)


def test_version_is_read_from_the_package():
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    with warnings.catch_warnings():
        # setuptools marks its [tool.setuptools] tables as beta
        warnings.simplefilter("ignore")
        project = pyprojecttoml.read_configuration(ROOT / "pyproject.toml")["project"]
    assert project["version"] == lescop.__version__ == "0.1.0"
    assert lescop.__version__ not in (ROOT / "pyproject.toml").read_text(encoding="utf-8")

import doctest
import importlib
import pkgutil

import pytest

import lescop

# every module of the package; __main__ is left out, since importing it runs the CLI
MODULES = [lescop] + [
    importlib.import_module(f"lescop.{info.name}")
    for info in pkgutil.iter_modules(lescop.__path__)
    if info.name != "__main__"
]
HAVE_EXAMPLES = {"lescop.ring", "lescop.lens", "lescop.invariants", "lescop.presentation"}


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    failed, attempted = doctest.testmod(module)
    assert attempted > 0 or module.__name__ not in HAVE_EXAMPLES
    assert failed == 0

"""Every module attribute that the docs name exists.

README.md and the docstrings and comments of the package name functions
and classes as `module.name`, such as `ring.exact` or
`presentation.skew_form`.  Each such name, with or without a leading
`lescop.`, must be an attribute of that module, so a rename or deletion
that leaves a stale name in the prose fails here.  File names such as
`cli.py` are not names.
"""

import ast
import importlib
import io
import re
import tokenize
from pathlib import Path

import lescop

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("ring", "presentation", "invariants", "floer", "documents", "cli", "lens", "corpus")
REFERENCE = re.compile(rf"(?<![\w.])(?:lescop\.)?({'|'.join(MODULES)})\.([A-Za-z_]\w*)")


def prose(path):
    """The docstrings and comments of a Python source file."""
    source = path.read_text(encoding="utf-8")
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield ast.get_docstring(node, clean=False) or ""
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            yield token.string


def references():
    """(where, module, name) for each module.name in README.md and the package's prose."""
    texts = [("README.md", (ROOT / "README.md").read_text(encoding="utf-8"))]
    for path in sorted(Path(lescop.__file__).parent.glob("*.py")):
        texts += [(path.name, text) for text in prose(path)]
    return [(where, module, name)
            for where, text in texts
            for module, name in REFERENCE.findall(text)
            if name != "py"]


def test_every_named_attribute_exists():
    found = references()
    assert found
    missing = [(where, f"{module}.{name}") for where, module, name in found
               if not hasattr(importlib.import_module(f"lescop.{module}"), name)]
    assert missing == []

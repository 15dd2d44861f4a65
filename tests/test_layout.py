"""Source-layout rules of the package, checked on its syntax trees."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "hardylab"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_imports(source: str) -> list[str]:
    """Private names of other modules that ``source`` imports, either
    ``from m import _x`` or ``m._x`` on an imported module ``m``."""
    tree = ast.parse(source)
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                if _private(a.name):
                    found.append(f"line {node.lineno}: from {node.module or '.'} import {a.name}")
                elif node.module is None:  # from . import module
                    modules.add(a.asname or a.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            found.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
    return found


def test_checker_sees_both_forms():
    source = ("from .quadrature import _panels, integrate\n"
              "from . import hardy\n"
              "x = hardy._outer\n"
              "y = hardy.__name__\n")
    assert private_imports(source) == ["line 1: from quadrature import _panels",
                                       "line 3: hardy._outer"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_private_names(path):
    assert private_imports(path.read_text()) == []

"""Source-layout rules of the package, checked on its syntax trees."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "hardylab"
DEMOS = Path(__file__).resolve().parents[1] / "demos"

#: public functions that no report or demo reaches yet, each with the
#: ROADMAP item that wires it in; the list may only shrink
UNREACHED = {
    "evolution.evolve_exterior":
        "ROADMAP item 2: the exterior heat flow and its hidden energy",
}


#: public members that no report or demo reads yet, each with the ROADMAP
#: item that needs it; the list may only shrink
UNREACHED_MEMBERS = {
    "quadrature.LimitResult.samples":
        "ROADMAP item 3: the samples behind each limit, for the reports",
    "quadrature.LimitResult.dropped":
        "ROADMAP item 3: the samples a limit dropped, for the reports",
    "spectrum.SpectralField.dirichlet_sq":
        "ROADMAP item 6: the Parseval route to the cutoff norm",
}

#: member names that more than one public class defines; a read of such a
#: name reaches every class that defines it, so the set is pinned
SHARED = {"defect", "dim", "dirichlet", "energy", "eps", "norm_sq", "profile"}


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


def imported_modules(source: str) -> set[str]:
    """Top-level names of the modules that ``source`` imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            found.add(node.module.split(".")[0])
    return found


def test_only_the_cli_touches_the_collector():
    # the CLI owns its process and freezes the heap before it exits; a
    # library module must leave its importer's GC state alone
    assert imported_modules("import gc\nfrom gc import freeze\nfrom . import hardy\n") \
        == {"gc"}
    users = [path.name for path in sorted(SRC.glob("*.py"))
             if "gc" in imported_modules(path.read_text())]
    assert users == ["cli.py"]


def dataclass_replaces(source: str) -> list[str]:
    """Uses of ``dataclasses.replace`` in ``source``, imported by name or
    read as an attribute of the imported module."""
    tree = ast.parse(source)
    aliases, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update(a.asname or a.name for a in node.names if a.name == "dataclasses")
        elif isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
            found += [f"line {node.lineno}: from dataclasses import replace"
                      for a in node.names if a.name == "replace"]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "replace"
                and isinstance(node.value, ast.Name) and node.value.id in aliases):
            found.append(f"line {node.lineno}: {node.value.id}.replace")
    return found


def test_replace_checker_sees_both_forms():
    source = ("from dataclasses import dataclass, replace as swap\n"
              "import dataclasses as dc\n"
              "x = dc.replace(p, v=v)\n"
              "y = name.replace('a', 'b')\n")
    assert dataclass_replaces(source) == ["line 1: from dataclasses import replace",
                                          "line 3: dc.replace"]


def test_derived_profiles_come_from_the_constructor():
    # replace() would carry every fact about dv over to a profile whose dv
    # is another function; a derived profile states its fields instead
    found = {path.name: dataclass_replaces(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert {name: uses for name, uses in found.items() if uses} == {}


def public_functions(source: str) -> list[str]:
    """Names of the public functions defined at the top level of ``source``."""
    return [node.name for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]


def loaded_names(source: str) -> set[str]:
    """Names that ``source`` reads, as ``name`` or ``module.name``, outside
    the body of the top-level function of that name."""
    loads = set()
    for top in ast.parse(source).body:
        own = top.name if isinstance(top, ast.FunctionDef) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                name = node.attr
            else:
                continue
            if name != own:
                loads.add(name)
    return loads


def unreached_functions() -> list[str]:
    """Public top-level functions of the package that no module of the
    package and no demo reads."""
    sources = {path: path.read_text() for path in sorted(SRC.glob("*.py"))}
    loads = set()
    for source in [*sources.values(), *(p.read_text() for p in sorted(DEMOS.glob("*.py")))]:
        loads |= loaded_names(source)
    return [f"{path.stem}.{name}" for path, source in sources.items()
            for name in public_functions(source) if name not in loads]


def test_reach_checker_ignores_own_body_and_all():
    source = ("__all__ = ['f', 'g', 'h']\n"
              "def f(n):\n    return f(n - 1)\n"
              "def g():\n    return h()\n"
              "def h():\n    return 1\n")
    assert public_functions(source) == ["f", "g", "h"]
    assert {"f", "g"} & loaded_names(source) == set()
    assert "h" in loaded_names(source)


def test_every_public_function_reaches_a_report_or_demo():
    unreached = unreached_functions()
    assert [name for name in unreached if name not in UNREACHED] == []
    # an exception that a report or demo now reaches leaves the list
    assert [name for name in UNREACHED if name not in unreached] == []


def _targets(node) -> list:
    """The targets of an assignment, annotated or not; none otherwise."""
    if isinstance(node, ast.Assign):
        return node.targets
    if isinstance(node, ast.AnnAssign):
        return [node.target]
    return []


def public_members(source: str) -> list[tuple[str, str]]:
    """(class, member) for each public top-level class of ``source`` and each
    public method, property, class-body field and ``__init__`` attribute
    (``self.x = ...``) of it."""
    found = []
    for top in ast.parse(source).body:
        if not isinstance(top, ast.ClassDef) or top.name.startswith("_"):
            continue
        names = []
        for node in top.body:
            if isinstance(node, ast.FunctionDef):
                names.append(node.name)
                if node.name == "__init__":
                    names += [t.attr for sub in ast.walk(node) for t in _targets(sub)
                              if isinstance(t, ast.Attribute)
                              and isinstance(t.value, ast.Name) and t.value.id == "self"]
            else:
                names += [t.id for t in _targets(node) if isinstance(t, ast.Name)]
        found += [(top.name, n) for n in dict.fromkeys(names) if not n.startswith("_")]
    return found


def loaded_attributes(source: str) -> set[str]:
    """Attribute names that ``source`` reads, as ``x.name``, outside the body
    of every function of that name."""
    loads = set()

    def visit(node, own):
        if isinstance(node, ast.FunctionDef):
            own = own | {node.name}
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
              and node.attr not in own):
            loads.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, own)

    visit(ast.parse(source), frozenset())
    return loads


def package_members() -> dict[str, list[str]]:
    """Each public member name of the package, with the ``module.Class``
    that define it."""
    owners: dict[str, list[str]] = {}
    for path in sorted(SRC.glob("*.py")):
        for cls, name in public_members(path.read_text()):
            owners.setdefault(name, []).append(f"{path.stem}.{cls}")
    return owners


def unreached_members() -> list[str]:
    """Public members of the package whose name no module of the package and
    no demo reads as an attribute."""
    loads = set()
    for path in [*sorted(SRC.glob("*.py")), *sorted(DEMOS.glob("*.py"))]:
        loads |= loaded_attributes(path.read_text())
    return [f"{owner}.{name}" for name, owners in package_members().items()
            if name not in loads for owner in owners]


def test_member_checker_sees_every_kind_and_ignores_own_body():
    source = ("class A:\n"
              "    HELD = 3\n"
              "    size: int\n"
              "    _hidden: int\n"
              "    def __init__(self):\n"
              "        self.data = []\n"
              "        self._cache = {}\n"
              "    @property\n"
              "    def width(self):\n"
              "        return self.size\n"
              "    def grow(self):\n"
              "        return self.grow()\n"
              "class _B:\n"
              "    def hidden(self):\n"
              "        return 0\n")
    assert public_members(source) == [("A", "HELD"), ("A", "size"), ("A", "data"),
                                      ("A", "width"), ("A", "grow")]
    loads = loaded_attributes(source)
    assert "size" in loads
    assert "grow" not in loads


def test_shared_member_names_are_pinned():
    shared = {name for name, owners in package_members().items() if len(owners) > 1}
    assert shared == SHARED


def test_one_class_holds_a_regular_part():
    # every function of the package is a RadialProfile; another class gives
    # its regular part through a method that returns one, such as profile()
    owners = package_members()
    assert {name: owners.get(name) for name in ("v", "dv")} \
        == {"v": ["profiles.RadialProfile"], "dv": ["profiles.RadialProfile"]}


def test_every_public_member_reaches_a_report_or_demo():
    unreached = unreached_members()
    assert [name for name in unreached if name not in UNREACHED_MEMBERS] == []
    # an exception that a report or demo now reaches leaves the list
    assert [name for name in UNREACHED_MEMBERS if name not in unreached] == []

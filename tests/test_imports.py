"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

import pytest

import ringterp

MODULES = sorted(p for p in Path(ringterp.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements and never read as a name; the
    package's __init__ re-exports what it imports and is not checked."""
    tree = ast.parse(source)
    imported: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [(alias.asname or alias.name).split(".")[0]
                         for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_the_scan_finds_an_unused_import():
    assert unused_imports("import os\nfrom x import a, b as c\nc()\n") == [
        "os", "a"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# The modules at the bottom of the package and the package modules each
# may import: the node table imports none, and the reader and printer
# only the node table, so neither pulls in the translation or the
# evaluator.  The generators, the pairing function and the manifest
# import none either, so a subcommand that needs them loads neither the
# encoder nor the evaluator.
LOWER_LAYERS = {"syntax.py": set(), "sexpr.py": {"syntax"},
                "reals.py": set(), "pairing.py": set(), "manifest.py": set()}


def package_imports(source: str) -> set[str]:
    """The package modules that source imports, by relative or absolute
    import."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.split(".")[0] == "ringterp":
                found.add(node.module.partition(".")[2] or "ringterp")
        elif isinstance(node, ast.Import):
            found.update(alias.name.partition(".")[2] or "ringterp"
                         for alias in node.names
                         if alias.name.split(".")[0] == "ringterp")
    return found


def test_the_layer_scan_finds_every_import_form():
    source = ("import re\nfrom . import reals\nfrom .syntax import Or\n"
              "from ringterp.translate import translate\n"
              "import ringterp.evaluate\nfrom typing import Optional\n")
    assert package_imports(source) == {"reals", "syntax", "translate",
                                       "evaluate"}


@pytest.mark.parametrize("name", sorted(LOWER_LAYERS))
def test_lower_layers_import_nothing_above_them(name):
    path = Path(ringterp.__file__).parent / name
    assert package_imports(path.read_text(encoding="utf-8")) <= (
        LOWER_LAYERS[name])

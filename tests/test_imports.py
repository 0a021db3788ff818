"""Every name a module of the package imports is used in that module."""

import ast
import importlib
import subprocess
import sys
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
# may import: the frozen-class helper imports none, the node table only
# that helper, and the reader and printer only the node table, so
# neither pulls in the translation or the evaluator.  The generators
# import only the frozen-class helper, and the pairing function and the
# manifest none, so a subcommand that needs them loads neither the
# encoder nor the evaluator.
LOWER_LAYERS = {"frozen.py": set(), "syntax.py": {"frozen"},
                "sexpr.py": {"syntax"}, "reals.py": {"frozen"},
                "pairing.py": set(), "manifest.py": set()}


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


# ---------------------------------------------------------------------------
# What a command line call loads


_PROBE = """\
import sys
from ringterp.cli import main
try:
    code = main(sys.argv[2:])
except SystemExit as exc:
    code = exc.code
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "ringterp")
loaded += ["dataclasses"] * ("dataclasses" in sys.modules)
with open(sys.argv[1], "w") as out:
    out.write(" ".join([str(code)] + loaded))
"""

# ringterp and its cli, and the formula layer the package imports at once
# (the translate function, which its module's name would shadow).
_BASE = {"", "cli", "frozen", "pairing", "syntax", "translate"}
_EVAL = _BASE | {"encoder", "evaluate", "kripke", "manifest", "reals",
                 "sexpr"}
_TRACE = "\n".join(["# ringterp run-trace v1", "# moments",
                    "0 0 - -", "1 1 1 yes", "# conjuncts", "C1=holds",
                    "C2=vacuous", "C3=holds", "C4=holds", "C5=holds",
                    "aggregate=holds", "# summary", "horizon=1", "seed=0",
                    "alpha=prefix:;default:1", "schedule=phi:0",
                    "stabilized=1:1"]) + "\n"


@pytest.mark.parametrize("argv, loaded", [
    (["--version"], _BASE),
    (["translate", "--in", "{formula}"], _BASE | {"manifest", "sexpr"}),
    (["simulate", "--schedule", "phi:1", "--horizon", "4"],
     _BASE | {"kripke", "manifest"}),
    (["encode", "--from-run", "{trace}"],
     _BASE | {"encoder", "kripke", "manifest", "reals"}),
    (["eval", "--structure", "{structure}", "--formula", "{formula}"], _EVAL),
    (["selftest"], _EVAL | {"corpus", "goldens", "selftest"}),
], ids=lambda value: value[0] if isinstance(value, list) else None)
def test_each_subcommand_loads_only_its_layers(tmp_path, argv, loaded):
    """The exact ringterp modules a call loads, in a fresh interpreter,
    and never dataclasses; counted, not timed."""
    files = {"formula": "(bot)\n", "trace": _TRACE, "structure": "nats: 0\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [arg.format(**{name: str(tmp_path / name) for name in files})
            for arg in argv] + (["--out", str(tmp_path / "out")]
                                if argv[0] != "--version" else [])
    report = tmp_path / "modules"
    proc = subprocess.run([sys.executable, "-c", _PROBE, str(report), *argv],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert report.read_text().split() == ["0"] + sorted(
        "ringterp" + ("." + name if name else "") for name in loaded)


# ---------------------------------------------------------------------------
# The public API, resolved on first use


PUBLIC_API = {
    "Add", "And", "Apart", "Bottom", "ChoiceSeq", "ConjunctReport",
    "ConjunctStatus", "DefinedQuant", "Draw", "Eq", "EvalError", "Exists",
    "Expansion", "FiniteStructure", "Forall", "Formula", "Implies", "In",
    "InsufficientHorizon", "Language", "Lt", "MembershipStatus", "Mul",
    "NatConst", "Or", "Orientation", "Pair", "ParseError", "Precision",
    "PrecisionError", "QuantKind", "RealConst", "RealGen", "RunResult",
    "Schedule", "ScheduleKind", "Sort", "SortError", "SpeciesConst",
    "SpeciesEncoding", "SpeciesEq", "SpeciesVar", "StructureError", "Succ",
    "Term", "TraceError", "TranslationConfig", "TranslationError", "Var",
    "add", "adaptive_precision", "alpha_equal", "apart_at",
    "check_conjuncts", "check_modulus", "encode_run", "encode_silent",
    "encode_stabilized", "eq_at", "eval_formula", "expand_defined",
    "format_formula", "format_structure", "format_term", "format_trace",
    "free_vars", "from_nat", "from_unit_fraction", "is_closed", "lt_at",
    "membership_profile", "mul", "nat_core_formula", "nat_predicate",
    "nat_scalar", "neg", "normalize_apart", "pair", "parse_alpha_spec",
    "parse_formula", "parse_schedule_spec", "parse_structure", "parse_term",
    "parse_trace", "quotient_status", "run_total", "sentinel_formula",
    "simulate", "substitute", "translate", "unpair",
}


def test_every_public_name_is_its_defining_modules_object():
    assert ringterp.__all__ == sorted(PUBLIC_API)
    for name in ringterp.__all__:
        value = getattr(ringterp, name)
        assert value is getattr(importlib.import_module(value.__module__),
                                name), name
        assert value.__module__.startswith("ringterp.")
    assert set(ringterp.__all__) <= set(dir(ringterp))
    with pytest.raises(AttributeError, match="has no attribute 'nothing'"):
        ringterp.nothing


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from ringterp import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC_API


@pytest.mark.parametrize("first", ["ringterp.evaluate", "ringterp.translate"])
def test_the_translate_function_survives_its_module_loading(first):
    """The package's translate is the function, never the module the
    import system binds under that name when the module is loaded."""
    script = (f"import {first}, ringterp.translate, ringterp; "
              "print(type(ringterp.translate).__name__)")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "function\n"), proc.stderr

"""The names perfbench's tracer wraps are plain functions of ringterp.

perfbench/spans.py patches each (module, attr) it lists by name, on the
module or on the class; a renamed function, or a method that became a
slot, would leave a traced run without the span or count it reports.
"""

import importlib
import importlib.util
import types
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans() -> types.ModuleType:
    spec = importlib.util.spec_from_file_location("perfbench.spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()
NAMES = [(module, attr) for module, attr, _ in spans.SPANNED] + list(
    spans.COUNTED)


@pytest.mark.parametrize("module, attr", NAMES,
                         ids=[f"{m}.{a}" for m, a in NAMES])
def test_each_traced_name_is_a_plain_function(module, attr):
    owner = importlib.import_module(f"ringterp.{module}")
    cls_name, _, name = attr.rpartition(".")
    if cls_name:
        # the class's own entry: a slot would be a member descriptor
        found = vars(getattr(owner, cls_name)).get(name)
    else:
        found = getattr(owner, name, None)
    assert type(found) is types.FunctionType, (module, attr, found)


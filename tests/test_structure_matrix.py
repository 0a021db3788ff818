"""Collapse and absorption over a stratified subset of the structure
matrix of tools/structure_matrix.py: every domain shape, every species
choice and both orientations, with errors compared by class."""

import importlib.util
import types
from pathlib import Path

from ringterp.translate import Orientation

TOOL = (Path(__file__).resolve().parent.parent / "tools"
        / "structure_matrix.py")


def load_tool() -> types.ModuleType:
    spec = importlib.util.spec_from_file_location("structure_matrix", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


matrix = load_tool()


def test_the_full_matrix_has_the_measured_size():
    cells = matrix.cells()
    assert len(cells) == len(set(cells)) == 2028


def test_the_subset_holds_every_shape_and_choice():
    cells = matrix.stratified()
    assert len(cells) == 78
    assert set(cells) <= set(matrix.cells())
    assert {c.domain for c in cells} == set(matrix.DOMAINS)
    assert {c.first for c in cells} == {c.second for c in cells} \
        == set(matrix.CHOICES)
    assert {c.orientation for c in cells} == set(Orientation)


def test_a_stratified_subset_collapses_and_absorbs():
    tally, failures = matrix.check(matrix.stratified())
    assert failures == []
    assert tally["structures"] == 78
    assert tally["comparisons"] == tally["collapse agrees"] \
        == tally["absorption holds"] == 78 * 200
    # both verdicts occur
    assert tally["source True"] and tally["source False"]

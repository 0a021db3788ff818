"""Collapse and absorption over a matrix of small structures.

Every other collapse check runs over one shape of structure, the corpus
structure (nats 0..3, singletons {1} at moment 2 and {2} at moment 3).
This matrix varies what that shape never holds.  Each structure is a
nat domain, a choice for each of the species constants 1 and 2, and an
orientation, at the default precision:

- 6 nat domains: 0..3, 0..4, {0, 2, 3}, {0, 1, 3, 5}, {1, 2, 3} and
  {0, 1, 2, 3, 7}, so with gaps, without 0 and with members outside;
- 13 choices per species: the full species, or a singleton with moment
  1, 2 or 3 and value 1, 2, 3 or 5;
- both orientations;

6 * 13 * 13 * 2 = 2,028 structures.  Over each, every corpus formula
(corpus_formulas(), 200 of them) is evaluated as source and its macro
translation, in the structure's orientation, as target.  Collapse: with
the sentinel false the two give the same value, or errors of the same
class.  Absorption: with the sentinel true the translation is true, or
raises an error of the class the source raises.

Run it by hand from the repository root (it takes a minute or two):

    python3 tools/structure_matrix.py

It prints the counts, and exits 1 if a structure fails to build or a
collapse or absorption fails.  tests/test_structure_matrix.py runs a
seeded, stratified subset of the same matrix.
"""

from __future__ import annotations

import itertools
import random
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ringterp.corpus import corpus_formulas  # noqa: E402
from ringterp.encoder import encode_silent, encode_stabilized  # noqa: E402
from ringterp.evaluate import FiniteStructure, eval_formula  # noqa: E402
from ringterp.syntax import Language  # noqa: E402
from ringterp.translate import (  # noqa: E402
    Expansion, Orientation, TranslationConfig, translate,
)

DOMAINS = ((0, 1, 2, 3), (0, 1, 2, 3, 4), (0, 2, 3), (0, 1, 3, 5),
           (1, 2, 3), (0, 1, 2, 3, 7))
# None is the full species; (moment, value) a singleton.
CHOICES = (None,) + tuple(itertools.product((1, 2, 3), (1, 2, 3, 5)))
# Seeds the stratified subset.
SEED = 26


class Cell(NamedTuple):
    domain: tuple[int, ...]
    first: Optional[tuple[int, int]]
    second: Optional[tuple[int, int]]
    orientation: Orientation

    def build(self, sentinel_true: bool) -> FiniteStructure:
        species = {i: encode_silent() if choice is None
                   else encode_stabilized(*choice)
                   for i, choice in ((1, self.first), (2, self.second))}
        return FiniteStructure(self.domain, species, self.orientation,
                               sentinel_true=sentinel_true)


def cells() -> list[Cell]:
    """The whole matrix, 2,028 structures."""
    return [Cell(*parts) for parts in itertools.product(
        DOMAINS, CHOICES, CHOICES, Orientation)]


def stratified() -> list[Cell]:
    """One structure per domain and choice for species 1, 78 in all.

    Per domain, species 2 runs through a seeded permutation of the
    choices, so every domain shape and every species choice occurs at
    least once on each side, and the orientations alternate.
    """
    rng = random.Random(SEED)
    out = []
    for d, domain in enumerate(DOMAINS):
        seconds = rng.sample(CHOICES, len(CHOICES))
        for j, (first, second) in enumerate(zip(CHOICES, seconds)):
            out.append(Cell(domain, first, second,
                            list(Orientation)[(d + j) % 2]))
    return out


def outcome(evaluate: Callable[[], bool]) -> object:
    """The value, or the class of the error raised."""
    try:
        return evaluate()
    except Exception as exc:  # noqa: BLE001 - errors compare by class
        return type(exc)


def check(matrix: Iterable[Cell]) -> tuple[Counter, list]:
    """Counts of structures, comparisons and outcomes over the matrix,
    and a description of each failure."""
    formulas = corpus_formulas()
    targets = {o: [translate(f, config=TranslationConfig(Expansion.MACRO, o))
                   for f in formulas] for o in Orientation}
    tally: Counter = Counter()
    failures = []
    for cell in matrix:
        tally["structures"] += 1
        try:
            plain, absorbing = cell.build(False), cell.build(True)
        except Exception as exc:  # noqa: BLE001 - reported, not raised
            failures.append((cell, "build", type(exc).__name__, str(exc)))
            continue
        for i, (f, target) in enumerate(zip(formulas,
                                            targets[cell.orientation])):
            tally["comparisons"] += 1
            source = outcome(lambda: eval_formula(f, plain, Language.SOURCE))
            collapsed = outcome(
                lambda: eval_formula(target, plain, Language.TARGET))
            absorbed = outcome(
                lambda: eval_formula(target, absorbing, Language.TARGET))
            tally[f"source {getattr(source, '__name__', source)}"] += 1
            if collapsed == source:
                tally["collapse agrees"] += 1
            else:
                failures.append((cell, i, "collapse", source, collapsed))
            if absorbed is True or (isinstance(source, type)
                                    and absorbed is source):
                tally["absorption holds"] += 1
            else:
                failures.append((cell, i, "absorption", source, absorbed))
    return tally, failures


def main() -> int:
    start = time.perf_counter()
    tally, failures = check(cells())
    for key, count in sorted(tally.items()):
        print(f"{key}: {count}")
    print(f"failures: {len(failures)}")
    for failure in failures[:20]:
        print("  ", failure)
    print(f"seconds: {time.perf_counter() - start:.1f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

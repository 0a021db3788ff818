"""τ on every small closed source formula, in macro mode.

A size-indexed enumerator in the manner of SmallCheck (Runciman, Naylor
and Lindblad, "SmallCheck and Lazy SmallCheck", Haskell Symposium 2008)
lists every closed source formula of at most MAX_SIZE nodes over a small
grammar:

- nat terms: the variables in scope, the numerals 0, 1 and 3, succ, +,
  * and pairs of numerals
- atoms: =, < and apart of terms; membership of a variable or numeral
  in a species variable in scope or one of the collapse structures'
  constants; species equality; bot
- the connectives and, or and imp, and at most 2 quantifiers, of which
  at most 1 binds a species

For each formula and orientation the test checks collapse and
absorption over the collapse structures, the source and target
print/parse round trips under alpha_equal, the target sort check,
is_closed, and the homomorphism claim of translate's docstring: the
translation of a compound is the compound of the translations, byte for
byte.  Full mode is left out: its naturals predicate excludes 0, so it
fails collapse on formulas such as (exists (x1 Nat) (= x1 0)).
"""

from functools import cache

import pytest

from ringterp.corpus import SPECIES_SINGLETONS, collapse_structure
from ringterp.evaluate import eval_formula
from ringterp.sexpr import format_formula, parse_formula
from ringterp.syntax import (
    BOT, Add, And, Apart, Bottom, Eq, Exists, Forall, Implies, In, Language,
    Lt, Mul, NatConst, Or, Pair, Sort, SpeciesConst, SpeciesEq, SpeciesVar,
    Succ, Var, alpha_equal, check_formula, is_closed, scoped,
    species_binder_name,
)
from ringterp.translate import (
    Expansion, Orientation, TranslationConfig, translate,
)

# How many formulas there are of each size 1, 2, ...  The checks take
# about 2 s for the 2,600 formulas of size at most 5, in both
# orientations, and about 9 s for the 13,586 of size at most 6.
MAX_SIZE = 5
COUNTS = [1, 4, 52, 300, 2243]
NUMERALS = tuple(NatConst(v) for v in (0, 1, 3))
CONNECTIVES = (And, Or, Implies)
SPECIES_INDEX = 1


def _splits(size: int):
    """(left, right) sizes of a binary node of size nodes."""
    return ((i, size - 1 - i) for i in range(1, size - 1))


@cache
def terms(size: int, scope: tuple[str, ...]) -> tuple:
    if size == 1:
        return tuple(Var(v, Sort.NAT) for v in scope) + NUMERALS
    out = [Succ(t) for t in terms(size - 1, scope)]
    for cls in (Add, Mul):
        out += [cls(a, b) for i, j in _splits(size)
                for a in terms(i, scope) for b in terms(j, scope)]
    if size == 3:
        out += [Pair(a, b) for a in NUMERALS for b in NUMERALS]
    return tuple(out)


@cache
def formulas(size: int, scope: tuple[str, ...], species: tuple[int, ...],
             quantifiers: int, species_binders: int) -> tuple:
    """Every formula of size nodes over the nat variables of scope and
    the species variables of species."""
    refs = ([SpeciesVar(i) for i in species]
            + [SpeciesConst(i) for i in sorted(SPECIES_SINGLETONS)])
    out = []
    if size == 1:
        out.append(BOT)
    if size == 3:
        elements = [Var(v, Sort.NAT) for v in scope] + list(NUMERALS)
        out += [In(e, r) for e in elements for r in refs]
        out += [SpeciesEq(a, b) for a in refs for b in refs]
    for cls in (Eq, Lt, Apart):
        out += [cls(a, b) for i, j in _splits(size)
                for a in terms(i, scope) for b in terms(j, scope)]
    for cls in CONNECTIVES:
        out += [cls(a, b) for i, j in _splits(size)
                for a in formulas(i, scope, species, quantifiers,
                                  species_binders)
                for b in formulas(j, scope, species, quantifiers,
                                  species_binders)]
    if quantifiers and size > 1:
        var = f"x{len(scope) + 1}"
        for body in formulas(size - 1, scope + (var,), species,
                             quantifiers - 1, species_binders):
            out += [Exists(var, Sort.NAT, body), Forall(var, Sort.NAT, body)]
        if species_binders:
            name = species_binder_name(SPECIES_INDEX)
            for body in formulas(size - 1, scope, species + (SPECIES_INDEX,),
                                 quantifiers - 1, species_binders - 1):
                out += [Exists(name, Sort.SPECIES, body),
                        Forall(name, Sort.SPECIES, body)]
    return tuple(out)


def closed_formulas(max_size: int) -> list:
    return [f for size in range(1, max_size + 1)
            for f in formulas(size, (), (), 2, 1)]


def check(f, orientation: Orientation) -> list[str]:
    """What f breaks in orientation, as readable lines; [] when nothing."""
    config = TranslationConfig(Expansion.MACRO, orientation)
    plain = collapse_structure(orientation, sentinel_true=False)
    absorbing = collapse_structure(orientation, sentinel_true=True)
    broken = []
    if not is_closed(f):
        broken.append("open")
    source, target = Language.SOURCE, Language.TARGET
    if not alpha_equal(parse_formula(format_formula(f, source), source), f):
        broken.append("source round trip")
    t = translate(f, config)
    check_formula(t, target)
    if not alpha_equal(parse_formula(format_formula(t, target), target), t):
        broken.append("target round trip")
    if eval_formula(f, plain, source) != eval_formula(t, plain, target):
        broken.append("collapse")
    if not eval_formula(t, absorbing, target):
        broken.append("absorption")
    if type(f) in CONNECTIVES:
        parts = type(f)(translate(f.left, config), translate(f.right, config))
        if format_formula(parts, target) != format_formula(t, target):
            broken.append("homomorphism")
    return [f"{orientation.value} {format_formula(f, source)}: {what}"
            for what in broken]


@pytest.mark.parametrize("orientation", list(Orientation),
                         ids=lambda o: o.value)
def test_every_small_formula(orientation):
    broken = [line for f in closed_formulas(MAX_SIZE)
              for line in check(f, orientation)]
    assert broken == []


def test_the_enumerator_lists_distinct_formulas_of_every_source_class():
    assert [len(formulas(size, (), (), 2, 1))
            for size in range(1, MAX_SIZE + 1)] == COUNTS
    listed = closed_formulas(MAX_SIZE)
    assert len(set(listed)) == len(listed)
    shown = {type(node) for f in listed for node, _, _ in scoped(f)}
    assert shown == {Var, NatConst, Add, Mul, Pair, Succ, SpeciesVar,
                     SpeciesConst, Bottom, Eq, Lt, Apart, In, SpeciesEq,
                     And, Or, Implies, Exists, Forall}


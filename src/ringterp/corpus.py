"""Deterministic corpus of random closed source formulas.

The collapse and absorption checks need a pile of closed source
formulas and a structure to evaluate them over.  Formulas are drawn
from a seeded generator, so the corpus is reproducible byte for byte;
the default structure has nat domain {0, 1, 2, 3} and two singleton
species constants with extensions {1} and {2}, encoded from small
stabilized runs.

Shapes are kept inside what the bounded evaluator can decide: formula
depth at most 4, at most 3 quantifiers of which at most one binds a
species, membership elements are variables or numerals within the nat
domain, and pairing is applied to numerals only (open pair terms have
no ring translation).
"""

from __future__ import annotations

import random

from .encoder import encode_stabilized
from .evaluate import FiniteStructure
from .syntax import (
    Add, And, Apart, BOT, Eq, Exists, Forall, Formula, Implies, In, Lt, Mul,
    NatConst, Or, Pair, Sort, SpeciesConst, SpeciesEq, SpeciesRef, SpeciesVar,
    Succ, Term, Var, is_closed, species_binder_name,
)
from .translate import Orientation

NAT_DOMAIN = (0, 1, 2, 3)

# species constant index -> (stabilization moment, stabilized value)
SPECIES_SINGLETONS = {1: (2, 1), 2: (3, 2)}

DEFAULT_SEED = 20240814


def collapse_structure(orientation: Orientation = Orientation.AS_WRITTEN,
                       sentinel_true: bool = False) -> FiniteStructure:
    """The structure the shipped corpus is evaluated over."""
    species = {
        index: encode_stabilized(moment, value)
        for index, (moment, value) in SPECIES_SINGLETONS.items()
    }
    return FiniteStructure(NAT_DOMAIN, species, orientation,
                           sentinel_true=sentinel_true)


class _FormulaGen:
    """One random formula; fresh-name counters are per instance."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.nat_counter = 0
        self.species_counter = 0

    def term(self, scope: list[str], depth: int) -> Term:
        r = self.rng
        if depth <= 0 or r.random() < 0.45:
            if scope and r.random() < 0.6:
                return Var(r.choice(scope), Sort.NAT)
            return NatConst(r.randrange(0, 4))
        pick = r.randrange(4)
        if pick == 0:
            return Add(self.term(scope, depth - 1), self.term(scope, depth - 1))
        if pick == 1:
            return Mul(self.term(scope, depth - 1), self.term(scope, depth - 1))
        if pick == 2:
            return Succ(self.term(scope, depth - 1))
        return Pair(NatConst(r.randrange(0, 4)), NatConst(r.randrange(0, 4)))

    def species_ref(self, species_scope: list[int]) -> SpeciesRef:
        refs: list[SpeciesRef] = [SpeciesVar(i) for i in species_scope]
        refs.extend(SpeciesConst(i) for i in sorted(SPECIES_SINGLETONS))
        return self.rng.choice(refs)

    def in_element(self, scope: list[str]) -> Term:
        r = self.rng
        if scope and r.random() < 0.7:
            return Var(r.choice(scope), Sort.NAT)
        return NatConst(r.randrange(0, max(NAT_DOMAIN) + 1))

    def atom(self, scope: list[str], species_scope: list[int]) -> Formula:
        r = self.rng
        roll = r.random()
        if roll < 0.28:
            return Eq(self.term(scope, 2), self.term(scope, 2))
        if roll < 0.52:
            return Lt(self.term(scope, 2), self.term(scope, 2))
        if roll < 0.82:
            return In(self.in_element(scope), self.species_ref(species_scope))
        if roll < 0.92:
            return SpeciesEq(self.species_ref(species_scope),
                             self.species_ref(species_scope))
        if roll < 0.97:
            return Apart(self.term(scope, 1), self.term(scope, 1))
        return BOT

    def formula(self, depth: int, scope: list[str], species_scope: list[int],
                quants: int, species_quants: int) -> Formula:
        r = self.rng
        if depth <= 0:
            return self.atom(scope, species_scope)

        def sub() -> Formula:
            return self.formula(depth - 1, scope, species_scope, quants,
                                species_quants)

        roll = r.random()
        if roll < 0.20:
            return self.atom(scope, species_scope)
        if roll < 0.38:
            return And(sub(), sub())
        if roll < 0.56:
            return Or(sub(), sub())
        if roll < 0.68:
            return Implies(sub(), sub())
        if roll < 0.76:
            return Implies(sub(), BOT)
        if quants <= 0:
            return And(sub(), sub()) if r.random() < 0.5 else Or(sub(), sub())
        make = Exists if r.random() < 0.5 else Forall
        if species_quants > 0 and r.random() < 0.3:
            self.species_counter += 1
            index = self.species_counter
            body = self.formula(depth - 1, scope, species_scope + [index],
                                quants - 1, 0)
            return make(species_binder_name(index), Sort.SPECIES, body)
        self.nat_counter += 1
        var = f"x{self.nat_counter}"
        body = self.formula(depth - 1, scope + [var], species_scope,
                            quants - 1, species_quants)
        return make(var, Sort.NAT, body)


def corpus_formulas(count: int = 200,
                    seed: int = DEFAULT_SEED) -> list[Formula]:
    """Deterministic list of closed source formulas of depth at most 4."""
    rng = random.Random(seed)
    out: list[Formula] = []
    while len(out) < count:
        f = _FormulaGen(rng).formula(4, [], [], 3, 1)
        if not is_closed(f):
            raise AssertionError(f"corpus generated an open formula: {f!r}")
        out.append(f)
    return out

"""Translation of two-sorted arithmetic into the language of ordered rings.

The translation sends every formula of arithmetic-with-species to a
formula about reals built around a sentinel disjunction

    (or (= y 0) (apart y 0))

for a fixed fresh real variable y (the sentinel).  Atomic facts are
weakened to "fact or sentinel", absurdity becomes the sentinel itself,
and membership of n in a species becomes a statement about a pair of
reals u, v coding the species as a quotient: the membership atom is
(not (= (* n u) v)) -> sentinel in the as-written orientation, with the
roles of u and v swapped by the quotient-normalized orientation.
Species equality unfolds to the translated pointwise biconditional.
The connectives pass through unchanged, so the translation is a
homomorphism on formula structure.

Quantifiers over naturals become defined quantifiers (existsN, forallN)
that in macro mode stay as single nodes and in full mode are expanded:
existsN x becomes a real quantifier relativized by a predicate
(nat_predicate) asserting, in sentinel-weakened form, that x is at
least 1 and generates a discrete cyclic order, which is how the ring
language pins down the naturals among the reals.  Species quantifiers
bind the two coding reals (existsR/forallR in macro mode, plain real
quantifiers after expansion).

Fresh names are always chosen locally, from the node being processed
and the variable map alone, so translating a compound formula gives the
compound of the translations byte for byte.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .pairing import bounded_op
from .syntax import (
    ATOMS, Add, And, Apart, Bottom, DefinedQuant, Eq, Exists, Forall, Formula,
    Implies, In, Language, Lt, Mul, NatConst, Node, ONE, Or, Pair, QuantKind,
    RealConst, Sort, SpeciesEq, SpeciesRef, SpeciesVar, Succ, Term, Var,
    ZERO, all_var_names, check_formula, children, fresh_name, neg,
    normalize_apart, rebuild, species_binder_index, species_binder_name,
    species_indices,
)


class TranslationError(ValueError):
    """The formula or variable map cannot be translated as requested."""


class Expansion(enum.Enum):
    MACRO = "macro"
    FULL = "full"


class Orientation(enum.Enum):
    AS_WRITTEN = "as-written"
    QUOTIENT_NORMALIZED = "quotient-normalized"


# Names an orientation may be given by, on the command line and in
# structure files; "normalized" is short for "quotient-normalized".
ORIENTATION_NAMES = {
    "as-written": Orientation.AS_WRITTEN,
    "normalized": Orientation.QUOTIENT_NORMALIZED,
    "quotient-normalized": Orientation.QUOTIENT_NORMALIZED,
}


@dataclass(frozen=True)
class TranslationConfig:
    expansion: Expansion = Expansion.MACRO
    orientation: Orientation = Orientation.AS_WRITTEN


@dataclass(frozen=True)
class VarMap:
    """Names the translation may use on the target side.

    species_vars and species_consts map a species index to the pair of
    real names coding it; unmapped indices default to (u<i>, v<i>) for
    variables and (a<i>, b<i>) for constants.  The sentinel is the free
    real variable of the sentinel disjunction.  Names are never adjusted
    silently: validate_for raises when they collide with each other or
    with any variable of the formula.
    """

    species_vars: Optional[Mapping[int, tuple[str, str]]] = None
    species_consts: Optional[Mapping[int, tuple[str, str]]] = None
    sentinel: str = "y"

    def pair_for_var(self, index: int) -> tuple[str, str]:
        if self.species_vars is not None and index in self.species_vars:
            first, second = self.species_vars[index]
            return first, second
        return f"u{index}", f"v{index}"

    def pair_for_const(self, index: int) -> tuple[str, str]:
        if self.species_consts is not None and index in self.species_consts:
            first, second = self.species_consts[index]
            return first, second
        return f"a{index}", f"b{index}"

    def validate_for(self, f: Formula) -> None:
        var_idx, const_idx = species_indices(f)
        names = [self.sentinel]
        for i in sorted(var_idx):
            names.extend(self.pair_for_var(i))
        for i in sorted(const_idx):
            names.extend(self.pair_for_const(i))
        seen: set[str] = set()
        for name in names:
            if name in seen:
                raise TranslationError(
                    f"variable map assigns the name {name!r} twice"
                )
            seen.add(name)
        clash = seen & all_var_names(f)
        if clash:
            raise TranslationError(
                "variable map names collide with formula variables: "
                + ", ".join(sorted(clash))
            )


# ---------------------------------------------------------------------------
# Sentinel and the naturals-among-the-reals predicate


def sentinel_formula(name: str = "y") -> Formula:
    """The sentinel disjunction (or (= name 0) (apart name 0))."""
    y = Var(name, Sort.REAL)
    return Or(Eq(y, ZERO), Apart(y, ZERO))


def nat_core_formula(x: str = "x", y: str = "y", u: str = "u", v: str = "v",
                     w: str = "w", w1: str = "w1") -> Formula:
    """Sentinel-weakened description of x as a positive natural.

    Relative to witnesses u, v it says, with every clause weakened to
    "... -> sentinel shape in y": x is not below 1; v = u and x * v = u
    cannot both fail (x names the ratio u / v); and any w with
    w * v = u forced is not below 1 and, when above 1, has a predecessor
    w1 (w apart from w1 or w1 * v = u + v forced fails the sentinel).
    """
    vx = Var(x, Sort.REAL)
    vu = Var(u, Sort.REAL)
    vv = Var(v, Sort.REAL)
    vw = Var(w, Sort.REAL)
    vw1 = Var(w1, Sort.REAL)
    b = sentinel_formula(y)
    ratio_clause = Implies(
        Or(neg(Eq(vv, vu)), neg(Eq(Mul(vx, vv), vu))), b
    )
    predecessor = Exists(
        w1, Sort.REAL,
        Implies(Or(Apart(vw, vw1), neg(Eq(Mul(vw1, vv), Add(vu, vv)))), b),
    )
    chain_clause = Forall(
        w, Sort.REAL,
        Implies(
            Implies(neg(Eq(Mul(vw, vv), vu)), b),
            And(Implies(Lt(vw, ONE), b), Implies(Lt(ONE, vw), predecessor)),
        ),
    )
    return And(neg(Lt(vx, ONE)), And(ratio_clause, chain_clause))


_NAT_PREDICATE_BASES = ("y", "u", "v", "w", "w1")


def nat_predicate(var: str = "x", forbidden: Iterable[str] = ()) -> Formula:
    """The predicate relativizing a real quantifier to the naturals.

    For every real y there are witnesses u, v against which var passes
    nat_core_formula.  Internal names default to y, u, v, w, w1 and are
    renamed with counter suffixes when they collide with var or with the
    forbidden names.
    """
    taken = set(forbidden) | {var}
    picked: list[str] = []
    for base in _NAT_PREDICATE_BASES:
        name = fresh_name(base, taken)
        taken.add(name)
        picked.append(name)
    y, u, v, w, w1 = picked
    core = nat_core_formula(var, y, u, v, w, w1)
    return Forall(y, Sort.REAL, Exists(u, Sort.REAL, Exists(v, Sort.REAL, core)))


# ---------------------------------------------------------------------------
# Shadow renaming for species binders


def _rename_shadowed_species(f: Node, env: Mapping[int, int],
                             in_scope: frozenset[int]) -> Node:
    """Give nested rebindings of a species index a fresh index.

    The choice of fresh index looks only at the binder's scope path and
    its own body, never at sibling subformulas, so renaming commutes
    with the connectives.
    """
    if isinstance(f, SpeciesVar):
        index = env.get(f.index, f.index)
        return f if index == f.index else SpeciesVar(index)
    if not (isinstance(f, (Exists, Forall)) and f.sort is Sort.SPECIES):
        # Terms hold no species references, so they are not visited.
        return rebuild(f, [c if isinstance(c, Term)
                           else _rename_shadowed_species(c, env, in_scope)
                           for c in children(f)])
    index = species_binder_index(f.var)
    if index in in_scope:
        used = set(in_scope) | {index}
        body_vars, body_consts = species_indices(f.body)
        used |= body_vars | body_consts
        new = 0
        while new in used:
            new += 1
    else:
        new = index
    env2 = {**env, index: new}
    body = _rename_shadowed_species(f.body, env2, in_scope | {new})
    return type(f)(species_binder_name(new), f.sort, body)


# ---------------------------------------------------------------------------
# The translation proper


def _eval_closed_nat(t: Term) -> Optional[int]:
    """Value of a closed source nat term, or None if a variable occurs.

    Raises TranslationError when a product or pair could exceed
    MAX_TERM_BITS bits.
    """
    if isinstance(t, NatConst):
        return t.value
    if isinstance(t, Var):
        return None
    if isinstance(t, Succ):
        a = _eval_closed_nat(t.arg)
        return None if a is None else a + 1
    if isinstance(t, (Add, Mul, Pair)):
        a = _eval_closed_nat(t.left)
        b = _eval_closed_nat(t.right)
        if a is None or b is None:
            return None
        if isinstance(t, Add):
            return a + b
        try:
            return bounded_op("*" if isinstance(t, Mul) else "pair", a, b)
        except OverflowError as exc:
            raise TranslationError(str(exc)) from None
    raise TranslationError(f"not a source term: {t!r}")


class _Translator:
    def __init__(self, vm: VarMap, config: TranslationConfig) -> None:
        self.vm = vm
        self.config = config

    def term(self, t: Term) -> Term:
        if isinstance(t, Var):
            return Var(t.name, Sort.REAL)
        if isinstance(t, NatConst):
            return t
        if isinstance(t, Succ):
            return Add(self.term(t.arg), ONE)
        if isinstance(t, Add):
            return Add(self.term(t.left), self.term(t.right))
        if isinstance(t, Mul):
            return Mul(self.term(t.left), self.term(t.right))
        if isinstance(t, Pair):
            value = _eval_closed_nat(t)
            if value is None:
                raise TranslationError(
                    "pairing of terms with variables has no ring translation;"
                    " only closed pair terms can be folded to a numeral"
                )
            return NatConst(value)
        raise TranslationError(f"not a source term: {t!r}")

    def coding_pair(self, ref: SpeciesRef) -> tuple[Term, Term]:
        first, second = self.coding_names(ref)
        if isinstance(ref, SpeciesVar):
            return Var(first, Sort.REAL), Var(second, Sort.REAL)
        return RealConst(first), RealConst(second)

    def membership(self, element: Term, ref: SpeciesRef) -> Formula:
        first, second = self.coding_pair(ref)
        if self.config.orientation is Orientation.QUOTIENT_NORMALIZED:
            first, second = second, first
        claim = Eq(Mul(self.term(element), first), second)
        return Implies(neg(claim), self.sentinel)

    @property
    def sentinel(self) -> Formula:
        return sentinel_formula(self.vm.sentinel)

    def tau(self, f: Formula) -> Formula:
        if isinstance(f, Bottom):
            return self.sentinel
        if isinstance(f, Eq):
            return Or(Eq(self.term(f.left), self.term(f.right)), self.sentinel)
        if isinstance(f, Lt):
            return Or(Lt(self.term(f.left), self.term(f.right)), self.sentinel)
        if isinstance(f, In):
            return self.membership(f.element, f.species)
        if isinstance(f, SpeciesEq):
            return self.species_eq(f.left, f.right)
        if isinstance(f, And):
            return And(self.tau(f.left), self.tau(f.right))
        if isinstance(f, Or):
            return Or(self.tau(f.left), self.tau(f.right))
        if isinstance(f, Implies):
            return Implies(self.tau(f.left), self.tau(f.right))
        if isinstance(f, (Exists, Forall)):
            exists = isinstance(f, Exists)
            if f.sort is Sort.NAT:
                kind = QuantKind.EXISTS_NAT if exists else QuantKind.FORALL_NAT
                return DefinedQuant(kind, f.var, self.tau(f.body))
            index = species_binder_index(f.var)
            first, second = self.vm.pair_for_var(index)
            kind = QuantKind.EXISTS_REAL if exists else QuantKind.FORALL_REAL
            return DefinedQuant(
                kind, first, DefinedQuant(kind, second, self.tau(f.body))
            )
        raise TranslationError(f"cannot translate {f!r}")

    def species_eq(self, left: SpeciesRef, right: SpeciesRef) -> Formula:
        forbidden = {self.vm.sentinel}
        for ref in (left, right):
            forbidden.update(self.coding_names(ref))
        x = fresh_name("x", forbidden)
        element = Var(x, Sort.NAT)
        both_ways = And(
            Implies(In(element, left), In(element, right)),
            Implies(In(element, right), In(element, left)),
        )
        return self.tau(Forall(x, Sort.NAT, both_ways))

    def coding_names(self, ref: SpeciesRef) -> tuple[str, str]:
        if isinstance(ref, SpeciesVar):
            return self.vm.pair_for_var(ref.index)
        return self.vm.pair_for_const(ref.index)


def expand_defined(f: Formula, sentinel: str = "y") -> Formula:
    """Rewrite defined quantifiers into plain real quantifiers.

    existsN x body becomes exists x (nat_predicate(x) and body), forallN
    the implication form, and existsR/forallR drop to plain quantifiers.
    The predicate's internal names avoid only the bound variable and the
    sentinel; its binders enclose nothing but the predicate itself.
    """
    if type(f) in ATOMS:
        return f
    if not isinstance(f, DefinedQuant):
        return rebuild(f, [expand_defined(c, sentinel) for c in children(f)])
    body = expand_defined(f.body, sentinel)
    if f.kind is QuantKind.EXISTS_REAL:
        return Exists(f.var, Sort.REAL, body)
    if f.kind is QuantKind.FORALL_REAL:
        return Forall(f.var, Sort.REAL, body)
    psi = nat_predicate(f.var, forbidden=(sentinel,))
    if f.kind is QuantKind.EXISTS_NAT:
        return Exists(f.var, Sort.REAL, And(psi, body))
    return Forall(f.var, Sort.REAL, Implies(psi, body))


def translate(f: Formula, vm: Optional[VarMap] = None,
              config: Optional[TranslationConfig] = None) -> Formula:
    """Translate a source formula into the ordered-ring language.

    The formula must be well sorted for the source language.  Apartness
    atoms are unfolded first, nested rebindings of a species index are
    renamed, and the variable map is checked against the (renamed)
    formula; name collisions raise TranslationError rather than being
    repaired silently.
    """
    vm = vm if vm is not None else VarMap()
    config = config if config is not None else TranslationConfig()
    check_formula(f, Language.SOURCE)
    f = normalize_apart(f)
    f = _rename_shadowed_species(f, {}, frozenset())
    vm.validate_for(f)
    out = _Translator(vm, config).tau(f)
    if config.expansion is Expansion.FULL:
        out = expand_defined(out, vm.sentinel)
    check_formula(out, Language.TARGET)
    return out

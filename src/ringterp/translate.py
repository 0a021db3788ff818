"""Translation of two-sorted arithmetic into the language of ordered rings.

The translation sends every formula of arithmetic-with-species to a
formula about reals built around a sentinel disjunction

    (or (= y 0) (apart y 0))

for a fixed fresh real variable y (the sentinel), one shared node,
SENTINEL_FORMULA, that later passes recognize by identity.  Atomic facts are
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

The names are fixed, as in the paper: y, u<i>, v<i> coding X<i> and
a<i>, b<i> coding (sconst i).  A formula using a name its translation
needs is rejected, and translating a compound formula gives the
compound of the translations byte for byte.
"""

from __future__ import annotations

import enum
from typing import Iterable, Mapping, Optional, TypeVar

from .frozen import frozen
from .pairing import bounded_op
from .syntax import (
    ATOMS, Add, And, Apart, Bottom, DefinedQuant, Eq, Exists, Forall, Formula,
    Implies, In, Language, Lt, Mul, NatConst, ONE, Or, Pair, QuantKind,
    RealConst, SENTINEL, SENTINEL_FORMULA, Sort, SpeciesEq, SpeciesRef,
    SpeciesVar, Succ, Term, Var, ZERO, all_var_names, check_formula,
    children, fresh_name, neg, rebuild, species_binder_index, species_indices,
)


T = TypeVar("T")


class TranslationError(ValueError):
    """The formula cannot be translated as requested."""


class Expansion(enum.Enum):
    MACRO = "macro"
    FULL = "full"


class Orientation(enum.Enum):
    AS_WRITTEN = "as-written"
    QUOTIENT_NORMALIZED = "quotient-normalized"

    def orient(self, first: T, second: T) -> tuple[T, T]:
        """(scaled, other) of a coding pair: membership of n reads
        n * scaled = other, with the first of the pair scaled as
        written and the second once quotient-normalized."""
        if self is Orientation.AS_WRITTEN:
            return first, second
        return second, first


# Names an orientation may be given by, on the command line and in
# structure files; "normalized" is short for "quotient-normalized".
ORIENTATION_NAMES = {
    "as-written": Orientation.AS_WRITTEN,
    "normalized": Orientation.QUOTIENT_NORMALIZED,
    "quotient-normalized": Orientation.QUOTIENT_NORMALIZED,
}


@frozen
class TranslationConfig:
    expansion: Expansion = Expansion.MACRO
    orientation: Orientation = Orientation.AS_WRITTEN


def pair_for_var(index: int) -> tuple[str, str]:
    """Names of the real variables coding species variable index."""
    return f"u{index}", f"v{index}"


def pair_for_const(index: int) -> tuple[str, str]:
    """Names of the real constants coding species constant index, which
    the finite evaluator interprets."""
    return f"a{index}", f"b{index}"


# ---------------------------------------------------------------------------
# Sentinel and the naturals-among-the-reals predicate


def sentinel_formula(name: str = SENTINEL) -> Formula:
    """The sentinel disjunction (or (= name 0) (apart name 0)); the
    shared node SENTINEL_FORMULA for the default name."""
    if name == SENTINEL:
        return SENTINEL_FORMULA
    y = Var(name, Sort.REAL)
    return Or(Eq(y, ZERO), Apart(y, ZERO))


def nat_core_formula(x: str = "x", y: str = SENTINEL, u: str = "u",
                     v: str = "v", w: str = "w", w1: str = "w1") -> Formula:
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


_NAT_PREDICATE_BASES = (SENTINEL, "u", "v", "w", "w1")


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
# The translation proper


def _eval_closed_nat(t: Term) -> Optional[int]:
    """Value of a closed source nat term, or None if a variable occurs;
    raises TranslationError when a product or pair could exceed
    MAX_TERM_BITS bits."""
    cls = type(t)
    if cls is NatConst:
        return t.value
    if cls is Var:
        return None
    args = [_eval_closed_nat(c) for c in children(t)]
    if None in args:
        return None
    if cls is Succ:
        return args[0] + 1
    if cls is Add:
        return args[0] + args[1]
    try:
        return bounded_op("*" if cls is Mul else "pair", *args)
    except OverflowError as exc:
        raise TranslationError(str(exc)) from None


class _Translator:
    """One pre-order pass over a well-sorted source formula.

    tau(f, env, in_scope) unfolds apartness where it meets it.  env maps
    a species index to its renamed index, in_scope holds the renamed
    indices bound on the path; a binder whose index is in scope gets the
    least index outside in_scope and its own body's species indices, so
    renaming never looks at siblings and commutes with the connectives.
    It records the formula's variable names in names and the names it
    emits in coding.  A pair term that cannot be folded adds its names
    and the first such error is kept in error, so that the walk goes on
    to record the names of the whole formula.
    """

    def __init__(self, config: TranslationConfig) -> None:
        self.orientation = config.orientation
        self.sentinel = SENTINEL_FORMULA
        self.names: set[str] = set()
        self.coding: set[str] = {SENTINEL}
        self.error: Optional[TranslationError] = None

    def term(self, t: Term) -> Term:
        cls = type(t)
        if cls is Var:
            self.names.add(t.name)
            return Var(t.name, Sort.REAL)
        if cls is NatConst:
            return t
        if cls is Succ:
            return Add(self.term(t.arg), ONE)
        if cls is Add or cls is Mul:
            return cls(self.term(t.left), self.term(t.right))
        if cls is Pair:
            try:
                value = _eval_closed_nat(t)
                if value is None:
                    raise TranslationError(
                        "pairing of terms with variables has no ring "
                        "translation; only closed pair terms can be folded "
                        "to a numeral"
                    )
                return NatConst(value)
            except TranslationError as exc:
                self.names |= all_var_names(t)
                self.error = self.error or exc
                return ZERO  # discarded: translate raises self.error
        raise TranslationError(f"not a source term: {t!r}")

    def coding_pair(self, ref: SpeciesRef,
                    env: Mapping[int, int]) -> tuple[Term, Term]:
        if type(ref) is SpeciesVar:
            first, second = pair_for_var(env.get(ref.index, ref.index))
            self.coding.update((first, second))
            return Var(first, Sort.REAL), Var(second, Sort.REAL)
        first, second = pair_for_const(ref.index)
        self.coding.update((first, second))
        return RealConst(first), RealConst(second)

    def membership(self, element: Term, coding: tuple[Term, Term]) -> Formula:
        scaled, other = self.orientation.orient(*coding)
        return Implies(neg(Eq(Mul(element, scaled), other)), self.sentinel)

    def tau(self, f: Formula, env: Mapping[int, int],
            in_scope: frozenset[int]) -> Formula:
        cls = type(f)
        if cls is Bottom:
            return self.sentinel
        if cls is Eq or cls is Lt:
            return Or(cls(self.term(f.left), self.term(f.right)), self.sentinel)
        if cls is Apart:
            a, b = self.term(f.left), self.term(f.right)
            return Or(Or(Lt(a, b), self.sentinel), Or(Lt(b, a), self.sentinel))
        if cls is In:
            coding = self.coding_pair(f.species, env)
            return self.membership(self.term(f.element), coding)
        if cls is SpeciesEq:
            # forallN x (x in left <-> x in right); no coding name is x.
            in_left, in_right = (
                self.membership(Var("x", Sort.REAL), self.coding_pair(r, env))
                for r in (f.left, f.right))
            return DefinedQuant(QuantKind.FORALL_NAT, "x", And(
                Implies(in_left, in_right), Implies(in_right, in_left)))
        if cls is And or cls is Or or cls is Implies:
            return cls(self.tau(f.left, env, in_scope),
                       self.tau(f.right, env, in_scope))
        if cls is Exists or cls is Forall:
            exists = cls is Exists
            if f.sort is Sort.NAT:
                self.names.add(f.var)
                kind = QuantKind.EXISTS_NAT if exists else QuantKind.FORALL_NAT
                return DefinedQuant(kind, f.var,
                                    self.tau(f.body, env, in_scope))
            index = new = species_binder_index(f.var)
            if index in in_scope:
                body_vars, body_consts = species_indices(f.body)
                used = in_scope | body_vars | body_consts
                new = 0
                while new in used:
                    new += 1
            body = self.tau(f.body, {**env, index: new}, in_scope | {new})
            first, second = pair_for_var(new)
            self.coding.update((first, second))
            kind = QuantKind.EXISTS_REAL if exists else QuantKind.FORALL_REAL
            return DefinedQuant(kind, first, DefinedQuant(kind, second, body))
        raise TranslationError(f"cannot translate {f!r}")


def expand_defined(f: Formula) -> Formula:
    """Rewrite defined quantifiers into plain real quantifiers.

    existsN x body becomes exists x (nat_predicate(x) and body), forallN
    the implication form, and existsR/forallR drop to plain quantifiers.
    The predicate's internal names avoid only the bound variable and the
    sentinel; its binders enclose nothing but the predicate itself.
    """
    if type(f) in ATOMS:
        return f
    if type(f) is not DefinedQuant:
        return rebuild(f, [expand_defined(c) for c in children(f)])
    body = expand_defined(f.body)
    if f.kind is QuantKind.EXISTS_REAL:
        return Exists(f.var, Sort.REAL, body)
    if f.kind is QuantKind.FORALL_REAL:
        return Forall(f.var, Sort.REAL, body)
    psi = nat_predicate(f.var, forbidden=(SENTINEL,))
    if f.kind is QuantKind.EXISTS_NAT:
        return Exists(f.var, Sort.REAL, And(psi, body))
    return Forall(f.var, Sort.REAL, Implies(psi, body))


def translate(f: Formula,
              config: Optional[TranslationConfig] = None) -> Formula:
    """Translate a source formula into the ordered-ring language.

    The formula must be well sorted for the source language.  One pass,
    _Translator.tau, then unfolds apartness atoms, renames nested
    rebindings of a species index and translates.  The first error wins
    in this order: the source SortError; a formula variable named like
    one the translation emits (y, u<i>, v<i>, a<i> or b<i>), which is
    never renamed silently; the first pair term that cannot be folded.
    """
    config = config if config is not None else TranslationConfig()
    check_formula(f, Language.SOURCE)
    translator = _Translator(config)
    out = translator.tau(f, {}, frozenset())
    clash = translator.coding & translator.names
    if clash:
        raise TranslationError(
            "variable map names collide with formula variables: "
            + ", ".join(sorted(clash))
        )
    if translator.error is not None:
        raise translator.error
    if config.expansion is Expansion.FULL:
        out = expand_defined(out)
    check_formula(out, Language.TARGET)
    return out

"""Formula and term ASTs shared by the two languages of the toolkit.

The source language is first-order arithmetic over the naturals extended
with species (set) variables and constants: terms are built from numerals,
nat-sorted variables, +, *, succ and a pairing function, and formulas add
membership (n in X) and species equality to the usual connectives and
quantifiers.  The target language is the elementary language of ordered
rings: all variables range over reals, the constants 0 and 1 (and numerals
as sums of 1) are available, and species disappear in favour of pairs of
real variables or constants.  Defined quantifiers (existsN, forallN,
existsR, forallR) are target-side macro nodes that a full expansion
rewrites into plain real quantifiers.

All nodes are immutable dataclasses compared structurally.  Negation is
not a node: (not f) is sugar for (imp f (bot)).  Apartness is kept as a
node of its own but is definitionally equal to (or (< a b) (< b a));
normalize_apart performs that unfolding.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, fields, replace
from operator import attrgetter
from typing import Callable, Iterable, Optional, Sequence, Union


class Sort(enum.Enum):
    NAT = "Nat"
    SPECIES = "Species"
    REAL = "Real"


class Language(enum.Enum):
    SOURCE = "source"
    TARGET = "target"

    @property
    def term_sort(self) -> Sort:
        """Sort of every term variable of the language."""
        return Sort.NAT if self is Language.SOURCE else Sort.REAL


class SortError(ValueError):
    """A term or formula breaks the sorting rules of its language."""


_SPECIES_BINDER = re.compile(r"^X(\d+)$")


def species_binder_index(name: str) -> int:
    """Index i of a species binder written X<i>; raises SortError otherwise."""
    m = _SPECIES_BINDER.match(name)
    if m is None:
        raise SortError(f"species binder must look like X0, X1, ...: got {name!r}")
    return int(m.group(1))


def species_binder_name(index: int) -> str:
    return f"X{index}"


# ---------------------------------------------------------------------------
# Terms


class Term:
    __slots__ = ()


@dataclass(frozen=True)
class Var(Term):
    name: str
    sort: Sort


@dataclass(frozen=True)
class NatConst(Term):
    """Numeral; read as a natural in the source and as its dyadic embedding
    in the target."""

    value: int

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValueError(f"numerals are nonnegative, got {self.value}")


@dataclass(frozen=True)
class RealConst(Term):
    """Named real constant of the target language."""

    name: str


@dataclass(frozen=True)
class Add(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Mul(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Pair(Term):
    """Cantor pairing applied to two nat terms (source language only)."""

    left: Term
    right: Term


@dataclass(frozen=True)
class Succ(Term):
    arg: Term


ZERO = NatConst(0)
ONE = NatConst(1)


# ---------------------------------------------------------------------------
# Species references


class SpeciesRef:
    __slots__ = ()


@dataclass(frozen=True)
class SpeciesVar(SpeciesRef):
    index: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("species indices are nonnegative")


@dataclass(frozen=True)
class SpeciesConst(SpeciesRef):
    index: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("species indices are nonnegative")


# ---------------------------------------------------------------------------
# Formulas


class Formula:
    __slots__ = ()


@dataclass(frozen=True)
class Bottom(Formula):
    pass


BOT = Bottom()


@dataclass(frozen=True)
class Eq(Formula):
    left: Term
    right: Term


@dataclass(frozen=True)
class Lt(Formula):
    left: Term
    right: Term


@dataclass(frozen=True)
class Apart(Formula):
    """Apartness; definitionally (or (< a b) (< b a))."""

    left: Term
    right: Term


@dataclass(frozen=True)
class In(Formula):
    element: Term
    species: SpeciesRef


@dataclass(frozen=True)
class SpeciesEq(Formula):
    left: SpeciesRef
    right: SpeciesRef


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


class QuantKind(enum.Enum):
    EXISTS_NAT = "existsN"
    FORALL_NAT = "forallN"
    EXISTS_REAL = "existsR"
    FORALL_REAL = "forallR"


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    sort: Sort
    body: Formula


@dataclass(frozen=True)
class Forall(Formula):
    var: str
    sort: Sort
    body: Formula


@dataclass(frozen=True)
class DefinedQuant(Formula):
    """Macro quantifier of the target language.

    existsN/forallN relativize a real variable to the naturals, existsR and
    forallR are the real quantifiers themselves; expansion replaces all four
    with plain Exists/Forall over Real.
    """

    kind: QuantKind
    var: str
    body: Formula


def neg(f: Formula) -> Formula:
    """Negation as implication into absurdity."""
    return Implies(f, BOT)


# ---------------------------------------------------------------------------
# Generic traversal
#
# Structural passes are written against one child map, the children /
# rebuild pair of Uniplate (Mitchell and Runciman, "Uniform boilerplate
# and list processing", 2007): a pass handles the nodes it cares about
# and hands every other node to children and rebuild.  Every node class
# is a frozen dataclass whose data fields (names, sorts, numerals,
# quantifier kinds) precede its children (terms, species references,
# subformulas).  The per-class accessors are read off the fields once,
# here, and not on every call: the passes run on every translation.

Node = Union[Term, SpeciesRef, Formula]

_QUANTIFIERS = (Exists, Forall, DefinedQuant)


def _getter(names: list[str]) -> Callable[[Node], tuple]:
    """Function returning the named fields of a node as a tuple."""
    if not names:
        return lambda node: ()
    if len(names) == 1:
        get = attrgetter(names[0])
        return lambda node: (get(node),)
    return attrgetter(*names)


def _shapes() -> tuple[dict, dict, frozenset]:
    """Per node class, the getters of its children and of its data; and
    the formula classes without subformulas."""
    kids_of: dict[type, Callable[[Node], tuple[Node, ...]]] = {}
    data_of: dict[type, Callable[[Node], tuple]] = {}
    atoms: set[type] = set()
    for base in (Term, SpeciesRef, Formula):
        for cls in base.__subclasses__():
            names = [f.name for f in fields(cls)]
            types = [f.type for f in fields(cls)]
            kids = [name for name, t in zip(names, types)
                    if t in ("Term", "SpeciesRef", "Formula")]
            split = len(names) - len(kids)
            if names[split:] != kids:
                raise TypeError(
                    f"{cls.__name__}: data fields must precede children")
            kids_of[cls] = _getter(kids)
            data_of[cls] = _getter(names[:split])
            if base is Formula and "Formula" not in types:
                atoms.add(cls)
    return kids_of, data_of, frozenset(atoms)


# ATOMS: the formula classes where passes over formula structure stop.
_CHILDREN, _DATA, ATOMS = _shapes()


def children(node: Node) -> tuple[Node, ...]:
    """The terms, species references and subformulas directly below
    node, in field order."""
    try:
        get = _CHILDREN[type(node)]
    except KeyError:
        raise SortError(f"not a term or formula: {node!r}") from None
    return get(node)


def rebuild(node: Node, kids: Sequence[Node]) -> Node:
    """node with its children replaced by kids, given in the order of
    children(node); node itself when every child is the same object, so
    passes share the subtrees they leave alone."""
    cls = type(node)
    for old, new in zip(_CHILDREN[cls](node), kids):
        if old is not new:
            return cls(*_DATA[cls](node), *kids)
    return node


def _bound_sort(q: Formula) -> Sort:
    """Sort of the variable a quantifier binds; defined quantifiers bind
    reals."""
    return Sort.REAL if type(q) is DefinedQuant else q.sort


# ---------------------------------------------------------------------------
# Well-sortedness


def term_sort(t: Term, language: Language) -> Sort:
    """Sort of t in the given language; raises SortError when t is illegal."""
    ambient = language.term_sort
    if isinstance(t, Var):
        if t.sort is not ambient:
            raise SortError(
                f"variable {t.name!r} has sort {t.sort.value}, "
                f"but {language.value} terms have sort {ambient.value}"
            )
        return ambient
    if isinstance(t, NatConst):
        return ambient
    if isinstance(t, RealConst):
        if language is not Language.TARGET:
            raise SortError(f"real constant {t.name!r} is target-language only")
        return Sort.REAL
    if isinstance(t, (Add, Mul)):
        term_sort(t.left, language)
        term_sort(t.right, language)
        return ambient
    if isinstance(t, Pair):
        if language is not Language.SOURCE:
            raise SortError("pairing is a source-language operation")
        term_sort(t.left, language)
        term_sort(t.right, language)
        return Sort.NAT
    if isinstance(t, Succ):
        if language is not Language.SOURCE:
            raise SortError("succ is a source-language operation")
        term_sort(t.arg, language)
        return Sort.NAT
    raise SortError(f"not a term: {t!r}")


def check_formula(f: Formula, language: Language) -> None:
    """Raise SortError unless f is a well-sorted formula of the language."""
    src = language is Language.SOURCE
    if isinstance(f, Bottom):
        return
    if isinstance(f, (Eq, Lt, Apart)):
        term_sort(f.left, language)
        term_sort(f.right, language)
        return
    if isinstance(f, In):
        if not src:
            raise SortError("membership atoms are source-language only")
        term_sort(f.element, language)
        if not isinstance(f.species, SpeciesRef):
            raise SortError(f"not a species reference: {f.species!r}")
        return
    if isinstance(f, SpeciesEq):
        if not src:
            raise SortError("species equality is source-language only")
        for ref in (f.left, f.right):
            if not isinstance(ref, SpeciesRef):
                raise SortError(f"not a species reference: {ref!r}")
        return
    if isinstance(f, (And, Or, Implies)):
        check_formula(f.left, language)
        check_formula(f.right, language)
        return
    if isinstance(f, (Exists, Forall)):
        if src:
            if f.sort is Sort.SPECIES:
                species_binder_index(f.var)
            elif f.sort is not Sort.NAT:
                raise SortError(
                    f"source quantifiers bind Nat or Species, got {f.sort.value}"
                )
        elif f.sort is not Sort.REAL:
            raise SortError(f"target quantifiers bind Real, got {f.sort.value}")
        check_formula(f.body, language)
        return
    if isinstance(f, DefinedQuant):
        if src:
            raise SortError("defined quantifiers belong to the target language")
        check_formula(f.body, language)
        return
    raise SortError(f"not a formula: {f!r}")


def infer_term_sort(t: Term) -> Optional[Sort]:
    """Sort a term commits to, or None when only numerals occur."""
    if isinstance(t, Var):
        return t.sort
    if isinstance(t, NatConst):
        return None
    if isinstance(t, RealConst):
        return Sort.REAL
    if isinstance(t, (Pair, Succ)):
        return Sort.NAT
    if isinstance(t, (Add, Mul)):
        lo = infer_term_sort(t.left)
        hi = infer_term_sort(t.right)
        if lo is not None and hi is not None and lo is not hi:
            raise SortError(f"mixed-sort term: {t!r}")
        return lo or hi
    raise SortError(f"not a term: {t!r}")


# ---------------------------------------------------------------------------
# Variable bookkeeping


@dataclass(frozen=True)
class FreeVars:
    nat: frozenset[str]
    species: frozenset[int]
    real: frozenset[str]


def term_var_names(t: Term) -> frozenset[str]:
    out: set[str] = set()

    def walk(t: Term) -> None:
        if isinstance(t, Var):
            out.add(t.name)
        elif isinstance(t, (Add, Mul, Pair)):
            walk(t.left)
            walk(t.right)
        elif isinstance(t, Succ):
            walk(t.arg)

    walk(t)
    return frozenset(out)


def free_vars(f: Formula) -> FreeVars:
    nat: set[str] = set()
    species: set[int] = set()
    real: set[str] = set()

    def walk(node: Node, bound: frozenset[str], bspec: frozenset[int]) -> None:
        if isinstance(node, Var):
            if node.name not in bound:
                (nat if node.sort is Sort.NAT else real).add(node.name)
        elif isinstance(node, SpeciesVar):
            if node.index not in bspec:
                species.add(node.index)
        elif isinstance(node, _QUANTIFIERS):
            if _bound_sort(node) is Sort.SPECIES:
                walk(node.body, bound, bspec | {species_binder_index(node.var)})
            else:
                walk(node.body, bound | {node.var}, bspec)
        else:
            for child in children(node):
                walk(child, bound, bspec)

    walk(f, frozenset(), frozenset())
    return FreeVars(frozenset(nat), frozenset(species), frozenset(real))


def is_closed(f: Formula) -> bool:
    fv = free_vars(f)
    return not (fv.nat or fv.species or fv.real)


def all_var_names(f: Formula) -> frozenset[str]:
    """Every term-variable name occurring in f, free or bound, plus all
    non-species binder names."""
    names: set[str] = set()
    stack: list[Node] = [f]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            names.add(node.name)
        elif (isinstance(node, _QUANTIFIERS)
              and _bound_sort(node) is not Sort.SPECIES):
            names.add(node.var)
        stack.extend(children(node))
    return frozenset(names)


def species_indices(f: Formula) -> tuple[frozenset[int], frozenset[int]]:
    """(variable indices, constant indices) mentioned anywhere in f,
    including bound species variables."""
    var_idx: set[int] = set()
    const_idx: set[int] = set()

    def walk(node: Node) -> None:
        if isinstance(node, SpeciesVar):
            var_idx.add(node.index)
        elif isinstance(node, SpeciesConst):
            const_idx.add(node.index)
        elif not isinstance(node, Term):  # terms hold no species
            if (isinstance(node, _QUANTIFIERS)
                    and _bound_sort(node) is Sort.SPECIES):
                var_idx.add(species_binder_index(node.var))
            for child in children(node):
                walk(child)

    walk(f)
    return frozenset(var_idx), frozenset(const_idx)


def fresh_name(base: str, forbidden: Iterable[str]) -> str:
    """base when unused, else base_1, base_2, ... (deterministic)."""
    taken = set(forbidden)
    if base not in taken:
        return base
    i = 1
    while f"{base}_{i}" in taken:
        i += 1
    return f"{base}_{i}"


# ---------------------------------------------------------------------------
# Substitution


def substitute_term(t: Term, name: str, replacement: Term) -> Term:
    if isinstance(t, Var):
        return replacement if t.name == name else t
    return rebuild(t, [substitute_term(c, name, replacement)
                       for c in children(t)])


def substitute(f: Formula, name: str, sort: Sort, replacement: Term) -> Formula:
    """Capture-avoiding substitution of replacement for the free variable
    (name, sort); clashing binders are renamed with a counter suffix."""
    rsort = infer_term_sort(replacement)
    if rsort is not None and rsort is not sort:
        raise SortError(
            f"cannot substitute a {rsort.value} term for the "
            f"{sort.value} variable {name!r}"
        )
    repl_names = term_var_names(replacement)

    def walk(node: Node) -> Node:
        if isinstance(node, Term):
            return substitute_term(node, name, replacement)
        if isinstance(node, _QUANTIFIERS):
            binder_sort = _bound_sort(node)
            if binder_sort is not Sort.SPECIES:
                if node.var == name:
                    return node
                if node.var in repl_names:
                    forbidden = repl_names | all_var_names(node.body) | {name}
                    new = fresh_name(node.var, forbidden)
                    body = substitute(node.body, node.var, binder_sort,
                                      Var(new, binder_sort))
                    return replace(node, var=new, body=walk(body))
        return rebuild(node, [walk(child) for child in children(node)])

    return walk(f)


# ---------------------------------------------------------------------------
# Normalization and comparison


def normalize_apart(f: Formula) -> Formula:
    """Unfold every apartness atom into its definition (or (< a b) (< b a))."""
    if isinstance(f, Apart):
        return Or(Lt(f.left, f.right), Lt(f.right, f.left))
    if type(f) in ATOMS:
        return f
    return rebuild(f, [normalize_apart(c) for c in children(f)])


def alpha_equal(f: Formula, g: Formula) -> bool:
    """Structural equality up to renaming of bound variables."""

    # ma and mb map the bound term-variable names (str) and species
    # indices (int) of each side to the depth of their binder.
    def walk(a: Node, b: Node, ma: dict, mb: dict, depth: int) -> bool:
        cls = type(a)
        if cls is not type(b):
            return False
        if cls is Var:
            ka, kb = ma.get(a.name), mb.get(b.name)
            if ka is None and kb is None:
                return a.name == b.name and a.sort is b.sort
            return ka is not None and ka == kb and a.sort is b.sort
        if cls is SpeciesVar:
            ka, kb = ma.get(a.index), mb.get(b.index)
            if ka is None and kb is None:
                return a.index == b.index
            return ka is not None and ka == kb
        if cls in _QUANTIFIERS:
            sort = _bound_sort(a)
            if sort is not _bound_sort(b) or (
                    cls is DefinedQuant and a.kind is not b.kind):
                return False
            if sort is Sort.SPECIES:
                ma = {**ma, species_binder_index(a.var): depth}
                mb = {**mb, species_binder_index(b.var): depth}
            else:
                ma = {**ma, a.var: depth}
                mb = {**mb, b.var: depth}
            return walk(a.body, b.body, ma, mb, depth + 1)
        # Besides quantifiers, only leaves carry data (names, numerals,
        # indices), so a leaf compares by ==, any other node by children.
        kids = children(a)
        if not kids:
            return a == b
        for x, y in zip(kids, children(b)):
            if not walk(x, y, ma, mb, depth):
                return False
        return True

    # Structurally equal formulas are alpha-equal, and dataclass equality
    # settles that common case (a print/parse round trip) faster than
    # the walk.
    return f == g or walk(f, g, {}, {}, 0)

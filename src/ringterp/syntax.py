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

Every node class is built from one table, _NODES, as an immutable
slotted class compared and hashed by its class and fields.  The
translation's sentinel (or (= y 0) (apart y 0)) is one shared node,
SENTINEL_FORMULA, which the target sort check skips.  Negation is
not a node: (not f) is sugar for (imp f (bot)).  Apartness is kept as a
node of its own but is definitionally equal to (or (< a b) (< b a));
normalize_apart performs that unfolding.
"""

from __future__ import annotations

import enum
import re
from operator import attrgetter
from typing import Callable, Iterable, Optional, Sequence

from .frozen import Frozen, compile_methods, frozen


class Sort(enum.Enum):
    NAT = "Nat"
    SPECIES = "Species"
    REAL = "Real"


class Language(enum.Enum):
    SOURCE = "source"
    TARGET = "target"


class QuantKind(enum.Enum):
    EXISTS_NAT = "existsN"
    FORALL_NAT = "forallN"
    EXISTS_REAL = "existsR"
    FORALL_REAL = "forallR"


# The sort of every term variable of each language.
AMBIENT_SORT = {Language.SOURCE: Sort.NAT, Language.TARGET: Sort.REAL}


class SortError(ValueError):
    """A term or formula breaks the sorting rules of its language."""


_SPECIES_BINDER = re.compile(r"X([0-9]+)")


def species_binder_index(name: str) -> int:
    """Index i of a species binder written X<i>, i in ASCII digits; raises
    SortError otherwise."""
    m = _SPECIES_BINDER.fullmatch(name)
    if m is None:
        raise SortError(f"species binder must look like X0, X1, ...: got {name!r}")
    return int(m.group(1))


def species_binder_name(index: int) -> str:
    return f"X{index}"


# ---------------------------------------------------------------------------
# Nodes


class Node(Frozen):
    """Immutable AST node, equal to another node of the same class with
    equal fields.  Each concrete class is built from its row of _NODES."""

    __slots__ = ()
    data_fields: tuple[str, ...] = ()
    child_kinds: tuple[type, ...] = ()


class Term(Node):
    __slots__ = ()


class SpeciesRef(Node):
    __slots__ = ()


class Formula(Node):
    __slots__ = ()


# One row per node class: name, base, data fields (names, sorts, numerals,
# indices, quantifier kinds), children as (field, kind) pairs, and the
# message of the ValueError a negative data field raises, if any.  A
# node's constructor takes its data, then its children, in row order.
_NODES = (
    ("Var", Term, ("name", "sort"), ()),
    # Numeral; read as a natural in the source and as its dyadic embedding
    # in the target.
    ("NatConst", Term, ("value",), (), "numerals are nonnegative, got {}"),
    # Named real constant of the target language.
    ("RealConst", Term, ("name",), ()),
    ("Add", Term, (), (("left", Term), ("right", Term))),
    ("Mul", Term, (), (("left", Term), ("right", Term))),
    # Cantor pairing applied to two nat terms (source language only).
    ("Pair", Term, (), (("left", Term), ("right", Term))),
    ("Succ", Term, (), (("arg", Term),)),
    ("SpeciesVar", SpeciesRef, ("index",), (),
     "species indices are nonnegative"),
    ("SpeciesConst", SpeciesRef, ("index",), (),
     "species indices are nonnegative"),
    ("Bottom", Formula, (), ()),
    ("Eq", Formula, (), (("left", Term), ("right", Term))),
    ("Lt", Formula, (), (("left", Term), ("right", Term))),
    # Apartness; definitionally (or (< a b) (< b a)).
    ("Apart", Formula, (), (("left", Term), ("right", Term))),
    ("In", Formula, (), (("element", Term), ("species", SpeciesRef))),
    ("SpeciesEq", Formula, (), (("left", SpeciesRef), ("right", SpeciesRef))),
    ("And", Formula, (), (("left", Formula), ("right", Formula))),
    ("Or", Formula, (), (("left", Formula), ("right", Formula))),
    ("Implies", Formula, (), (("left", Formula), ("right", Formula))),
    ("Exists", Formula, ("var", "sort"), (("body", Formula),)),
    ("Forall", Formula, ("var", "sort"), (("body", Formula),)),
    # Macro quantifier of the target language: existsN/forallN relativize
    # a real variable to the naturals, existsR and forallR are the real
    # quantifiers themselves; expansion replaces all four with plain
    # Exists/Forall over Real.
    ("DefinedQuant", Formula, ("kind", "var"), (("body", Formula),)),
)


def _node_class(name: str, base: type, data: tuple[str, ...],
                kids: tuple[tuple[str, type], ...],
                negative: Optional[str] = None) -> type:
    """The class of one row of _NODES; its compiled methods name the fields,
    and equality, hashing and repr recurse one frame per level of
    nesting."""
    fields = data + tuple(field for field, _ in kids)
    cls = type(name, (base,), {
        "__slots__": fields,
        "data_fields": data,
        "child_kinds": tuple(kind for _, kind in kids),
    })
    check = None
    if negative:
        get = attrgetter(fields[0])

        def check(node: Node) -> None:
            if get(node) < 0:
                raise ValueError(negative.format(get(node)))

    compile_methods(cls, fields, check)
    return cls


_CLASSES = {row[0]: _node_class(*row) for row in _NODES}
globals().update(_CLASSES)

ZERO = NatConst(0)
ONE = NatConst(1)
BOT = Bottom()

# The sentinel's real variable and its disjunction, one shared node.
SENTINEL = "y"
SENTINEL_FORMULA = Or(Eq(Var(SENTINEL, Sort.REAL), ZERO),
                      Apart(Var(SENTINEL, Sort.REAL), ZERO))


def neg(f: Formula) -> Formula:
    """Negation as implication into absurdity."""
    return Implies(f, BOT)


# ---------------------------------------------------------------------------
# Generic traversal
#
# Structural passes are written against one child map, the children /
# rebuild pair of Uniplate (Mitchell and Runciman, "Uniform boilerplate
# and list processing", 2007): a pass handles the nodes it cares about
# and hands every other node to children and rebuild.  The per-class
# accessors are built from _NODES once, here, and not on every call: the
# passes run on every translation.

_QUANTIFIERS = (Exists, Forall, DefinedQuant)


def _getter(names: Sequence[str]) -> Callable[[Node], tuple]:
    """Function returning the named fields of a node as a tuple."""
    if not names:
        return lambda node: ()
    if len(names) == 1:
        get = attrgetter(names[0])
        return lambda node: (get(node),)
    return attrgetter(*names)


# A node's slots are its data fields, then its children.
_CHILDREN = {cls: _getter(cls.__slots__[len(cls.data_fields):])
             for cls in _CLASSES.values()}
_DATA = {cls: _getter(cls.data_fields) for cls in _CLASSES.values()}

# The formula classes where passes over formula structure stop.
ATOMS = frozenset(cls for cls in _CLASSES.values() if issubclass(cls, Formula)
                  and Formula not in cls.child_kinds)


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
#
# One pre-order walker checks every child against its kind in _NODES.
# The languages share every class but those of _ONE_LANGUAGE, listed
# with their language and the SortError the other one raises for them;
# a variable has the ambient sort; a quantifier binds a sort of _BINDERS.
_ONE_LANGUAGE = {
    RealConst: (Language.TARGET,
                "real constant {0.name!r} is target-language only"),
    DefinedQuant: (Language.TARGET,
                   "defined quantifiers belong to the target language"),
    Pair: (Language.SOURCE, "pairing is a source-language operation"),
    Succ: (Language.SOURCE, "succ is a source-language operation"),
    In: (Language.SOURCE, "membership atoms are source-language only"),
    SpeciesEq: (Language.SOURCE, "species equality is source-language only"),
}
_BINDERS = {
    Language.SOURCE: ((Sort.NAT, Sort.SPECIES),
                      "source quantifiers bind Nat or Species, got {}"),
    Language.TARGET: ((Sort.REAL,), "target quantifiers bind Real, got {}"),
}
_KIND_NAMES = {Term: "term", SpeciesRef: "species reference",
               Formula: "formula"}
# Per language, the getter and the kinds of the children of each of its
# classes, last child first as the walker's stack takes them.
_SHAPES = {language: {
    cls: cls.child_kinds and (
        _getter(cls.__slots__[len(cls.data_fields):][::-1]),
        cls.child_kinds[::-1])
    for cls in _CLASSES.values()
    if _ONE_LANGUAGE.get(cls, (language,))[0] is language
} for language in Language}


def check_formula(f: Formula, language: Language | str) -> None:
    """Raise SortError unless f is a well-sorted formula of the language."""
    _check(f, Formula, Language(language))


def term_sort(t: Term, language: Language) -> Sort:
    """The ambient sort, which every legal term has; raises SortError
    when t is illegal in the language."""
    _check(t, Term, language)
    return AMBIENT_SORT[language]


def _check(node: Node, kind: type, language: Language) -> None:
    """Raise the first SortError, in pre-order, of node at a position of
    the given kind in language."""
    ambient = AMBIENT_SORT[language]
    shapes = _SHAPES[language]
    binder_sorts, binder_error = _BINDERS[language]
    target = language is Language.TARGET
    nodes, kinds = [node], [kind]
    while nodes:
        node, kind = nodes.pop(), kinds.pop()
        if node is SENTINEL_FORMULA and target and kind is Formula:
            continue
        cls = type(node)
        shape = shapes.get(cls)
        if shape is None or cls.__base__ is not kind:
            if cls.__base__ is kind and cls in _ONE_LANGUAGE:
                raise SortError(_ONE_LANGUAGE[cls][1].format(node))
            raise SortError(f"not a {_KIND_NAMES[kind]}: {node!r}")
        if cls is Var:
            if node.sort is not ambient:
                raise SortError(
                    f"variable {node.name!r} has sort {node.sort.value}, "
                    f"but {language.value} terms have sort {ambient.value}")
        elif shape:
            if cls is Exists or cls is Forall:
                if node.sort not in binder_sorts:
                    raise SortError(binder_error.format(node.sort.value))
                if node.sort is Sort.SPECIES:
                    species_binder_index(node.var)
            get, child_kinds = shape
            nodes += get(node)
            kinds += child_kinds


def infer_term_sort(t: Term) -> Optional[Sort]:
    """Sort a term commits to, or None when only numerals occur: a
    variable commits to its sort, a class of one language to that
    language's ambient sort."""
    cls = type(t)
    if cls.__base__ is not Term or cls not in _CHILDREN:
        raise SortError(f"not a term: {t!r}")
    if cls is Var:
        return t.sort
    if cls in _ONE_LANGUAGE:
        return AMBIENT_SORT[_ONE_LANGUAGE[cls][0]]
    sorts = {infer_term_sort(child) for child in children(t)} - {None}
    if len(sorts) > 1:
        raise SortError(f"mixed-sort term: {t!r}")
    return sorts.pop() if sorts else None


# ---------------------------------------------------------------------------
# Variable bookkeeping


@frozen
class FreeVars:
    nat: frozenset[str]
    species: frozenset[int]
    real: frozenset[str]


def free_vars(f: Formula) -> FreeVars:
    nat: set[str] = set()
    species: set[int] = set()
    real: set[str] = set()

    def walk(node: Node, bound: frozenset[str], bspec: frozenset[int]) -> None:
        cls = type(node)
        if cls is Var:
            if node.name not in bound:
                (nat if node.sort is Sort.NAT else real).add(node.name)
        elif cls is SpeciesVar:
            if node.index not in bspec:
                species.add(node.index)
        elif cls is Exists or cls is Forall or cls is DefinedQuant:
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


def all_var_names(f: Node) -> frozenset[str]:
    """Every term-variable name occurring in f, a formula or a term, free
    or bound, plus all non-species binder names."""
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


def substitute(f: Formula, name: str, sort: Sort, replacement: Term) -> Formula:
    """Capture-avoiding substitution of replacement for the free variable
    (name, sort); clashing binders are renamed with a counter suffix."""
    rsort = infer_term_sort(replacement)
    if rsort is not None and rsort is not sort:
        raise SortError(
            f"cannot substitute a {rsort.value} term for the "
            f"{sort.value} variable {name!r}"
        )
    repl_names = all_var_names(replacement)

    def walk(node: Node) -> Node:
        if isinstance(node, Var):
            return replacement if node.name == name else node
        if isinstance(node, _QUANTIFIERS):
            binder_sort = _bound_sort(node)
            if binder_sort is not Sort.SPECIES:
                if node.var == name:
                    return node
                if node.var in repl_names:
                    forbidden = repl_names | all_var_names(node.body) | {name}
                    new = fresh_name(node.var, forbidden)
                    body = walk(substitute(node.body, node.var, binder_sort,
                                           Var(new, binder_sort)))
                    if type(node) is DefinedQuant:
                        return DefinedQuant(node.kind, new, body)
                    return type(node)(new, node.sort, body)
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

    # Structurally equal formulas are alpha-equal, and node equality
    # settles that common case (a print/parse round trip) faster than
    # the walk.
    return f == g or walk(f, g, {}, {}, 0)

"""S-expression concrete syntax for terms and formulas.

Grammar (heads are recognized only immediately after an opening paren):

    formula := (bot)
             | (= term term) | (< term term) | (apart term term)
             | (in term species) | (seq species species)
             | (and formula formula) | (or formula formula)
             | (imp formula formula) | (not formula)
             | (forall (name sort) formula) | (exists (name sort) formula)
             | (existsN (name) formula) | (forallN (name) formula)
             | (existsR (name) formula) | (forallR (name) formula)
    term    := numeral | name | (var name sort) | (rconst name)
             | (+ term term) | (* term term)
             | (pair term term) | (succ term)
    species := X<i> | (svar i) | (sconst i)
    sort    := Nat | Species | Real

Numerals and indices i are written in ASCII digits.  A bare name in term
position is a variable of the ambient sort of the language being parsed
(Nat for the source language, Real for the target); the (var name sort)
form overrides that.  Species binders must be named X0, X1, ... and bind
the species variable with that index.  (not f) is sugar for
(imp f (bot)) and is also the printed form.  Apartness prints as
(apart a b).  A # comment runs to the end of the line.  Comments are
removed, then text splits at parentheses and str.isspace() whitespace.
Parentheses nest at most MAX_NESTING deep; deeper input is a ParseError.
The shared sentinel node syntax.SENTINEL_FORMULA prints from text made at
import, and only the target reader returns it, for the sentinel's tokens.
"""

from __future__ import annotations

import itertools
import re

from .syntax import (
    AMBIENT_SORT, Add, And, Apart, BOT, Bottom, DefinedQuant, Eq, Exists,
    Forall, Formula, Implies, In, Language, Lt, Mul, NatConst, Node, Or,
    Pair, QuantKind, RealConst, SENTINEL_FORMULA, Sort, SpeciesConst,
    SpeciesEq, SpeciesRef, SpeciesVar, Succ, Term, Var, _KIND_NAMES, children,
    species_binder_index, species_binder_name,
)


class ParseError(ValueError):
    """Input text is not a well-formed s-expression of the grammar."""


# Reading, printing and evaluation (its compile pass, then its closures)
# recurse one frame per level of nesting and translation two, so every
# pass over a formula the reader accepts stays well inside Python's
# default limit of 1000 frames.
MAX_NESTING = 256

_SORTS = {s.value: s for s in Sort}
_QUANT_KINDS = {k.value: k for k in QuantKind}

# The head symbol of each node class, for reading and printing.  A
# numeral has none; a variable and a species variable print bare where
# they can, (not f) is read and printed for (imp f (bot)), and the head
# of a defined quantifier is its kind.
_NOT = "not"
_HEADS = {
    Var: "var", RealConst: "rconst", Add: "+", Mul: "*", Pair: "pair",
    Succ: "succ", SpeciesVar: "svar", SpeciesConst: "sconst", Bottom: "bot",
    Eq: "=", Lt: "<", Apart: "apart", In: "in", SpeciesEq: "seq",
    And: "and", Or: "or", Implies: "imp", Exists: "exists",
    Forall: "forall",
}
_CLASSES = {head: cls for cls, head in _HEADS.items()}

# Per kind, the classes without data: the reader takes (head child...)
# for them and reads each child by its kind in the node table.
_FIXED = {kind: frozenset(cls for cls in _HEADS
                          if issubclass(cls, kind) and not cls.data_fields)
          for kind in (Term, Formula)}

# A token is a parenthesis or a run of other non-space characters, and a
# comment matches with an empty group; only _position scans with this.
_TOKEN = re.compile(r"#[^\n]*|([()]|[^\s()#]+)")


def tokenize(text: str) -> list[str]:
    """The tokens of text, comments dropped."""
    if "#" in text:
        text = re.sub(r"#[^\n]*", " ", text)
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _position(text: str, index: int) -> str:
    """The "line L, column C" of the index-th token of text.

    Positions are needed only for error messages, so tokenize keeps
    none and they are recovered here by scanning again.
    """
    starts = (m.start(1) for m in _TOKEN.finditer(text) if m.group(1))
    offset = next(itertools.islice(starts, index, None))
    line = text.count("\n", 0, offset) + 1
    column = offset - text.rfind("\n", 0, offset)
    return f"line {line}, column {column}"


class _Parser:
    def __init__(self, text: str, language: Language) -> None:
        self.text = text
        self.tokens = tokens = tokenize(text)
        self.pos = 0
        self.ambient = AMBIENT_SORT[language]
        self.target = language is Language.TARGET
        if tokens.count("(") > MAX_NESTING:
            depth = 0
            for i, tok in enumerate(tokens):
                if tok == "(":
                    depth += 1
                    if depth > MAX_NESTING:
                        self.pos = i
                        raise self.error(
                            f"parentheses nest deeper than {MAX_NESTING}")
                elif tok == ")":
                    depth -= 1

    def error(self, message: str, back: int = 0) -> ParseError:
        self.pos -= back
        if self.pos < len(self.tokens):
            return ParseError(
                f"{_position(self.text, self.pos)}: {message}")
        return ParseError(f"at end of input: {message}")

    def next(self) -> str:
        pos = self.pos
        try:
            tok = self.tokens[pos]
        except IndexError:
            raise self.error("unexpected end of input") from None
        self.pos = pos + 1
        return tok

    def expect(self, text: str) -> None:
        tok = self.next()
        if tok != text:
            raise self.error(f"expected {text!r}, got {tok!r}", back=1)

    def head(self) -> str:
        """Consume an opening paren and the head symbol after it."""
        self.expect("(")
        return self.opened()

    def opened(self) -> str:
        """Consume the head symbol after an opening paren."""
        tok = self.next()
        if tok in "()":
            raise self.error("expected a head symbol after '('", back=1)
        return tok

    def formula(self) -> Formula:
        head = self.head()
        cls = _CLASSES.get(head)
        if cls in _FIXED[Formula]:
            if cls is Or and self.target:
                end = self.pos + len(_SENTINEL_TOKENS)
                if self.tokens[self.pos:end] == _SENTINEL_TOKENS:
                    self.pos = end
                    return SENTINEL_FORMULA
            kids = []
            for kind in cls.child_kinds:
                kids.append(_READ[kind](self))
            f: Formula = cls(*kids)
        elif cls is Forall or cls is Exists:
            var, sort = self.binder_with_sort()
            f = cls(var, sort, self.formula())
        elif head in _QUANT_KINDS:
            var = self.binder_plain()
            f = DefinedQuant(_QUANT_KINDS[head], var, self.formula())
        elif head == _NOT:
            f = Implies(self.formula(), BOT)
        else:
            raise self.error(f"unknown formula head {head!r}", back=1)
        self.expect(")")
        return f

    def binder_with_sort(self) -> tuple[str, Sort]:
        self.expect("(")
        name = self.symbol("binder name")
        sort_tok = self.next()
        sort = _SORTS.get(sort_tok)
        if sort is None:
            raise self.error(
                f"expected a sort (Nat, Species or Real), got {sort_tok!r}",
                back=1)
        if sort is Sort.SPECIES:
            try:
                species_binder_index(name)
            except ValueError as exc:
                raise self.error(str(exc), back=2) from None  # the name
        self.expect(")")
        return name, sort

    def binder_plain(self) -> str:
        self.expect("(")
        name = self.symbol("binder name")
        self.expect(")")
        return name

    def symbol(self, what: str) -> str:
        tok = self.next()
        if tok in "()":
            raise self.error(f"expected a {what}", back=1)
        return tok

    def term(self) -> Term:
        tok = self.next()
        if tok != "(":
            if tok == ")":
                raise self.error("expected a term", back=1)
            if tok.isdigit():
                if not tok.isascii():
                    raise self.error(
                        f"numerals are written in ASCII digits, got {tok!r}",
                        back=1)
                return NatConst(int(tok))
            return Var(tok, self.ambient)
        head = self.opened()
        cls = _CLASSES.get(head)
        if cls in _FIXED[Term]:
            kids = []
            for kind in cls.child_kinds:
                kids.append(_READ[kind](self))
            t: Term = cls(*kids)
        elif cls is Var:
            name = self.symbol("variable name")
            sort_tok = self.next()
            sort = _SORTS.get(sort_tok)
            if sort is None or sort is Sort.SPECIES:
                raise self.error(f"expected Nat or Real, got {sort_tok!r}",
                                 back=1)
            t = Var(name, sort)
        elif cls is RealConst:
            t = RealConst(self.symbol("constant name"))
        else:
            raise self.error(f"unknown term head {head!r}", back=1)
        self.expect(")")
        return t

    def species(self) -> SpeciesRef:
        tok = self.next()
        if tok == "(":
            head = self.opened()
            cls = _CLASSES.get(head)
            if cls is not SpeciesVar and cls is not SpeciesConst:
                raise self.error(f"unknown species head {head!r}", back=1)
            idx_tok = self.next()
            if not (idx_tok.isascii() and idx_tok.isdigit()):
                raise self.error(f"expected an index, got {idx_tok!r}",
                                 back=1)
            ref: SpeciesRef = cls(int(idx_tok))
            self.expect(")")
            return ref
        try:
            return SpeciesVar(species_binder_index(tok))
        except ValueError:
            raise self.error(f"expected a species reference, got {tok!r}",
                             back=1) from None


# The reader of each kind of child.
_READ = {Term: _Parser.term, SpeciesRef: _Parser.species,
         Formula: _Parser.formula}


def parse_formula(text: str, language: Language | str) -> Formula:
    parser = _Parser(text, Language(language))
    f = parser.formula()
    if parser.pos != len(parser.tokens):
        raise parser.error("trailing input after formula")
    return f


def parse_term(text: str, language: Language | str) -> Term:
    parser = _Parser(text, Language(language))
    t = parser.term()
    if parser.pos != len(parser.tokens):
        raise parser.error("trailing input after term")
    return t


def format_term(t: Term, language: Language | str) -> str:
    return _format(t, Term, AMBIENT_SORT[Language(language)])


def format_formula(f: Formula, language: Language | str) -> str:
    return _format(f, Formula, AMBIENT_SORT[Language(language)])


def _format(node: Node, kind: type, ambient: Sort) -> str:
    """The text of node, which must be of the given kind."""
    cls = type(node)
    # The kind of a node class is its base class in the node table.
    if cls.__base__ is not kind:
        raise ValueError(f"not a {_KIND_NAMES[kind]}: {node!r}")
    if node is SENTINEL_FORMULA:
        return _SENTINEL_TEXT[ambient]
    if cls is Var:
        if node.sort is ambient:
            return node.name
        return f"({_HEADS[Var]} {node.name} {node.sort.value})"
    if cls is NatConst:
        return str(node.value)
    if cls is SpeciesVar:
        return species_binder_name(node.index)
    if cls is Implies and type(node.right) is Bottom:
        return f"({_NOT} {_format(node.left, Formula, ambient)})"
    if cls is Exists or cls is Forall:
        return (f"({_HEADS[cls]} ({node.var} {node.sort.value}) "
                f"{_format(node.body, Formula, ambient)})")
    if cls is DefinedQuant:
        return (f"({node.kind.value} ({node.var}) "
                f"{_format(node.body, Formula, ambient)})")
    # Nodes of the other classes have data or children, not both, and at
    # most two children.
    head = _HEADS[cls]
    kids = children(node)
    if not kids:
        data = "".join(f" {getattr(node, name)}" for name in cls.data_fields)
        return f"({head}{data})"
    kinds = cls.child_kinds
    if len(kids) == 1:
        return f"({head} {_format(kids[0], kinds[0], ambient)})"
    return (f"({head} {_format(kids[0], kinds[0], ambient)} "
            f"{_format(kids[1], kinds[1], ambient)})")


# The sentinel node's text per language, printed once from an unshared
# copy, and its target tokens after "( or", which the reader matches.
_SENTINEL_TEXT = {sort: _format(Or(*children(SENTINEL_FORMULA)), Formula, sort)
                  for sort in AMBIENT_SORT.values()}
_SENTINEL_TOKENS = tokenize(_SENTINEL_TEXT[Sort.REAL])[2:]

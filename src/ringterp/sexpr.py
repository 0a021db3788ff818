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

A bare name in term position is a variable of the ambient sort of the
language being parsed (Nat for the source language, Real for the target);
the (var name sort) form overrides that.  Species binders must be named
X0, X1, ... and bind the species variable with that index.  (not f) is
sugar for (imp f (bot)) and is also the printed form.  Apartness prints
as (apart a b).  A # starts a comment that runs to the end of the line.
Parentheses nest at most MAX_NESTING deep; deeper input is a ParseError.
"""

from __future__ import annotations

import itertools
import re

from .syntax import (
    AMBIENT_SORT, Add, And, Apart, BOT, Bottom, DefinedQuant, Eq, Exists,
    Forall, Formula, Implies, In, Language, Lt, Mul, NatConst, Or, Pair,
    QuantKind, RealConst, Sort, SpeciesConst, SpeciesEq, SpeciesRef,
    SpeciesVar, Succ, Term, Var, species_binder_index, species_binder_name,
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

# A token is a parenthesis or a run of other non-space characters; a #
# comment matches as a whole with an empty group and is dropped.
_TOKEN = re.compile(r"#[^\n]*|([()]|[^\s()#]+)")


def tokenize(text: str) -> list[str]:
    """The tokens of text, comments dropped."""
    return [tok for tok in _TOKEN.findall(text) if tok]


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

    def error(self, message: str) -> ParseError:
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
            self.pos -= 1
            raise self.error(f"expected {text!r}, got {tok!r}")

    def head(self) -> str:
        """Consume an opening paren and the head symbol after it."""
        self.expect("(")
        return self.opened()

    def opened(self) -> str:
        """Consume the head symbol after an opening paren."""
        tok = self.next()
        if tok in "()":
            self.pos -= 1
            raise self.error("expected a head symbol after '('")
        return tok

    def formula(self) -> Formula:
        head = self.head()
        if head == "=":
            f: Formula = Eq(self.term(), self.term())
        elif head == "<":
            f = Lt(self.term(), self.term())
        elif head == "in":
            f = In(self.term(), self.species())
        elif head == "and":
            f = And(self.formula(), self.formula())
        elif head == "or":
            f = Or(self.formula(), self.formula())
        elif head == "imp":
            f = Implies(self.formula(), self.formula())
        elif head == "not":
            f = Implies(self.formula(), BOT)
        elif head == "bot":
            f = BOT
        elif head == "apart":
            f = Apart(self.term(), self.term())
        elif head == "seq":
            f = SpeciesEq(self.species(), self.species())
        elif head == "forall" or head == "exists":
            var, sort = self.binder_with_sort()
            body = self.formula()
            f = (Forall if head == "forall" else Exists)(var, sort, body)
        elif head in _QUANT_KINDS:
            var = self.binder_plain()
            f = DefinedQuant(_QUANT_KINDS[head], var, self.formula())
        else:
            self.pos -= 1
            raise self.error(f"unknown formula head {head!r}")
        self.expect(")")
        return f

    def binder_with_sort(self) -> tuple[str, Sort]:
        self.expect("(")
        name = self.symbol("binder name")
        sort_tok = self.next()
        sort = _SORTS.get(sort_tok)
        if sort is None:
            self.pos -= 1
            raise self.error(
                f"expected a sort (Nat, Species or Real), got {sort_tok!r}"
            )
        if sort is Sort.SPECIES:
            try:
                species_binder_index(name)
            except ValueError as exc:
                raise self.error(str(exc)) from None
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
            self.pos -= 1
            raise self.error(f"expected a {what}")
        return tok

    def term(self) -> Term:
        tok = self.next()
        if tok != "(":
            if tok == ")":
                self.pos -= 1
                raise self.error("expected a term")
            if tok.isdigit():
                return NatConst(int(tok))
            return Var(tok, self.ambient)
        head = self.opened()
        if head == "+":
            t: Term = Add(self.term(), self.term())
        elif head == "*":
            t = Mul(self.term(), self.term())
        elif head == "pair":
            t = Pair(self.term(), self.term())
        elif head == "succ":
            t = Succ(self.term())
        elif head == "var":
            name = self.symbol("variable name")
            sort_tok = self.next()
            sort = _SORTS.get(sort_tok)
            if sort is None or sort is Sort.SPECIES:
                self.pos -= 1
                raise self.error(f"expected Nat or Real, got {sort_tok!r}")
            t = Var(name, sort)
        elif head == "rconst":
            t = RealConst(self.symbol("constant name"))
        else:
            self.pos -= 1
            raise self.error(f"unknown term head {head!r}")
        self.expect(")")
        return t

    def species(self) -> SpeciesRef:
        tok = self.next()
        if tok == "(":
            head = self.opened()
            if head not in ("svar", "sconst"):
                self.pos -= 1
                raise self.error(f"unknown species head {head!r}")
            idx_tok = self.next()
            if not idx_tok.isdigit():
                self.pos -= 1
                raise self.error(f"expected an index, got {idx_tok!r}")
            ref: SpeciesRef = (SpeciesVar if head == "svar" else SpeciesConst)(
                int(idx_tok)
            )
            self.expect(")")
            return ref
        try:
            return SpeciesVar(species_binder_index(tok))
        except ValueError:
            self.pos -= 1
            raise self.error(
                f"expected a species reference, got {tok!r}"
            ) from None


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
    return _format_term(t, AMBIENT_SORT[Language(language)])


def _format_term(t: Term, ambient: Sort) -> str:
    if isinstance(t, Var):
        if t.sort is ambient:
            return t.name
        return f"(var {t.name} {t.sort.value})"
    if isinstance(t, NatConst):
        return str(t.value)
    if isinstance(t, RealConst):
        return f"(rconst {t.name})"
    if isinstance(t, Add):
        return f"(+ {_format_term(t.left, ambient)} {_format_term(t.right, ambient)})"
    if isinstance(t, Mul):
        return f"(* {_format_term(t.left, ambient)} {_format_term(t.right, ambient)})"
    if isinstance(t, Pair):
        return f"(pair {_format_term(t.left, ambient)} {_format_term(t.right, ambient)})"
    if isinstance(t, Succ):
        return f"(succ {_format_term(t.arg, ambient)})"
    raise ValueError(f"not a term: {t!r}")


def format_species(ref: SpeciesRef) -> str:
    if isinstance(ref, SpeciesVar):
        return species_binder_name(ref.index)
    if isinstance(ref, SpeciesConst):
        return f"(sconst {ref.index})"
    raise ValueError(f"not a species reference: {ref!r}")


def format_formula(f: Formula, language: Language | str) -> str:
    return _format_formula(f, AMBIENT_SORT[Language(language)])


def _format_formula(f: Formula, ambient: Sort) -> str:
    ft = lambda t: _format_term(t, ambient)  # noqa: E731
    if isinstance(f, Bottom):
        return "(bot)"
    if isinstance(f, Eq):
        return f"(= {ft(f.left)} {ft(f.right)})"
    if isinstance(f, Lt):
        return f"(< {ft(f.left)} {ft(f.right)})"
    if isinstance(f, Apart):
        return f"(apart {ft(f.left)} {ft(f.right)})"
    if isinstance(f, In):
        return f"(in {ft(f.element)} {format_species(f.species)})"
    if isinstance(f, SpeciesEq):
        return f"(seq {format_species(f.left)} {format_species(f.right)})"
    if isinstance(f, Implies):
        if isinstance(f.right, Bottom):
            return f"(not {_format_formula(f.left, ambient)})"
        return (f"(imp {_format_formula(f.left, ambient)} "
                f"{_format_formula(f.right, ambient)})")
    if isinstance(f, And):
        return (f"(and {_format_formula(f.left, ambient)} "
                f"{_format_formula(f.right, ambient)})")
    if isinstance(f, Or):
        return (f"(or {_format_formula(f.left, ambient)} "
                f"{_format_formula(f.right, ambient)})")
    if isinstance(f, Exists):
        return (f"(exists ({f.var} {f.sort.value}) "
                f"{_format_formula(f.body, ambient)})")
    if isinstance(f, Forall):
        return (f"(forall ({f.var} {f.sort.value}) "
                f"{_format_formula(f.body, ambient)})")
    if isinstance(f, DefinedQuant):
        return (f"({f.kind.value} ({f.var}) "
                f"{_format_formula(f.body, ambient)})")
    raise ValueError(f"not a formula: {f!r}")

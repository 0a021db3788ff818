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

from dataclasses import dataclass

from .syntax import (
    Add, And, Apart, BOT, Bottom, DefinedQuant, Eq, Exists, Forall, Formula,
    Implies, In, Language, Lt, Mul, NatConst, Or, Pair, QuantKind, RealConst,
    Sort, SpeciesConst, SpeciesEq, SpeciesRef, SpeciesVar, Succ, Term, Var,
    species_binder_index, species_binder_name,
)


class ParseError(ValueError):
    """Input text is not a well-formed s-expression of the grammar."""


@dataclass(frozen=True)
class _Token:
    text: str
    line: int
    col: int


# Printing recurses one frame per level of nesting, translation two and
# the evaluation of nested quantifiers three, so every pass over a
# formula the reader accepts stays well inside Python's default limit of
# 1000 frames.
MAX_NESTING = 256

_SORTS = {s.value: s for s in Sort}
_QUANT_KINDS = {k.value: k for k in QuantKind}


def tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    depth = 0
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
        elif c.isspace():
            col += 1
            i += 1
        elif c == "#":
            while i < n and text[i] != "\n":
                i += 1
        elif c in "()":
            depth += 1 if c == "(" else -1
            if depth > MAX_NESTING:
                raise ParseError(f"line {line}, column {col}: parentheses "
                                 f"nest deeper than {MAX_NESTING}")
            tokens.append(_Token(c, line, col))
            col += 1
            i += 1
        else:
            start = i
            start_col = col
            while i < n and not text[i].isspace() and text[i] not in "()#":
                i += 1
                col += 1
            tokens.append(_Token(text[start:i], line, start_col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], language: Language) -> None:
        self.tokens = tokens
        self.pos = 0
        self.language = language

    def error(self, message: str) -> ParseError:
        if self.pos < len(self.tokens):
            tok = self.tokens[self.pos]
            return ParseError(f"line {tok.line}, column {tok.col}: {message}")
        return ParseError(f"at end of input: {message}")

    def peek(self) -> _Token:
        if self.pos >= len(self.tokens):
            raise self.error("unexpected end of input")
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, text: str) -> None:
        tok = self.next()
        if tok.text != text:
            self.pos -= 1
            raise self.error(f"expected {text!r}, got {tok.text!r}")

    def head(self) -> str:
        """Consume an opening paren and the head symbol after it."""
        self.expect("(")
        tok = self.next()
        if tok.text in "()":
            self.pos -= 1
            raise self.error("expected a head symbol after '('")
        return tok.text

    def formula(self) -> Formula:
        head = self.head()
        if head == "bot":
            f: Formula = BOT
        elif head == "=":
            f = Eq(self.term(), self.term())
        elif head == "<":
            f = Lt(self.term(), self.term())
        elif head == "apart":
            f = Apart(self.term(), self.term())
        elif head == "in":
            f = In(self.term(), self.species())
        elif head == "seq":
            f = SpeciesEq(self.species(), self.species())
        elif head == "and":
            f = And(self.formula(), self.formula())
        elif head == "or":
            f = Or(self.formula(), self.formula())
        elif head == "imp":
            f = Implies(self.formula(), self.formula())
        elif head == "not":
            f = Implies(self.formula(), BOT)
        elif head in ("forall", "exists"):
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
        sort = _SORTS.get(sort_tok.text)
        if sort is None:
            self.pos -= 1
            raise self.error(
                f"expected a sort (Nat, Species or Real), got {sort_tok.text!r}"
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
        if tok.text in "()":
            self.pos -= 1
            raise self.error(f"expected a {what}")
        return tok.text

    def term(self) -> Term:
        tok = self.peek()
        if tok.text == "(":
            head = self.head()
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
                sort = _SORTS.get(sort_tok.text)
                if sort is None or sort is Sort.SPECIES:
                    self.pos -= 1
                    raise self.error(
                        f"expected Nat or Real, got {sort_tok.text!r}"
                    )
                t = Var(name, sort)
            elif head == "rconst":
                t = RealConst(self.symbol("constant name"))
            else:
                self.pos -= 1
                raise self.error(f"unknown term head {head!r}")
            self.expect(")")
            return t
        self.next()
        if tok.text == ")":
            self.pos -= 1
            raise self.error("expected a term")
        if tok.text.isdigit():
            return NatConst(int(tok.text))
        return Var(tok.text, self.language.term_sort)

    def species(self) -> SpeciesRef:
        tok = self.peek()
        if tok.text == "(":
            head = self.head()
            if head not in ("svar", "sconst"):
                self.pos -= 1
                raise self.error(f"unknown species head {head!r}")
            idx_tok = self.next()
            if not idx_tok.text.isdigit():
                self.pos -= 1
                raise self.error(f"expected an index, got {idx_tok.text!r}")
            ref: SpeciesRef = (SpeciesVar if head == "svar" else SpeciesConst)(
                int(idx_tok.text)
            )
            self.expect(")")
            return ref
        self.next()
        try:
            return SpeciesVar(species_binder_index(tok.text))
        except ValueError:
            self.pos -= 1
            raise self.error(
                f"expected a species reference, got {tok.text!r}"
            ) from None


def parse_formula(text: str, language: Language) -> Formula:
    parser = _Parser(tokenize(text), language)
    f = parser.formula()
    if parser.pos != len(parser.tokens):
        raise parser.error("trailing input after formula")
    return f


def parse_term(text: str, language: Language) -> Term:
    parser = _Parser(tokenize(text), language)
    t = parser.term()
    if parser.pos != len(parser.tokens):
        raise parser.error("trailing input after term")
    return t


def format_term(t: Term, language: Language) -> str:
    if isinstance(t, Var):
        if t.sort is language.term_sort:
            return t.name
        return f"(var {t.name} {t.sort.value})"
    if isinstance(t, NatConst):
        return str(t.value)
    if isinstance(t, RealConst):
        return f"(rconst {t.name})"
    if isinstance(t, Add):
        return f"(+ {format_term(t.left, language)} {format_term(t.right, language)})"
    if isinstance(t, Mul):
        return f"(* {format_term(t.left, language)} {format_term(t.right, language)})"
    if isinstance(t, Pair):
        return f"(pair {format_term(t.left, language)} {format_term(t.right, language)})"
    if isinstance(t, Succ):
        return f"(succ {format_term(t.arg, language)})"
    raise ValueError(f"not a term: {t!r}")


def format_species(ref: SpeciesRef) -> str:
    if isinstance(ref, SpeciesVar):
        return species_binder_name(ref.index)
    if isinstance(ref, SpeciesConst):
        return f"(sconst {ref.index})"
    raise ValueError(f"not a species reference: {ref!r}")


def format_formula(f: Formula, language: Language) -> str:
    ft = lambda t: format_term(t, language)  # noqa: E731
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
            return f"(not {format_formula(f.left, language)})"
        return (f"(imp {format_formula(f.left, language)} "
                f"{format_formula(f.right, language)})")
    if isinstance(f, And):
        return (f"(and {format_formula(f.left, language)} "
                f"{format_formula(f.right, language)})")
    if isinstance(f, Or):
        return (f"(or {format_formula(f.left, language)} "
                f"{format_formula(f.right, language)})")
    if isinstance(f, Exists):
        return (f"(exists ({f.var} {f.sort.value}) "
                f"{format_formula(f.body, language)})")
    if isinstance(f, Forall):
        return (f"(forall ({f.var} {f.sort.value}) "
                f"{format_formula(f.body, language)})")
    if isinstance(f, DefinedQuant):
        return (f"({f.kind.value} ({f.var}) "
                f"{format_formula(f.body, language)})")
    raise ValueError(f"not a formula: {f!r}")

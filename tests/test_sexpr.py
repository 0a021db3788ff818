"""Tests for the s-expression reader and printer."""

import itertools
import random
import sys
from dataclasses import dataclass

import pytest

from ringterp.corpus import corpus_formulas
from ringterp.evaluate import FiniteStructure, eval_formula
from ringterp.sexpr import (
    MAX_NESTING, ParseError, _TOKEN, format_formula, format_term,
    parse_formula, parse_term, tokenize,
)
from ringterp.syntax import (
    Add, And, Apart, DefinedQuant, Eq, Exists, Forall, Formula, Implies, In,
    Language, Lt, Mul, NatConst, Or, Pair, QuantKind, RealConst,
    SENTINEL_FORMULA, Sort, SpeciesConst, SpeciesEq, SpeciesRef, SpeciesVar,
    Succ, Term, Var, BOT, children, species_binder_index,
)
from ringterp.translate import (
    Expansion, Orientation, TranslationConfig, translate,
)

SOURCE_CASES = [
    "(bot)",
    "(= (+ 1 2) 3)",
    "(< x (succ x))",
    "(apart x 0)",
    "(in (pair 0 3) X2)",
    "(in 1 (sconst 1))",
    "(seq X0 (sconst 2))",
    "(and (bot) (or (= x x) (< 0 1)))",
    "(imp (= x 0) (< x 1))",
    "(not (in x X1))",
    "(forall (x Nat) (exists (X0 Species) (in x X0)))",
    "(exists (n Nat) (= (* n n) 4))",
]

TARGET_CASES = [
    "(= (rconst a1) (* y (rconst b1)))",
    "(or (= y 0) (apart y 0))",
    "(forall (w Real) (imp (< w 1) (= w 0)))",
    "(existsN (n) (= n n))",
    "(forallR (u) (existsR (v) (< u v)))",
]


@pytest.mark.parametrize("text", SOURCE_CASES)
def test_source_round_trip(text: str):
    f = parse_formula(text, Language.SOURCE)
    assert format_formula(f, Language.SOURCE) == text
    assert parse_formula(format_formula(f, Language.SOURCE),
                         Language.SOURCE) == f


@pytest.mark.parametrize("text", TARGET_CASES)
def test_target_round_trip(text: str):
    f = parse_formula(text, Language.TARGET)
    assert format_formula(f, Language.TARGET) == text


@pytest.mark.parametrize("f", corpus_formulas(count=60, seed=99))
def test_random_source_formulas_round_trip(f):
    text = format_formula(f, Language.SOURCE)
    assert parse_formula(text, Language.SOURCE) == f


@pytest.mark.parametrize("f", corpus_formulas(count=30, seed=7))
@pytest.mark.parametrize("mode", [Expansion.MACRO, Expansion.FULL])
def test_translated_formulas_round_trip(f, mode):
    g = translate(f, config=TranslationConfig(expansion=mode))
    text = format_formula(g, Language.TARGET)
    assert parse_formula(text, Language.TARGET) == g


class TestTermSyntax:
    def test_bare_names_take_ambient_sort(self):
        assert parse_term("x", Language.SOURCE) == Var("x", Sort.NAT)
        assert parse_term("x", Language.TARGET) == Var("x", Sort.REAL)

    def test_explicit_var_form_overrides(self):
        t = parse_term("(var q Real)", Language.SOURCE)
        assert t == Var("q", Sort.REAL)
        assert format_term(t, Language.SOURCE) == "(var q Real)"
        assert format_term(t, Language.TARGET) == "q"

    def test_numerals(self):
        assert parse_term("42", Language.SOURCE) == NatConst(42)

    def test_compound_terms(self):
        t = parse_term("(pair (succ 0) x)", Language.SOURCE)
        assert t == Pair(Succ(NatConst(0)), Var("x", Sort.NAT))


class TestSpeciesSyntax:
    def test_bare_x_names_are_species_variables(self):
        f = parse_formula("(in x X3)", Language.SOURCE)
        assert f == In(Var("x", Sort.NAT), SpeciesVar(3))

    def test_explicit_forms(self):
        f = parse_formula("(in x (svar 3))", Language.SOURCE)
        assert f == In(Var("x", Sort.NAT), SpeciesVar(3))
        g = parse_formula("(in x (sconst 5))", Language.SOURCE)
        assert g == In(Var("x", Sort.NAT), SpeciesConst(5))


class TestPrinting:
    def test_negation_prints_as_not(self):
        f = Implies(Eq(Var("x", Sort.NAT), NatConst(0)), BOT)
        assert format_formula(f, Language.SOURCE) == "(not (= x 0))"

    def test_apartness_prints_unexpanded(self):
        f = Apart(Var("x", Sort.NAT), NatConst(0))
        assert format_formula(f, Language.SOURCE) == "(apart x 0)"

    def test_explicit_bottom_consequent_prints_as_not(self):
        f = parse_formula("(imp (= x 0) (bot))", Language.SOURCE)
        assert format_formula(f, Language.SOURCE) == "(not (= x 0))"

    @pytest.mark.parametrize("tree,text", [
        (Var("x", Sort.NAT), "not a formula: Var(name='x', "
                             "sort=<Sort.NAT: 'Nat'>)"),
        (And(BOT, NatConst(0)), "not a formula: NatConst(value=0)"),
        (Implies(SpeciesVar(1), BOT), "not a formula: SpeciesVar(index=1)"),
        (Exists("x", Sort.NAT, NatConst(2)),
         "not a formula: NatConst(value=2)"),
        (Eq(NatConst(0), BOT), "not a term: Bottom()"),
        (Lt(Succ(SpeciesConst(1)), NatConst(0)),
         "not a term: SpeciesConst(index=1)"),
        (In(NatConst(0), NatConst(1)), "not a species reference: "
                                       "NatConst(value=1)"),
        (SpeciesEq(SpeciesVar(0), BOT), "not a species reference: Bottom()"),
        ("(bot)", "not a formula: '(bot)'"),
    ])
    def test_ill_kinded_trees_are_value_errors(self, tree, text):
        with pytest.raises(ValueError) as err:
            format_formula(tree, Language.SOURCE)
        assert str(err.value) == text

    def test_ill_kinded_terms_are_value_errors(self):
        with pytest.raises(ValueError) as err:
            format_term(BOT, Language.TARGET)
        assert str(err.value) == "not a term: Bottom()"

    @pytest.mark.parametrize("language", list(Language))
    def test_the_shared_sentinel_keeps_the_kind_check(self, language):
        want = f"not a term: {SENTINEL_FORMULA!r}"
        with pytest.raises(ValueError) as err:
            format_term(SENTINEL_FORMULA, language)
        assert str(err.value) == want
        with pytest.raises(ValueError) as err:
            format_formula(Eq(SENTINEL_FORMULA, NatConst(0)), language)
        assert str(err.value) == want

    def test_the_shared_sentinel_prints_as_an_unshared_copy(self):
        fresh = Or(*children(SENTINEL_FORMULA))
        for language in Language:
            assert (format_formula(SENTINEL_FORMULA, language)
                    == format_formula(fresh, language))
        assert (format_formula(SENTINEL_FORMULA, Language.SOURCE)
                == "(or (= (var y Real) 0) (apart (var y Real) 0))")
        assert (format_formula(SENTINEL_FORMULA, Language.TARGET)
                == "(or (= y 0) (apart y 0))")


class TestErrors:
    @pytest.mark.parametrize("text", [
        "",
        "(",
        "(bot",
        "(bot) junk",
        "(frob x y)",
        "(= x)",
        "(in x notaspecies)",
        "(forall (x Bogus) (bot))",
        "(forall (X1 Nat (bot))",
        "(exists (Y0 Species) (bot))",
        "(existsN (x Nat) (bot))",
    ])
    def test_malformed_input_raises(self, text: str):
        with pytest.raises(ParseError):
            parse_formula(text, Language.SOURCE)

    def test_errors_carry_positions(self):
        with pytest.raises(ParseError, match=r"line 2, column 8"):
            parse_formula("(and (bot)\n      (frob))", Language.SOURCE)

    def test_species_binder_error_points_at_the_name(self):
        message = "species binder must look like X0, X1, ...: got 'Y0'"
        for text, at in (("(exists (Y0 Species) (bot))", "line 1, column 10"),
                         ("(forall\n (Y0\n  Species) (bot))",
                          "line 2, column 3")):
            with pytest.raises(ParseError) as err:
                parse_formula(text, Language.SOURCE)
            assert str(err.value) == f"{at}: {message}"

    def test_trailing_term_input_raises(self):
        with pytest.raises(ParseError):
            parse_term("x y", Language.SOURCE)


# The code points str.isspace() accepts, which are also those regex \s
# matches: the separators tokenize splits on.
SPACES = ("\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680"
          + "".join(map(chr, range(0x2000, 0x200b)))
          + "\u2028\u2029\u202f\u205f\u3000")


def regex_tokenize(text: str) -> list[str]:
    """The tokens of text as the one-pattern regex scan finds them."""
    return [tok for tok in _TOKEN.findall(text) if tok]


class TestTokenize:
    """tokenize splits where the _TOKEN scan, which places error
    positions, finds its tokens."""

    def test_the_spaces_are_those_of_isspace_and_regex(self):
        assert len(SPACES) == 29
        assert [c for c in map(chr, range(sys.maxunicode + 1))
                if c.isspace()] == list(SPACES)
        assert [c for c in SPACES if _TOKEN.fullmatch(c)] == []

    @pytest.mark.parametrize("space", SPACES)
    def test_every_space_separates(self, space):
        text = space.join(["", "(=", "x", "(+", "1", "2))", "#c", "d\n(bot)",
                           ""])
        assert tokenize(text) == regex_tokenize(text)
        assert tokenize(text).count("(") == 3

    @pytest.mark.parametrize("text", [
        "(and (bot)\r\n  (bot))\r\n# comment\r\n",
        "(= ab#cd ef\n x 0)",
        "#(= x 0) only a comment",
        "(= x 0)#(",
        "",
        "#",
        "a##b\n#\n\n(c)#d",
        "\u3000(\u3000)\u3000",
    ])
    def test_texts(self, text):
        assert tokenize(text) == regex_tokenize(text)

    def test_random_texts(self):
        rng = random.Random(21)
        alphabet = "()#= \n\r\t\x1c\x85\u3000ax1"
        for _ in range(2000):
            text = "".join(rng.choices(alphabet, k=rng.randrange(20)))
            assert tokenize(text) == regex_tokenize(text), repr(text)

    @pytest.mark.parametrize("text,message", [
        ("# a comment (\n(=\u3000x\u3000(bad 1))",
         "line 2, column 7: unknown term head 'bad'"),
        ("(and # (frob)\n\u3000(frob))",
         "line 2, column 3: unknown formula head 'frob'"),
        ("(=\r\nx\r\n(bad 1))", "line 3, column 2: unknown term head 'bad'"),
    ])
    def test_error_positions_after_comments_and_spaces(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_formula(text, Language.SOURCE)
        assert str(err.value) == message


class TestAsciiDigits:
    """Numerals and indices are ASCII digits; other Unicode digits, which
    str.isdigit and int accept, are positioned parse errors."""

    @pytest.mark.parametrize("digit", ["\u00b2", "\u0663", "1\u0663"])
    # at: the text the error points to; a binder's name is checked once
    # its sort has been read, and the error points at the name.
    @pytest.mark.parametrize("text,at,message", [
        ("(= {} 0)", "{}", "numerals are written in ASCII digits, got '{}'"),
        ("(in 0 (svar {}))", "{}", "expected an index, got '{}'"),
        ("(in 0 (sconst {}))", "{}", "expected an index, got '{}'"),
        ("(in 0 X{})", "X", "expected a species reference, got 'X{}'"),
        ("(exists (X{} Species) (bot))", "X",
         "species binder must look like X0, X1, ...: got 'X{}'"),
    ])
    @pytest.mark.parametrize("language", list(Language))
    def test_positions(self, digit, text, at, message, language):
        text = text.format(digit)
        column = text.index(at.format(digit)) + 1
        with pytest.raises(ParseError) as err:
            parse_formula(text, language)
        assert str(err.value) == (f"line 1, column {column}: "
                                  f"{message.format(digit)}")

    def test_terms(self):
        with pytest.raises(ParseError, match="line 1, column 7: numerals"):
            parse_term("(succ \u0663)", Language.SOURCE)
        assert parse_term("(succ 03)", Language.SOURCE) == Succ(NatConst(3))
        assert parse_term("\u0663x", Language.SOURCE) == Var("\u0663x",
                                                             Sort.NAT)


def nested(opening: str, leaf: str, depth: int) -> str:
    """leaf inside opening repeated until parentheses nest depth deep
    (leaf opens one level itself)."""
    return opening * (depth - 1) + leaf + ")" * (depth - 1)


DEEP_SOURCE = ["(not ", "(forall (x Nat) ", "(exists (X1 Species) ",
               "(and (= 0 0) "]
DEEP_TARGET = ["(not ", "(existsR (x) ", "(forall (x Real) ", "(or (bot) "]


class TestNestingLimit:
    @pytest.mark.parametrize("opening", DEEP_SOURCE)
    def test_source_at_the_limit_is_read_translated_and_evaluated(
            self, opening):
        text = nested(opening, "(in 0 X1)" if "X1" in opening else "(= 0 0)",
                      MAX_NESTING)
        f = parse_formula(text, Language.SOURCE)
        assert format_formula(f, Language.SOURCE) == text
        one = FiniteStructure((0,))
        assert eval_formula(f, one, Language.SOURCE) is ("not" not in opening)
        for expansion in Expansion:
            for orientation in Orientation:
                target = translate(f, config=TranslationConfig(expansion,
                                                               orientation))
                format_formula(target, Language.TARGET)

    @pytest.mark.parametrize("opening", DEEP_TARGET)
    def test_target_at_the_limit_is_read_and_evaluated(self, opening):
        text = nested(opening, "(= 0 0)", MAX_NESTING)
        f = parse_formula(text, Language.TARGET)
        assert format_formula(f, Language.TARGET) == text
        one = FiniteStructure((0,))
        assert eval_formula(f, one, Language.TARGET) is ("not" not in opening)

    @pytest.mark.parametrize("opening", DEEP_SOURCE + DEEP_TARGET[1:])
    def test_one_level_more_is_a_parse_error(self, opening):
        text = nested(opening, "(= 0 0)", MAX_NESTING + 1)
        language = (Language.TARGET if opening in DEEP_TARGET[1:]
                    else Language.SOURCE)
        # The first parenthesis past the limit is named, a binder's too.
        depths = itertools.accumulate((c == "(") - (c == ")") for c in text)
        column = next(i for i, d in enumerate(depths, 1) if d > MAX_NESTING)
        with pytest.raises(ParseError, match=(
                rf"^line 1, column {column}: parentheses nest deeper than "
                rf"{MAX_NESTING}$")):
            parse_formula(text, language)

    def test_terms_count_too(self):
        parse_term(nested("(succ ", "(succ 0)", MAX_NESTING), Language.SOURCE)
        with pytest.raises(ParseError):
            parse_term(nested("(succ ", "(succ 0)", MAX_NESTING + 1),
                       Language.SOURCE)


class TestLanguageNames:
    def test_reader_and_printer_take_language_names(self):
        assert parse_term("x", "source") == Var("x", Sort.NAT)
        assert parse_term("x", "target") == Var("x", Sort.REAL)
        f = parse_formula("(< x (var q Nat))", "target")
        assert f == parse_formula("(< x (var q Nat))", Language.TARGET)
        assert format_formula(f, "target") == "(< x (var q Nat))"
        assert format_formula(f, "source") == "(< (var x Real) q)"
        assert format_term(f.left, "source") == "(var x Real)"

    @pytest.mark.parametrize("call", [
        lambda: parse_formula("(bot)", "sauce"),
        lambda: parse_term("x", "Source"),
        lambda: format_formula(BOT, "sauce"),
        lambda: format_term(NatConst(0), ""),
    ])
    def test_unknown_language_name_is_a_value_error(self, call):
        with pytest.raises(ValueError, match="is not a valid Language"):
            call()


def test_comments_are_skipped():
    text = "# leading remark\n(and (bot) # inline remark\n (= x 0))"
    f = parse_formula(text, Language.SOURCE)
    assert format_formula(f, Language.SOURCE) == "(and (bot) (= x 0))"


def test_less_than_constructor():
    f = parse_formula("(< 0 1)", Language.SOURCE)
    assert f == Lt(NatConst(0), NatConst(1))


# ---------------------------------------------------------------------------
# The per-character reader the regex reader replaced, kept as the
# reference of a differential test: every input must give the same
# formula or term, or a ParseError with the same message.

@dataclass(frozen=True)
class _Token:
    text: str
    line: int
    col: int


_SORTS = {s.value: s for s in Sort}
_QUANT_KINDS = {k.value: k for k in QuantKind}


def reference_tokenize(text: str) -> list[_Token]:
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


class ReferenceParser:
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
                # Changed on purpose from the replaced reader, which
                # pointed past the name: the error points at the name.
                self.pos -= 2
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
            # Changed on purpose from the replaced reader, which took
            # any Unicode digits: numerals are ASCII digits.
            if not tok.text.isascii():
                self.pos -= 1
                raise self.error("numerals are written in ASCII digits, "
                                 f"got {tok.text!r}")
            return NatConst(int(tok.text))
        return Var(tok.text, Sort.NAT if self.language is Language.SOURCE
                   else Sort.REAL)

    def species(self) -> SpeciesRef:
        tok = self.peek()
        if tok.text == "(":
            head = self.head()
            if head not in ("svar", "sconst"):
                self.pos -= 1
                raise self.error(f"unknown species head {head!r}")
            idx_tok = self.next()
            # ASCII digits only, changed on purpose as for numerals.
            if not (idx_tok.text.isascii() and idx_tok.text.isdigit()):
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


def reference_parse(text: str, language: Language, what: str = "formula"):
    parser = ReferenceParser(reference_tokenize(text), language)
    out = parser.formula() if what == "formula" else parser.term()
    if parser.pos != len(parser.tokens):
        raise parser.error(f"trailing input after {what}")
    return out


def outcome(parse, *args):
    """What parse(*args) gives: the result, or the error's type and
    message."""
    try:
        return parse(*args)
    except Exception as exc:  # noqa: BLE001 - any error must match too
        return type(exc), str(exc)


# Pieces the mutations insert: every kind of token, whitespace the
# reader treats specially, comments and stray parentheses.
PIECES = ["(", ")", " ", "\t", "\r", "\n", "\r\n", "\x0b", " ", "#",
          "# note\n", "x", "X1", "0", "12", "bot", "not", "forall",
          "(var x Real)", "(rconst a1)", "(sconst 1)", "(svar 0)", "Nat",
          "Species", "Real", "existsN", "pair", "succ", "+", "*", "()", "²"]


def mutations(text: str, rng: random.Random, count: int) -> list[str]:
    out = []
    for _ in range(count):
        t = text
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(t) + 1)
            j = min(len(t), i + rng.randint(1, 8))
            roll = rng.random()
            if roll < 0.35:
                t = t[:i] + rng.choice(PIECES) + t[i:]
            elif roll < 0.6:
                t = t[:i] + t[j:]
            elif roll < 0.75:
                t = t[:i] + rng.choice(PIECES) + t[j:]
            elif roll < 0.85:
                t = t[:i] + t[i:j] + t[i:]
            elif roll < 0.95:
                t = t.replace(" ", rng.choice(["\t", "\n", "  ", " \r\n "]))
            else:
                t = t[:i]
        out.append(t)
    return out


def corpus_texts() -> list[tuple[str, Language]]:
    texts = []
    for f in corpus_formulas(count=24, seed=4242):
        texts.append((format_formula(f, Language.SOURCE), Language.SOURCE))
    for f in corpus_formulas(count=12, seed=77):
        for expansion in Expansion:
            for orientation in Orientation:
                g = translate(f, config=TranslationConfig(expansion,
                                                          orientation))
                texts.append((format_formula(g, Language.TARGET),
                              Language.TARGET))
    return texts


EDGE_TEXTS = [
    "(\t=\tx\t0)", "(=\rx\r0)", "(= x\r\n0)\r\n", "(and (bot)\n\t(frob))",
    "# only a comment", "# c\n(bot) # trailing\n", "(= x 0)#(",
    "(= x# comment\n 0)", "\n\n   (bot", "(bot))", "(" * 257, "(" * 256,
    "(not " * 300 + "(bot)" + ")" * 300, "(not " * 255 + "(bot)" + ")" * 255,
    ")" * 300 + "(" * 300, "(= ² 0)", "(= x 0)", "(= x\x1c0)",
    "(= 0x 0)", "(in x (svar 01))", "(in x X01)", "",
    "(= \u0663 0)", "(in 0 (sconst \u0663))", "(in 0 (svar \u00b2))",
    "(in 0 X\u0663)", "(exists (X\u0663 Species) (bot))",
    "(exists (Y0 Species) (bot))", "(forall\n (Y0\n  Species) (bot))",
    "(exists (Y0 Bogus) (bot))",
]


class TestAgainstReferenceReader:
    def test_mutated_corpus_texts_read_alike(self):
        rng = random.Random(20241018)
        checked = errors = 0
        for text, language in corpus_texts():
            for mutated in [text] + mutations(text, rng, 20):
                for lang in Language:
                    want = outcome(reference_parse, mutated, lang)
                    assert outcome(parse_formula, mutated, lang) == want, \
                        mutated
                    checked += 1
                    errors += isinstance(want, tuple)
        assert checked == 3024 and errors > checked // 2, errors

    @pytest.mark.parametrize("text", EDGE_TEXTS)
    @pytest.mark.parametrize("language", list(Language))
    def test_edge_texts_read_alike(self, text, language):
        assert (outcome(parse_formula, text, language)
                == outcome(reference_parse, text, language))

    @pytest.mark.parametrize("text", [
        "x", "(succ (+ 1 x))", "(pair 0\t3)", "(var q Real)", "(rconst a1)",
        "x y", "(frob 1)", "(var q Species)", ")", "(* 1", "#\n7",
        "(succ " * 257 + "0" + ")" * 257,
    ])
    @pytest.mark.parametrize("language", list(Language))
    def test_terms_read_alike(self, text, language):
        assert (outcome(parse_term, text, language)
                == outcome(reference_parse, text, language, "term"))

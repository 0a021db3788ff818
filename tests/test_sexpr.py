"""Tests for the s-expression reader and printer."""

import itertools

import pytest

from ringterp.corpus import corpus_formulas
from ringterp.evaluate import FiniteStructure, eval_formula
from ringterp.sexpr import (
    MAX_NESTING, ParseError, format_formula, format_term, parse_formula,
    parse_term,
)
from ringterp.syntax import (
    Apart, Eq, Implies, In, Language, NatConst, Lt, Pair, Sort, SpeciesConst,
    SpeciesVar, Succ, Var, BOT,
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

    def test_trailing_term_input_raises(self):
        with pytest.raises(ParseError):
            parse_term("x y", Language.SOURCE)


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


def test_comments_are_skipped():
    text = "# leading remark\n(and (bot) # inline remark\n (= x 0))"
    f = parse_formula(text, Language.SOURCE)
    assert format_formula(f, Language.SOURCE) == "(and (bot) (= x 0))"


def test_less_than_constructor():
    f = parse_formula("(< 0 1)", Language.SOURCE)
    assert f == Lt(NatConst(0), NatConst(1))

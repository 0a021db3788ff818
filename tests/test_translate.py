"""Tests for the ring translation of two-sorted formulas."""

import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ringterp.corpus import corpus_formulas
from ringterp.goldens import (
    MEMBERSHIP_AS_WRITTEN, MEMBERSHIP_NORMALIZED, NAT_CORE, NAT_PREDICATE,
    SENTINEL, TAU_BOTTOM,
)
from ringterp.sexpr import format_formula, parse_formula
from ringterp.syntax import (
    And, DefinedQuant, Exists, Forall, Formula, Implies, In, Language, Or,
    QuantKind, Sort, SpeciesConst, SpeciesVar, Var, alpha_equal, free_vars,
    is_closed,
)
from ringterp.translate import (
    Expansion, Orientation, TranslationConfig, TranslationError, VarMap,
    expand_defined, nat_core_formula, nat_predicate, sentinel_formula,
    translate,
)

FULL = TranslationConfig(expansion=Expansion.FULL)
NORMALIZED = TranslationConfig(orientation=Orientation.QUOTIENT_NORMALIZED)


def src(text: str) -> Formula:
    return parse_formula(text, Language.SOURCE)


def printed(f: Formula) -> str:
    return format_formula(f, Language.TARGET)


class TestGoldenPrints:
    def test_sentinel(self):
        assert printed(sentinel_formula()) == SENTINEL

    def test_bottom_is_exactly_the_sentinel(self):
        assert printed(translate(src("(bot)"))) == TAU_BOTTOM
        assert translate(src("(bot)")) == sentinel_formula()

    def test_membership_as_written(self):
        got = printed(translate(src("(in x X1)")))
        assert got == MEMBERSHIP_AS_WRITTEN

    def test_membership_normalized(self):
        got = printed(translate(src("(in x X1)"), config=NORMALIZED))
        assert got == MEMBERSHIP_NORMALIZED

    def test_nat_core(self):
        assert printed(nat_core_formula()) == NAT_CORE

    def test_nat_predicate(self):
        assert printed(nat_predicate()) == NAT_PREDICATE


class TestAtoms:
    def test_equality_is_weakened_by_the_sentinel(self):
        got = printed(translate(src("(= x 0)")))
        assert got == f"(or (= x 0) {SENTINEL})"

    def test_order_is_weakened_by_the_sentinel(self):
        got = printed(translate(src("(< x 1)")))
        assert got == f"(or (< x 1) {SENTINEL})"

    def test_apartness_unfolds_before_translation(self):
        got = translate(src("(apart x 0)"))
        want = translate(src("(or (< x 0) (< 0 x))"))
        assert got == want

    def test_species_constants_use_their_own_names(self):
        got = printed(translate(src("(in x (sconst 2))")))
        assert got == ("(imp (not (= (* x (rconst a2)) (rconst b2))) "
                       f"{SENTINEL})")

    def test_successor_becomes_plus_one(self):
        got = printed(translate(src("(= (succ x) 3)")))
        assert got == f"(or (= (+ x 1) 3) {SENTINEL})"

    def test_closed_pairs_fold_to_numerals(self):
        got = printed(translate(src("(= (pair 1 1) 4)")))
        assert got == f"(or (= 4 4) {SENTINEL})"

    def test_open_pairs_are_rejected(self):
        with pytest.raises(TranslationError):
            translate(src("(= (pair x 1) 4)"))


class TestQuantifiers:
    def test_nat_quantifiers_become_defined_quantifiers(self):
        got = translate(src("(exists (n Nat) (= n 0))"))
        assert isinstance(got, DefinedQuant)
        assert got.kind is QuantKind.EXISTS_NAT
        assert got.var == "n"

    def test_species_quantifiers_bind_the_coding_pair(self):
        got = translate(src("(forall (X1 Species) (in 0 X1))"))
        assert isinstance(got, DefinedQuant)
        assert got.kind is QuantKind.FORALL_REAL
        assert got.var == "u1"
        assert isinstance(got.body, DefinedQuant)
        assert got.body.var == "v1"

    def test_full_mode_relativizes_nat_quantifiers(self):
        got = translate(src("(exists (n Nat) (= n 0))"), config=FULL)
        assert isinstance(got, Exists)
        assert got.sort is Sort.REAL
        assert isinstance(got.body, And)
        assert alpha_equal(got.body.left, nat_predicate("n"))

    def test_full_mode_universal_uses_implication(self):
        got = translate(src("(forall (n Nat) (= n 0))"), config=FULL)
        assert isinstance(got, Forall)
        assert isinstance(got.body, Implies)

    def test_full_mode_species_quantifiers_are_plain(self):
        got = translate(src("(exists (X0 Species) (in 1 X0))"), config=FULL)
        assert isinstance(got, Exists)
        assert isinstance(got.body, Exists)
        assert got.var == "u0" and got.body.var == "v0"

    def test_expand_defined_matches_full_mode(self):
        f = src("(forall (n Nat) (exists (X0 Species) (in n X0)))")
        assert expand_defined(translate(f)) == translate(f, config=FULL)


class TestSpeciesEquality:
    def test_unfolds_to_translated_biconditional(self):
        got = translate(src("(seq X1 (sconst 2))"))
        x = Var("x", Sort.NAT)
        both = And(
            Implies(In(x, SpeciesVar(1)), In(x, SpeciesConst(2))),
            Implies(In(x, SpeciesConst(2)), In(x, SpeciesVar(1))),
        )
        want = translate(Forall("x", Sort.NAT, both))
        assert got == want

    def test_fresh_element_avoids_coding_names(self):
        vm = VarMap(species_vars={1: ("x", "x_1")}, sentinel="x_2")
        got = translate(src("(seq X1 X1)"), vm=vm)
        assert isinstance(got, DefinedQuant)
        assert got.var == "x_3"


class TestHomomorphism:
    @pytest.mark.parametrize("connective", ["and", "or", "imp"])
    @pytest.mark.parametrize("config", [None, FULL, NORMALIZED])
    def test_connectives_commute_with_translation(self, connective, config):
        left = src("(in 1 X1)")
        right = src("(exists (n Nat) (= n (pair 1 2)))")
        whole = src(f"({connective} (in 1 X1) "
                    "(exists (n Nat) (= n (pair 1 2))))")
        got = translate(whole, config=config)
        kind = {"and": And, "or": Or, "imp": Implies}[connective]
        want = kind(translate(left, config=config),
                    translate(right, config=config))
        assert got == want

    @pytest.mark.parametrize("f", corpus_formulas(count=40, seed=31))
    def test_connective_nodes_translate_nodewise(self, f):
        got = translate(f)
        for kind in (And, Or, Implies):
            if isinstance(f, kind):
                assert isinstance(got, kind)
                assert got.left == translate(f.left)
                assert got.right == translate(f.right)

    @pytest.mark.parametrize("f", corpus_formulas(count=40, seed=32))
    def test_closed_formulas_translate_to_sentinel_only_free_variable(self, f):
        for config in (None, FULL, NORMALIZED):
            out = translate(f, config=config)
            fv = free_vars(out)
            assert fv.species == frozenset()
            assert fv.real <= {"y"}

    def test_sentinel_is_the_only_new_free_variable_in_open_formulas(self):
        f = src("(in x X2)")
        out = translate(f)
        assert free_vars(out).real == {"x", "u2", "v2", "y"}


class TestVarMap:
    def test_custom_names_are_used(self):
        vm = VarMap(species_vars={1: ("p", "q")}, sentinel="z")
        got = printed(translate(src("(in x X1)"), vm=vm))
        assert got == "(imp (not (= (* x p) q)) (or (= z 0) (apart z 0)))"

    def test_duplicate_names_are_rejected(self):
        vm = VarMap(species_vars={1: ("p", "p")})
        with pytest.raises(TranslationError):
            translate(src("(in x X1)"), vm=vm)

    def test_sentinel_collision_is_rejected(self):
        vm = VarMap(species_vars={1: ("y", "q")})
        with pytest.raises(TranslationError):
            translate(src("(in x X1)"), vm=vm)

    def test_collision_with_formula_variables_is_rejected(self):
        vm = VarMap(species_vars={1: ("x", "q")})
        with pytest.raises(TranslationError):
            translate(src("(in x X1)"), vm=vm)

    def test_default_names_can_also_collide(self):
        with pytest.raises(TranslationError):
            translate(src("(in u1 X1)"))


class TestShadowing:
    def test_nested_rebinding_gets_a_fresh_index(self):
        f = src("(exists (X0 Species) (and (in 0 X0) "
                "(exists (X0 Species) (in 1 X0))))")
        got = translate(f)
        want = translate(src("(exists (X0 Species) (and (in 0 X0) "
                             "(exists (X1 Species) (in 1 X1))))"))
        assert got == want

    def test_inner_binder_keeps_outer_references_apart(self):
        f = src("(exists (X0 Species) (exists (X1 Species) "
                "(and (in 0 X0) (in 1 X1))))")
        out = translate(f)
        assert is_closed(out) or free_vars(out).real == {"y"}


class TestSourceValidation:
    def test_target_formulas_are_rejected(self):
        f = parse_formula("(= (rconst a1) 0)", Language.TARGET)
        with pytest.raises(Exception):
            translate(f)


@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_translation_is_deterministic(seed):
    fs = corpus_formulas(count=1, seed=seed)
    a = translate(fs[0], config=FULL)
    b = translate(fs[0], config=FULL)
    assert a == b


def test_corpus_translations_print_byte_for_byte_as_pinned():
    """3,200 translations (four corpus seeds, 200 formulas each, every
    orientation and expansion) hashed in that order; a change of any
    byte of any of them changes the digest."""
    digest = hashlib.sha256()
    for seed in (20240814, 1, 2, 3):
        for f in corpus_formulas(200, seed=seed):
            for orientation in Orientation:
                for expansion in Expansion:
                    config = TranslationConfig(expansion, orientation)
                    digest.update((printed(translate(f, config=config))
                                   + "\n").encode())
    assert digest.hexdigest() == (
        "6c6f1cc87959449b273990916c478bcd50c6ba680873481f8510274b72e504bb"
    )

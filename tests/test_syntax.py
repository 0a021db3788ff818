"""Tests for the abstract syntax layer: sorting, substitution, scoping."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ringterp.syntax import (
    BOT, Add, And, Apart, DefinedQuant, Eq, Exists, Forall, Implies, In,
    Language, Lt, Mul, NatConst, Or, Pair, QuantKind, RealConst, Sort,
    SortError, SpeciesConst, SpeciesEq, SpeciesVar, Succ, Var, alpha_equal,
    check_formula, free_vars, fresh_name, is_closed, neg, normalize_apart,
    species_binder_index, species_binder_name, substitute, term_sort,
)

x = Var("x", Sort.NAT)
n = Var("n", Sort.NAT)
rx = Var("x", Sort.REAL)
ry = Var("y", Sort.REAL)


class TestSorting:
    def test_source_terms_are_nat(self):
        t = Add(Mul(x, NatConst(2)), Succ(n))
        assert term_sort(t, Language.SOURCE) is Sort.NAT

    def test_target_terms_are_real(self):
        t = Add(Mul(rx, RealConst("a1")), ry)
        assert term_sort(t, Language.TARGET) is Sort.REAL

    def test_source_rejects_real_material(self):
        with pytest.raises(SortError):
            term_sort(RealConst("a1"), Language.SOURCE)
        with pytest.raises(SortError):
            term_sort(rx, Language.SOURCE)
        with pytest.raises(SortError):
            check_formula(DefinedQuant(QuantKind.EXISTS_NAT, "x", BOT),
                          Language.SOURCE)

    def test_target_rejects_source_material(self):
        with pytest.raises(SortError):
            term_sort(Pair(rx, ry), Language.TARGET)
        with pytest.raises(SortError):
            term_sort(Succ(rx), Language.TARGET)
        with pytest.raises(SortError):
            check_formula(In(rx, SpeciesConst(1)), Language.TARGET)
        with pytest.raises(SortError):
            check_formula(SpeciesEq(SpeciesConst(1), SpeciesConst(2)),
                          Language.TARGET)

    def test_check_formula_takes_language_names(self):
        check_formula(Eq(x, NatConst(0)), "source")
        check_formula(Eq(rx, NatConst(0)), "target")
        with pytest.raises(SortError):
            check_formula(Eq(rx, NatConst(0)), "source")
        with pytest.raises(ValueError, match="'Target' is not a valid"):
            check_formula(BOT, "Target")

    def test_source_allows_species_binders(self):
        f = Exists("X0", Sort.SPECIES, In(x, SpeciesVar(0)))
        check_formula(Forall("x", Sort.NAT, f), Language.SOURCE)

    def test_target_binders_must_be_real(self):
        with pytest.raises(SortError):
            check_formula(Exists("x", Sort.NAT, Eq(rx, rx)), Language.TARGET)

    def test_species_binder_names(self):
        assert species_binder_index("X0") == 0
        assert species_binder_index("X12") == 12
        assert species_binder_name(3) == "X3"
        with pytest.raises(ValueError):
            species_binder_index("Y1")
        with pytest.raises(ValueError):
            species_binder_index("X")

    def test_nat_const_rejects_negative(self):
        with pytest.raises(ValueError):
            NatConst(-1)


class TestFreeVars:
    def test_binding_removes_variable(self):
        f = Exists("x", Sort.NAT, Eq(x, n))
        fv = free_vars(f)
        assert fv.nat == frozenset({"n"})
        assert not is_closed(f)
        assert is_closed(Forall("n", Sort.NAT, f))

    def test_species_variables_tracked_by_index(self):
        f = In(x, SpeciesVar(4))
        assert free_vars(f).species == frozenset({4})
        g = Exists("X4", Sort.SPECIES, f)
        assert free_vars(g).species == frozenset()

    def test_constants_are_not_free_variables(self):
        f = Eq(Add(NatConst(1), NatConst(2)), NatConst(3))
        assert is_closed(f)
        assert is_closed(In(NatConst(1), SpeciesConst(2)))


class TestSubstitute:
    def test_replaces_free_occurrences(self):
        f = And(Eq(x, n), Exists("x", Sort.NAT, Eq(x, n)))
        g = substitute(f, "n", Sort.NAT, NatConst(5))
        assert g == And(Eq(x, NatConst(5)),
                        Exists("x", Sort.NAT, Eq(x, NatConst(5))))

    def test_bound_occurrences_untouched(self):
        f = Exists("x", Sort.NAT, Eq(x, x))
        assert substitute(f, "x", Sort.NAT, NatConst(3)) == f

    def test_capture_is_avoided(self):
        f = Exists("x", Sort.NAT, Eq(x, n))
        g = substitute(f, "n", Sort.NAT, x)
        assert isinstance(g, Exists)
        assert g.var != "x"
        assert g.body == Eq(Var(g.var, Sort.NAT), x)

    def test_sort_mismatch_raises(self):
        f = Eq(x, n)
        with pytest.raises(SortError):
            substitute(f, "x", Sort.NAT, ry)


class TestAlphaEqual:
    def test_renamed_binder_is_equal(self):
        f = Exists("x", Sort.NAT, Eq(x, NatConst(0)))
        g = Exists("z", Sort.NAT, Eq(Var("z", Sort.NAT), NatConst(0)))
        assert alpha_equal(f, g)

    def test_free_variables_must_match_exactly(self):
        assert not alpha_equal(Eq(x, x), Eq(n, n))

    def test_species_binders_rename(self):
        f = Exists("X0", Sort.SPECIES, In(x, SpeciesVar(0)))
        g = Exists("X7", Sort.SPECIES, In(x, SpeciesVar(7)))
        assert alpha_equal(f, g)
        assert not alpha_equal(f, Exists("X0", Sort.SPECIES,
                                         In(x, SpeciesConst(0))))

    def test_crossed_binders_are_distinguished(self):
        inner = lambda a, b: Lt(Var(a, Sort.NAT), Var(b, Sort.NAT))
        f = Exists("a", Sort.NAT, Exists("b", Sort.NAT, inner("a", "b")))
        g = Exists("b", Sort.NAT, Exists("a", Sort.NAT, inner("a", "b")))
        assert not alpha_equal(f, g)


class TestNormalizeApart:
    def test_top_level_unfolds_to_disjunction(self):
        f = normalize_apart(Apart(x, n))
        assert f == Or(Lt(x, n), Lt(n, x))

    def test_unfolds_under_connectives_and_binders(self):
        f = Forall("x", Sort.NAT, Implies(Apart(x, NatConst(0)), BOT))
        g = normalize_apart(f)
        assert g == Forall("x", Sort.NAT,
                           Implies(Or(Lt(x, NatConst(0)), Lt(NatConst(0), x)),
                                   BOT))


class TestFreshName:
    def test_base_kept_when_unused(self):
        assert fresh_name("u", {"v", "w"}) == "u"

    def test_counter_appended_on_clash(self):
        assert fresh_name("u", {"u"}) == "u_1"
        assert fresh_name("u", {"u", "u_1", "u_2"}) == "u_3"

    @given(st.sets(st.text(alphabet="uvw_123", min_size=1, max_size=4),
                   max_size=12))
    def test_result_never_collides(self, forbidden):
        assert fresh_name("u", forbidden) not in forbidden


def test_neg_builds_implication_to_bottom():
    assert neg(Eq(x, n)) == Implies(Eq(x, n), BOT)

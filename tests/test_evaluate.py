"""Tests for finite-structure evaluation of both languages."""

import pytest

from ringterp.corpus import SPECIES_SINGLETONS, corpus_formulas
from ringterp.encoder import SpeciesEncoding, encode_silent, encode_stabilized
from ringterp.evaluate import (
    EvalError, FiniteStructure, PrecisionError, StructureError, eval_formula,
    format_structure, parse_structure,
)
from ringterp.reals import Precision, RealGen, add, from_unit_fraction
from ringterp.sexpr import parse_formula
from ringterp.syntax import (
    And, Apart, Bottom, Eq, Exists, Forall, Formula, Implies, In, Language,
    Lt, Or, SpeciesEq, Var, Sort,
)
from ringterp.translate import Orientation, TranslationConfig, translate


def structure(**kwargs) -> FiniteStructure:
    kwargs.setdefault("nat_domain", (0, 1, 2, 3))
    kwargs.setdefault("species", {
        i: encode_stabilized(m, k) for i, (m, k) in SPECIES_SINGLETONS.items()
    })
    return FiniteStructure(**kwargs)


def ev(text: str, st: FiniteStructure, language: Language = Language.SOURCE,
       env=None) -> bool:
    return eval_formula(parse_formula(text, language), st, language, env=env)


class TestSourceAtoms:
    def test_arithmetic(self):
        st = structure()
        assert ev("(= (+ 1 2) 3)", st)
        assert not ev("(= (* 2 2) 5)", st)
        assert ev("(< 1 (succ 1))", st)
        assert ev("(apart 1 2)", st)
        assert not ev("(apart 2 2)", st)
        assert not ev("(bot)", st)

    def test_pairing_is_evaluated(self):
        st = structure()
        assert ev("(= (pair 1 1) 4)", st)

    def test_constant_membership_is_exact(self):
        st = structure()
        assert ev("(in 1 (sconst 1))", st)
        assert not ev("(in 2 (sconst 1))", st)
        assert ev("(in 2 (sconst 2))", st)

    def test_full_species_contains_everything(self):
        st = structure(species={3: encode_silent()})
        assert ev("(in 0 (sconst 3))", st)
        assert ev("(in 3 (sconst 3))", st)

    def test_species_equality(self):
        st = structure(species={
            1: encode_stabilized(2, 1),
            2: encode_stabilized(3, 2),
            3: encode_stabilized(5, 1),
            4: encode_silent(),
        })
        assert not ev("(seq (sconst 1) (sconst 2))", st)
        assert ev("(seq (sconst 1) (sconst 3))", st)
        assert ev("(seq (sconst 4) (sconst 4))", st)

    def test_species_equality_is_relative_to_the_domain(self):
        # Over the one-point domain {1} the full species and the
        # singleton {1} have the same restricted extension, exactly as
        # the translated pointwise biconditional would have it.
        st = FiniteStructure((1,), {1: encode_silent(),
                                    2: encode_stabilized(2, 1)})
        assert ev("(seq (sconst 1) (sconst 2))", st)

    def test_unbound_names_raise(self):
        st = structure()
        with pytest.raises(EvalError):
            ev("(= x 0)", st)
        with pytest.raises(EvalError):
            ev("(in 0 X4)", st)
        with pytest.raises(EvalError):
            ev("(in 0 (sconst 9))", st)

    def test_env_binds_term_variables(self):
        st = structure()
        assert ev("(= x 2)", st, env={"x": 2})


class TestSourceQuantifiers:
    def test_nat_quantifiers_range_over_the_domain(self):
        st = structure()
        assert ev("(exists (n Nat) (= (* n n) 4))", st)
        assert not ev("(exists (n Nat) (= (* n n) 5))", st)
        assert ev("(forall (n Nat) (< n 4))", st)
        assert not ev("(forall (n Nat) (< n 3))", st)

    def test_species_quantifiers_range_over_the_family(self):
        st = structure()
        assert ev("(exists (X0 Species) (and (in 1 X0) (not (in 2 X0))))", st)
        assert ev("(forall (X0 Species) (imp (in 1 X0) (in 1 X0)))", st)
        assert not ev("(forall (X0 Species) (in 1 X0))", st)

    def test_family_contains_the_definable_extensions(self):
        st = FiniteStructure((0, 1, 2))
        family = set(st.species_family)
        # Ordered pairs of f_0, f_1, f_2 define exactly these extensions
        # over 0..2 via the bounded relation n * a = b.
        assert family == {
            frozenset(), frozenset({0}), frozenset({1}), frozenset({2}),
            frozenset({0, 1, 2}),
        }

    def test_membership_beyond_the_family_bound_aborts(self):
        st = FiniteStructure((0, 1, 2))
        with pytest.raises(PrecisionError):
            ev("(exists (X0 Species) (in (+ 2 2) X0))", st)


class TestTargetEvaluation:
    def test_atoms(self):
        st = structure()
        tl = Language.TARGET
        assert ev("(= (+ 1 2) 3)", st, tl)
        assert ev("(< 1 2)", st, tl)
        assert not ev("(< 2 2)", st, tl)
        assert ev("(apart 1 2)", st, tl)
        assert not ev("(bot)", st, tl)

    def test_constants_name_the_coding_generators(self):
        st = structure()
        tl = Language.TARGET
        # as-written: membership of n in species i is n * a_i = b_i, so
        # the singleton {1} at moment 2 has a1 = 1/2 and b1 = 1/2.
        assert ev("(= (* 1 (rconst a1)) (rconst b1))", st, tl)
        assert not ev("(= (* 2 (rconst a1)) (rconst b1))", st, tl)
        assert ev("(= (* 2 (rconst a2)) (rconst b2))", st, tl)

    def test_normalized_orientation_swaps_the_pair(self):
        st = structure(orientation=Orientation.QUOTIENT_NORMALIZED)
        tl = Language.TARGET
        assert ev("(= (* 1 (rconst b1)) (rconst a1))", st, tl)
        assert ev("(= (* 2 (rconst b2)) (rconst a2))", st, tl)

    def test_defined_nat_quantifiers_range_over_domain_generators(self):
        st = structure()
        tl = Language.TARGET
        assert ev("(existsN (n) (= (* n n) 4))", st, tl)
        assert not ev("(existsN (n) (= (* n n) 5))", st, tl)
        assert ev("(forallN (n) (< n 4))", st, tl)

    def test_plain_and_defined_real_quantifiers_range_over_real_domain(self):
        st = structure()
        tl = Language.TARGET
        assert ev("(exists (r Real) (= r (rconst a1)))", st, tl)
        assert ev("(existsR (r) (= r (rconst b2)))", st, tl)
        assert ev("(forallR (r) (not (< r 0)))", st, tl)

    def test_env_binds_generators(self):
        st = structure()
        g = from_unit_fraction(4)
        assert ev("(< p 1)", st, Language.TARGET, env={"p": g})

    def test_unknown_constant_raises(self):
        st = structure()
        with pytest.raises(EvalError):
            ev("(= (rconst a9) 0)", st, Language.TARGET)


class TestSentinelForcing:
    def test_atoms_mentioning_the_sentinel_are_forced(self):
        false_st = structure(sentinel_true=False)
        true_st = structure(sentinel_true=True)
        tl = Language.TARGET
        for text in ["(= y 0)", "(apart y 0)", "(< y 1)",
                     "(or (= y 0) (apart y 0))"]:
            assert not ev(text, false_st, tl)
            assert ev(text, true_st, tl)

    def test_forcing_happens_before_term_lookup(self):
        # a9 is undefined, but the atom mentions the sentinel, so it is
        # forced without evaluating its terms.
        st = structure(sentinel_true=True)
        assert ev("(= y (rconst a9))", st, Language.TARGET)

    def test_bound_sentinel_is_an_ordinary_variable(self):
        st = structure(sentinel_true=True)
        assert not ev("(exists (y Real) (and (< 0 y) (< y 0)))", st,
                      Language.TARGET)

    def test_custom_sentinel_name(self):
        st = structure(sentinel="z", sentinel_true=True)
        assert ev("(= z 1)", st, Language.TARGET)
        with pytest.raises(EvalError):
            ev("(= y 1)", st, Language.TARGET)


class TestConstructionChecks:
    def test_domains_are_validated(self):
        with pytest.raises(StructureError):
            FiniteStructure(())
        with pytest.raises(StructureError):
            FiniteStructure((-1,))
        with pytest.raises(StructureError):
            FiniteStructure((0,), {-1: encode_silent()})
        with pytest.raises(StructureError):
            FiniteStructure((0,), {1: "not an encoding"})

    def test_insufficient_horizon_is_a_precision_error(self):
        enc = encode_stabilized(200, 1)
        with pytest.raises(PrecisionError):
            FiniteStructure((0, 1), {1: enc}, precision=Precision(16, 96))

    def test_lying_modulus_is_a_structure_error(self):
        bad = RealGen(lambda x: 0 if x % 2 else 1 << x, lambda k: 0, "bad")
        enc = SpeciesEncoding(bad, bad, (1, 1))
        with pytest.raises(StructureError):
            FiniteStructure((0, 1), {1: enc})

    def test_inconsistent_extension_is_a_structure_error(self):
        # Claims to be the singleton {1} at moment 2 but codes 1/3, 1/2.
        enc = SpeciesEncoding(from_unit_fraction(3), from_unit_fraction(2),
                              (2, 1))
        with pytest.raises(StructureError):
            FiniteStructure((0, 1), {1: enc})

    def test_undecidable_equality_is_a_precision_error(self):
        st = FiniteStructure((0, 1), precision=Precision(30, 6))
        p = from_unit_fraction(3)
        q = add(from_unit_fraction(6), from_unit_fraction(6))
        f = Eq(Var("p", Sort.REAL), Var("q", Sort.REAL))
        with pytest.raises(PrecisionError):
            eval_formula(f, st, Language.TARGET, env={"p": p, "q": q})


    def test_precision_resolves_every_singleton_gap(self):
        # m * value = 90000 needs bits(90000) + 2 = 19 digits: at k = 16
        # the candidate 299 would be witnessed equal to the member 300.
        for orientation in Orientation:
            st = parse_structure("nats: 0 299\n"
                                 "species: 1 singleton 300 moment 300\n"
                                 f"orientation: {orientation.value}\n"
                                 "precision: k=16 horizon=400\n")
            assert st.precision == Precision(19, 400)
            config = TranslationConfig(orientation=orientation)
            for n, member in ((299, False), (300, True)):
                f = parse_formula(f"(in {n} (sconst 1))", Language.SOURCE)
                assert eval_formula(f, st, Language.SOURCE) is member
                target = translate(f, config=config)
                assert eval_formula(target, st, Language.TARGET) is member

    def test_small_gaps_keep_the_given_precision(self):
        # Every singleton with m * value < 2^(k - 2) keeps k, so the
        # structure prints as before.
        text = ("# ringterp structure v1\n"
                "nats: 0 1 2 3\n"
                "species: 1 singleton 63 moment 65\n"
                "species: 2 full\n"
                "orientation: as-written\n"
                "precision: k=16 horizon=120\n"
                "sentinel: y\n")
        st = parse_structure(text)
        assert st.precision == Precision(16, 120)
        assert format_structure(st) == text
        assert structure().precision == Precision()


class TestStructureText:
    def test_round_trip(self):
        st = structure(orientation=Orientation.QUOTIENT_NORMALIZED,
                       precision=Precision(20, 80), sentinel="z")
        text = format_structure(st)
        back = parse_structure(text)
        assert back.nat_domain == st.nat_domain
        assert back.orientation is st.orientation
        assert back.precision == st.precision
        assert back.sentinel == st.sentinel
        assert {i: e.stabilized for i, e in back.species.items()} \
            == {i: e.stabilized for i, e in st.species.items()}

    def test_full_species_round_trip(self):
        st = structure(species={4: encode_silent()})
        back = parse_structure(format_structure(st))
        assert back.species[4].stabilized is None

    def test_sentinel_true_flag_is_a_parse_argument(self):
        st = structure()
        back = parse_structure(format_structure(st), sentinel_true=True)
        assert back.sentinel_true

    def test_comments_and_blank_lines_are_ignored(self):
        text = "# a structure\n\nnats: 0 1\n# done\n"
        assert parse_structure(text).nat_domain == (0, 1)

    @pytest.mark.parametrize("text", [
        "",
        "species: 1 full\n",
        "nats: 0 zero\n",
        "nats: 0\nspecies: 1 full\nspecies: 1 full\n",
        "nats: 0\nspecies: 1 singleton 2\n",
        "nats: 0\norientation: sideways\n",
        "nats: 0\nprecision: k=16\n",
        "nats: 0\nprecision: k=16 horizon=64 extra=1\n",
        "nats: 0\nwibble: 3\n",
        "nats 0\n",
    ])
    def test_malformed_structures_raise(self, text):
        with pytest.raises(StructureError):
            parse_structure(text)


def is_existential_positive(f: Formula) -> bool:
    if isinstance(f, (Bottom, Eq, Lt, Apart, In, SpeciesEq)):
        return True
    if isinstance(f, (And, Or)):
        return (is_existential_positive(f.left)
                and is_existential_positive(f.right))
    if isinstance(f, Exists):
        return is_existential_positive(f.body)
    return False


class TestDomainMonotonicity:
    def test_existential_positive_truth_survives_domain_growth(self):
        small = FiniteStructure((0, 1, 2, 3), {
            i: encode_stabilized(m, k)
            for i, (m, k) in SPECIES_SINGLETONS.items()
        })
        big = FiniteStructure((0, 1, 2, 3, 4), {
            i: encode_stabilized(m, k)
            for i, (m, k) in SPECIES_SINGLETONS.items()
        })
        checked = 0
        for f in corpus_formulas(count=150, seed=5):
            if not is_existential_positive(f):
                continue
            if eval_formula(f, small, Language.SOURCE):
                checked += 1
                assert eval_formula(f, big, Language.SOURCE)
        assert checked >= 10

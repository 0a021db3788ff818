"""Tests for finite-structure evaluation of both languages."""

import itertools
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from ringterp.corpus import (
    SPECIES_SINGLETONS, collapse_structure, corpus_formulas,
)
from ringterp.encoder import (
    MembershipStatus, SpeciesEncoding, encode_silent, encode_stabilized,
    membership_at, quotient_status,
)
from ringterp.evaluate import (
    EvalError, FiniteStructure, PrecisionError, StructureError, eval_formula,
    format_structure, parse_structure,
)
from ringterp import evaluate, pairing, reals
from ringterp.pairing import MAX_TERM_BITS, pair
from ringterp.reals import Precision, RealGen, add, from_nat, \
    from_unit_fraction, mul, nat_scalar
from ringterp.sexpr import parse_formula
from ringterp.syntax import (
    BOT, Add, And, Apart, Bottom, DefinedQuant, Eq, Exists, Forall, Formula,
    Implies, In, Language, Lt, Mul, NatConst, Or, Pair, QuantKind, RealConst,
    SENTINEL_FORMULA, SortError, SpeciesConst, SpeciesEq, SpeciesVar, Succ,
    Term, Var, Sort, all_var_names, check_formula, children, rebuild,
    species_binder_index,
)
from ringterp.translate import (
    SENTINEL, Expansion, Orientation, TranslationConfig, TranslationError,
    nat_predicate, translate,
)
from test_reals import faulty, frozen_relation, trees
from test_syntax import reference_check_formula


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


def exact_value(g: RealGen) -> Fraction:
    """The rational a library generator denotes, from its record."""
    return Fraction(*g._exact[:2])


def scanning_family(s: FiniteStructure) -> tuple[frozenset[int], ...]:
    """Reference implementation: the species family with every pair
    decided by nat_scalar, eq_at and lt_at, as before any pair was
    decided from exact values.  A witness that contradicts the exact
    values raises, as an undecided pair does."""
    prec, sets = s.precision, []
    for ga in s.real_domain:
        for gb in s.real_domain:
            scaled, other = s.orientation.orient(ga, gb)
            members = set()
            for n in range(s.family_bound + 1):
                left = reals.nat_scalar(n, scaled)
                fault = "undetermined"
                if reals.eq_at(left, other, prec):
                    verdict = True
                elif (reals.lt_at(left, other, prec)
                      or reals.lt_at(other, left, prec)):
                    verdict = False
                else:
                    verdict = None
                if verdict is not None:
                    exact = n * exact_value(scaled) == exact_value(other)
                    if exact is verdict:
                        if verdict:
                            members.add(n)
                        continue
                    fault = "witnessed against its exact value"
                raise PrecisionError(
                    f"relation {n} * {scaled.name or '?'} = "
                    f"{other.name or '?'} {fault} at k={prec.k}, "
                    f"horizon={prec.horizon}")
            if frozenset(members) not in sets:
                sets.append(frozenset(members))
    return tuple(sets)


species_maps = hs.dictionaries(
    hs.integers(min_value=0, max_value=3),
    hs.one_of(hs.builds(encode_silent),
              hs.builds(encode_stabilized, hs.integers(1, 6),
                        hs.integers(1, 12))),
    max_size=2)


class TestFamilyOfNaturals:
    """Pairs decided from exact values get the verdicts, family order and
    errors of the scanning path."""

    @given(domain=hs.sets(hs.integers(0, 12), min_size=1, max_size=5),
           species=species_maps, orientation=hs.sampled_from(Orientation),
           k=hs.integers(1, 12), horizon=hs.integers(2, 24))
    def test_family_matches_the_scanning_path(self, domain, species,
                                              orientation, k, horizon):
        try:
            s = FiniteStructure(domain, species, orientation,
                                Precision(k, horizon))
        except (PrecisionError, StructureError):
            return
        assert (outcome(lambda: s.species_family)
                == outcome(scanning_family, s))

    @pytest.mark.parametrize("domain, species, orientation, k, horizon", [
        ((2, 5, 12), {0: (2, 6), 1: (2, 11)}, Orientation.AS_WRITTEN, 5, 11),
        ((7, 11), {0: (3, 9), 1: (4, 4)}, Orientation.AS_WRITTEN, 6, 11),
        ((8,), {0: (1, 3), 1: (6, 12)}, Orientation.QUOTIENT_NORMALIZED,
         10, 12),
        ((0, 4, 10), {0: (6, 1), 1: (1, 2)}, Orientation.AS_WRITTEN, 6, 8),
    ])
    def test_undecided_pairs_raise_as_the_scanning_path(
            self, domain, species, orientation, k, horizon):
        s = FiniteStructure(domain, {i: encode_stabilized(*run) for i, run
                                     in species.items()},
                            orientation, Precision(k, horizon))
        got = outcome(lambda: s.species_family)
        assert got[0] is PrecisionError
        assert got == outcome(scanning_family, s)

    def test_pairs_of_naturals_run_no_search(self, monkeypatch):
        calls = []
        for target in ("ringterp.reals.eq_at", "ringterp.reals.lt_at",
                       "ringterp.reals.nat_scalar"):
            module, name = target.rsplit(".", 1)
            search = getattr(reals, name)
            monkeypatch.setattr(target, lambda *args, search=search: (
                calls.append(args) or search(*args)))
        # the family of a naturals-only structure, and _verify of a
        # silent species, whose pair is from_nat(0), from_nat(0): no
        # search, and no generator for n * scaled
        FiniteStructure(range(13)).species_family
        FiniteStructure((0, 1, 2), {0: encode_silent(), 1: encode_silent()})
        # a singleton's pairs, at a horizon past its moment
        s = FiniteStructure((0, 1), {1: encode_stabilized(2, 1)})
        s.species_family
        assert calls == []
        # with a moment past the horizon, every stage searched reads 0
        late = encode_stabilized(s.precision.horizon + 1, 1)
        assert s.relation_holds(1, late.v, late.u)
        assert calls
        # and equality is witnessed for 2 * v = u, against the exact values
        with pytest.raises(PrecisionError, match="against its exact value"):
            s.relation_holds(2, late.v, late.u)


def count_searches(monkeypatch) -> list:
    """Record the arguments of every eq_at and lt_at call."""
    calls: list = []
    for name in ("eq_at", "lt_at"):
        search = getattr(reals, name)
        monkeypatch.setattr(reals, name, lambda *args, search=search: (
            calls.append(args) or search(*args)))
    return calls


def count_comparisons(monkeypatch) -> list:
    """Record the atom class of every run of a compiled comparison."""
    runs: list = []
    comparison = evaluate._Compiler.comparison

    def counted(self, cls, left, right):
        thunk = comparison(self, cls, left, right)
        return lambda: runs.append(cls) or thunk()
    monkeypatch.setattr(evaluate._Compiler, "comparison", counted)
    return runs


class TestWork:
    """Time-free guards: over a structure shaped like those of ringterp
    eval, the records decide every comparison without a search; and the
    compiler runs no instance and builds no closure it can do without."""

    TEXT = ("nats: 0 2 3 4\nspecies: 1 singleton 3 moment 2\n"
            "species: 2 singleton 4 moment 1\norientation: {}\n"
            "precision: k=12 horizon=20\n")

    def test_translated_corpus_formulas_run_no_search(self, monkeypatch):
        calls = count_searches(monkeypatch)
        for orientation in Orientation:
            config = TranslationConfig(Expansion.MACRO, orientation)
            for f in corpus_formulas(count=20):
                text = self.TEXT.format(orientation.value)
                plain = parse_structure(text)
                target = translate(f, config=config)
                assert (eval_formula(f, plain, Language.SOURCE)
                        == eval_formula(target, plain, Language.TARGET))
                assert eval_formula(target, parse_structure(
                    text, sentinel_true=True), Language.TARGET)
        assert calls == []

    def test_an_undecided_pair_is_searched_once(self, monkeypatch):
        calls = count_searches(monkeypatch)
        # 1/4 against 1/5 at k = 4, horizon 6: the records prove nothing
        # and no search is witnessed
        env = {"z": from_unit_fraction(4), "w": from_unit_fraction(5)}
        s = structure(species={}, precision=Precision(4, 6))
        # the first atom scans eq_at, then lt_at each way; apart and =
        # read the same verdict
        for text in ("(< z w)", "(apart z w)"):
            f = parse_formula(text, Language.TARGET)
            for _ in range(2):
                assert not eval_formula(f, s, Language.TARGET, env)
            assert len(calls) == 3
        f = parse_formula("(= z w)", Language.TARGET)
        for _ in range(2):
            with pytest.raises(PrecisionError, match="undetermined"):
                eval_formula(f, s, Language.TARGET, env)
        assert len(calls) == 3

    def test_a_vacuous_binder_runs_its_body_once(self, monkeypatch):
        runs = count_comparisons(monkeypatch)
        st = collapse_structure()
        assert len(st.real_domain) == 8
        for text, count in [("(forallR (u) (forallR (v) (= 1 1)))", 1),
                            ("(forallR (u) (forallR (v) (= u u)))", 8),
                            ("(existsR (u) (forallR (v) (< v 9)))", 8),
                            ("(forallR (u) (forallR (u) (= u u)))", 8)]:
            runs.clear()
            eval_formula(parse_formula(text, Language.TARGET), st,
                         Language.TARGET)
            assert len(runs) == count, text

    def test_a_translated_membership_compiles_only_its_atom(
            self, monkeypatch):
        compiled: list = []
        target = evaluate._Compiler.target
        monkeypatch.setattr(evaluate._Compiler, "target", lambda self, f,
                            scope: compiled.append(f) or target(self, f, scope))
        f = translate(parse_formula("(in 0 (sconst 1))", Language.SOURCE))
        assert f.right is SENTINEL_FORMULA and f.left.right == BOT
        for sentinel_true in (False, True):
            st = collapse_structure(sentinel_true=sentinel_true)
            assert eval_formula(f, st, Language.TARGET) is sentinel_true
        # no closure for φ, ⊥ or either negation
        assert compiled == [f, f.left.left] * 2

    def test_construction_asks_small_domains_in_turn_and_large_ones_open(
            self, monkeypatch):
        asked: list = []
        monkeypatch.setattr(evaluate, "membership_at", lambda enc, n, prec:
                            asked.append(n) or membership_at(enc, n, prec))
        enc = encode_stabilized(2, 3)
        # below 8 candidates every one; from 8 on only the undecided run
        # of {3}, which is 3 alone, and the probe 0
        for top, want in [(6, list(range(7))), (7, [0, 3]), (60, [0, 3])]:
            asked.clear()
            s = FiniteStructure(range(top + 1), {1: enc})
            assert reals.undecided_run(enc.v, enc.u, top,
                                       s.precision) == range(3, 4)
            assert asked == want, top

    def test_memo_runs_an_op_once_per_key(self):
        # A None verdict (no witness) is cached like any other.
        s = structure()
        a, b = s.real_domain[:2]
        calls = []

        def stub(x, y, prec):
            calls.append((x, y, prec))
            return None if x is a else len(calls)

        def other(x, y, prec):
            calls.append((x, y, prec))
            return "other"

        for _ in range(3):
            assert s.memo(stub, a, b, s.precision) is None
            assert s.memo(stub, b, a, s.precision) == 2
            assert s.memo(stub, a, a, s.precision) is None
            assert s.memo(other, a, b, s.precision) == "other"
        assert calls == [(a, b, s.precision), (b, a, s.precision),
                         (a, a, s.precision), (a, b, s.precision)]


def relation_outcome(s: FiniteStructure, scaled: RealGen, other: RealGen,
                     candidates) -> object:
    """The members relation_holds finds among candidates, or the message
    of the first PrecisionError it raises."""
    try:
        return frozenset(n for n in candidates
                         if s.relation_holds(n, scaled, other))
    except PrecisionError as exc:
        return str(exc)


class TestFamilyCandidates:
    """The family asks relation_holds only about the candidates the
    records leave, and gets the members and the first error that asking
    about every candidate gets."""

    @settings(max_examples=400)
    @given(scaled=trees, other=trees, top=hs.integers(0, 40),
           k=hs.integers(1, 16), horizon=hs.integers(1, 24))
    def test_skipped_candidates_change_nothing(self, scaled, other, top, k,
                                               horizon):
        s = FiniteStructure(range(top + 1), precision=Precision(k, horizon))
        asked = reals.undecided_run(scaled, other, s.family_bound,
                                    s.precision)
        assert (relation_outcome(s, scaled, other, asked)
                == relation_outcome(s, scaled, other, range(top + 1)))

    def test_most_candidates_are_skipped(self):
        s = FiniteStructure(range(61), {0: encode_stabilized(1, 9),
                                        1: encode_silent()})
        asked = [len(reals.undecided_run(*s.orientation.orient(a, b),
                                         s.family_bound, s.precision))
                 for a in s.real_domain for b in s.real_domain]
        # the pair 0, 0 has every candidate as its member
        assert sum(asked) < len(asked) + 2 * 61


def exact_family(s: FiniteStructure) -> tuple[frozenset[int], ...]:
    """The species family the exact values of the generators define."""
    sets: list[frozenset[int]] = []
    for ga in s.real_domain:
        for gb in s.real_domain:
            scaled, other = map(exact_value, s.orientation.orient(ga, gb))
            members = frozenset(n for n in range(s.family_bound + 1)
                                if n * scaled == other)
            if members not in sets:
                sets.append(members)
    return tuple(sets)


species_lines = hs.lists(
    hs.one_of(hs.just("full"),
              hs.builds("singleton {} moment {}".format, hs.integers(1, 12),
                        hs.integers(1, 6))),
    max_size=2)


class TestVerdictsAgreeWithExactValues:
    """Over small singleton and silent structures at low precisions, a
    verdict of the family or of _verify is the exact one, or the
    structure raises PrecisionError; a truthful encoding is never
    reported as a StructureError."""

    @given(domain=hs.sets(hs.integers(0, 12), min_size=1, max_size=4),
           species=species_lines, orientation=hs.sampled_from(Orientation),
           k=hs.integers(1, 12), horizon=hs.integers(2, 24))
    def test_verdicts_are_exact_or_raise(self, domain, species, orientation,
                                         k, horizon):
        text = "".join([
            "nats: " + " ".join(map(str, sorted(domain))) + "\n",
            *(f"species: {i} {line}\n" for i, line in enumerate(species)),
            f"orientation: {orientation.value}\n",
            f"precision: k={k} horizon={horizon}\n"])
        try:
            s = parse_structure(text)
        except PrecisionError:
            return
        for enc in s.species.values():
            for n in range(s.family_bound + 1):
                member = enc.stabilized is None or n == enc.stabilized[1]
                assert (quotient_status(enc, n, s.precision)
                        is MembershipStatus.CONFIRMED) is member
        try:
            family = s.species_family
        except PrecisionError:
            return
        assert family == exact_family(s)

    def test_the_misjudged_member_of_a_short_horizon(self):
        text = ("nats: 0 9\nspecies: 0 singleton 9 moment 1\n"
                "precision: k=1 horizon={}\n")
        with pytest.raises(PrecisionError, match="against its exact value"):
            parse_structure(text.format(8))
        s = parse_structure(text.format(10))
        assert s.species_family == exact_family(s)


def frozen_quotient_status(enc: SpeciesEncoding, n: int,
                           prec: Precision) -> MembershipStatus:
    """Reference implementation: quotient_status as it was before
    encoder.membership_at, whose scanned verdicts were not checked
    against the records."""
    if enc.stabilized is not None and prec.horizon < enc.stabilized[0]:
        return MembershipStatus.UNDETERMINED
    verdict = reals.exact_relation(n, enc.v, enc.u, prec)
    if verdict is None:
        order = reals.order_at(reals.nat_scalar(n, enc.v), enc.u, prec)
        if order is None:
            return MembershipStatus.UNDETERMINED
        verdict = order == 0
    return (MembershipStatus.CONFIRMED if verdict
            else MembershipStatus.EXCLUDED)


def frozen_verify(self: FiniteStructure) -> None:
    """Reference implementation: FiniteStructure._verify as it was
    before encoder.membership_at, which checked a scanned status
    against the records only where it missed the extension."""
    seen: set[RealGen] = set()
    for g in self.real_domain:
        if g in seen:
            continue
        seen.add(g)
        try:
            ok = reals.check_certified(g, self.precision)
        except reals.InsufficientHorizon as exc:
            raise PrecisionError(
                f"structure precision cannot host a generator: {exc}"
            ) from exc
        if not ok:
            raise StructureError(
                f"generator {g.name or '?'} violates its modulus promise")
    for i, enc in self.species.items():
        for n in range(self.family_bound + 1):
            status = frozen_quotient_status(enc, n, self.precision)
            member = enc.stabilized is None or n == enc.stabilized[1]
            if status is MembershipStatus.UNDETERMINED:
                fault = "undetermined"
            elif (status is MembershipStatus.CONFIRMED) == member:
                continue
            elif reals.exact_sign(reals.nat_scalar(n, enc.v)._exact,
                                  enc.u._exact) in ((0,) if member
                                                    else (-1, 1)):
                fault = "witnessed against its exact value"
            else:
                raise StructureError(
                    f"species {i} encoding disagrees with its extension "
                    f"at candidate {n}")
            raise PrecisionError(
                f"membership of {n} in species {i} is {fault} "
                f"at k={self.precision.k}, "
                f"horizon={self.precision.horizon}")


def frozen_candidates(s: FiniteStructure, scaled: RealGen,
                      other: RealGen) -> range:
    """Reference implementation: FiniteStructure._candidates as it was
    before reals.undecided_run."""
    top, a, b = s.family_bound, scaled._exact, other._exact
    if a is None or b is None or a[0] == b[0] == 0:
        return range(top + 1)
    p, q = b[0] * a[1], a[0] * b[1]
    lo = min(-(-p // q), top + 1) if q else top + 1
    hi = min(p // q + 1, top + 1) if q else top + 1

    def undecided(n: int) -> bool:
        return reals.exact_relation(n, scaled, other, s.precision) is None
    while lo and undecided(lo - 1):
        lo -= 1
    while hi <= top and undecided(hi):
        hi += 1
    return range(lo, hi)


def frozen_family(s: FiniteStructure) -> tuple[frozenset[int], ...]:
    """Reference implementation: the species family as it was before
    reals.relation_at, asking frozen_relation about frozen_candidates."""
    sets: list[frozenset[int]] = []
    for ga in s.real_domain:
        for gb in s.real_domain:
            scaled, other = s.orientation.orient(ga, gb)
            members = set()
            for n in frozen_candidates(s, scaled, other):
                verdict = frozen_relation(n, scaled, other, s.precision)
                if isinstance(verdict, str):
                    raise PrecisionError(
                        f"relation {n} * {scaled.name or '?'} = "
                        f"{other.name or '?'} {verdict} at k={s.precision.k}, "
                        f"horizon={s.precision.horizon}")
                if verdict:
                    members.add(n)
            if frozenset(members) not in sets:
                sets.append(frozenset(members))
    return tuple(sets)


def frozen_outcome(make) -> object:
    """outcome of make() with _verify and the family frozen."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(FiniteStructure, "_verify", frozen_verify)
        m.setattr(FiniteStructure, "species_family", property(frozen_family))
        return outcome(make)


class TestAgainstTheFrozenStructure:
    """Over library structures, construction and the family give the
    values, error types and messages of the frozen _verify and family."""

    @settings(max_examples=300)
    @given(domain=hs.sets(hs.integers(0, 12), min_size=1, max_size=4),
           species=species_lines, orientation=hs.sampled_from(Orientation),
           k=hs.integers(1, 12), horizon=hs.integers(1, 16))
    def test_library_structures(self, domain, species, orientation, k,
                                horizon):
        text = "".join([
            "nats: " + " ".join(map(str, sorted(domain))) + "\n",
            *(f"species: {i} {line}\n" for i, line in enumerate(species)),
            f"orientation: {orientation.value}\n",
            f"precision: k={k} horizon={horizon}\n"])

        def family():
            return parse_structure(text).species_family
        assert outcome(family) == frozen_outcome(family)

    def test_a_grid_of_two_singletons(self):
        # short horizons, where membership and family faults are common
        errors = set()
        for value, moment, horizon, orientation in itertools.product(
                range(1, 13), (1, 2, 3), range(6, 15, 2), Orientation):
            text = (f"nats: 0 3 12\n"
                    f"species: 0 singleton {value} moment {moment}\n"
                    f"species: 1 singleton {13 - value} moment 1\n"
                    f"orientation: {orientation.value}\n"
                    f"precision: k=1 horizon={horizon}\n")

            def family():
                return parse_structure(text).species_family
            got = outcome(family)
            assert got == frozen_outcome(family), text
            if isinstance(got[0], type):
                errors.add(got[1].split()[0])
        assert errors == {"structure", "membership", "relation"}

    def test_a_hand_built_encoding_against_its_records(self):
        # The pair of encode_stabilized(1, 9), declared the singleton
        # {10}: at horizon 8 the scan sees 9 * v below u, which the
        # declared extension agrees with and the records refute.  The
        # frozen _verify accepted it; now the witness is the fault.
        enc = encode_stabilized(1, 9)
        lying = SpeciesEncoding(enc.u, enc.v, (1, 10))

        def build():
            return FiniteStructure((0, 9), {0: lying},
                                   precision=Precision(6, 8))
        assert type(frozen_outcome(build)) is FiniteStructure
        assert outcome(build) == (
            PrecisionError, "membership of 9 in species 0 is witnessed "
            "against its exact value at k=6, horizon=8")


def frozen_ascending_verify(self: FiniteStructure) -> None:
    """Reference implementation: FiniteStructure._verify as it was
    before it asked only about the undecided run and the probes, asking
    membership_at about every candidate 0..family_bound in turn."""
    for g in dict.fromkeys(self.real_domain):
        try:
            ok = reals.check_certified(g, self.precision)
        except reals.InsufficientHorizon as exc:
            raise PrecisionError(
                f"structure precision cannot host a generator: {exc}"
            ) from exc
        if not ok:
            raise StructureError(
                f"generator {g.name or '?'} violates its modulus promise"
            )
    for i, enc in self.species.items():
        for n in range(self.family_bound + 1):
            verdict = membership_at(enc, n, self.precision)
            if verdict is (enc.stabilized is None
                           or n == enc.stabilized[1]):
                continue
            if isinstance(verdict, bool):
                raise StructureError(
                    f"species {i} encoding disagrees with its extension "
                    f"at candidate {n}"
                )
            raise PrecisionError(
                f"membership of {n} in species {i} is {verdict} "
                f"at k={self.precision.k}, "
                f"horizon={self.precision.horizon}"
            )


def verify_outcomes(make) -> tuple[object, object]:
    """outcome of make(), then with the frozen ascending _verify."""
    got = outcome(make)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(FiniteStructure, "_verify", frozen_ascending_verify)
        return got, outcome(make)


_third, _ninth, _tenth, _eleventh = (from_unit_fraction(q)
                                     for q in (3, 9, 10, 11))
_three, _nine = encode_stabilized(2, 3), encode_stabilized(2, 9)
_silent = encode_silent()

# Encodings whose declared extension may not be what their pair codes,
# and whose generators may start before the declared moment.
HAND_BUILT = [
    _three,
    SpeciesEncoding(_silent.u, _silent.v, (1, 3)),  # singleton, silent pair
    SpeciesEncoding(_three.u, _three.v, None),  # full, singleton pair
    SpeciesEncoding(_three.u, _three.v, (2, 5)),  # a wrong value above
    SpeciesEncoding(_three.u, _three.v, (2, 1)),  # a wrong value below
    SpeciesEncoding(_nine.u, _nine.v, (2, 4)),  # a member before the run
    SpeciesEncoding(from_nat(0), _third, (1, 2)),  # 0 is the exact member
    SpeciesEncoding(from_nat(0), _third, (1, 0)),
    SpeciesEncoding(from_nat(0), _third, None),
    SpeciesEncoding(_tenth, _eleventh, (1, 1)),  # 1/10 against 1/11
    SpeciesEncoding(_tenth, _eleventh, None),
    SpeciesEncoding(_third, _ninth, (30, 3)),  # generators start at 0
    SpeciesEncoding(_third, _ninth, (30, 4)),
]


class TestVerifyAsksOnlyOpenCandidates:
    """Construction gives the first error, its type and its message, of
    the frozen _verify that asked about every candidate in turn."""

    @settings(max_examples=200)
    @given(domain=hs.sets(hs.integers(0, 40), min_size=1, max_size=4),
           species=species_lines, k=hs.integers(1, 12),
           horizon=hs.integers(1, 20))
    def test_library_structures(self, domain, species, k, horizon):
        text = "".join([
            "nats: " + " ".join(map(str, sorted(domain))) + "\n",
            *(f"species: {i} {line}\n" for i, line in enumerate(species)),
            f"precision: k={k} horizon={horizon}\n"])

        def build():
            return format_structure(parse_structure(text))
        got, want = verify_outcomes(build)
        assert got == want, text

    def test_hand_built_encodings(self):
        seen = set()
        for enc, domain, k, horizon in itertools.product(
                HAND_BUILT, [(0,), (0, 1), (0, 3, 12), range(8), (2, 5, 40)],
                (1, 6, 8), (4, 8, 18, 30, 64)):
            def build():
                s = FiniteStructure(domain, {0: enc, 1: _three},
                                    precision=Precision(k, horizon))
                return format_structure(s)
            got, want = verify_outcomes(build)
            assert got == want, (enc, domain, k, horizon)
            seen.add("accepted" if type(got) is str
                     else re.sub(r"\d+", "#", got[1].split(" at ")[0]))
        assert seen >= {
            "accepted",
            "species # encoding disagrees with its extension",
            "membership of # in species # is undetermined",
            "membership of # in species # is witnessed against its exact "
            "value"}, seen
        # below the moment 30 the generators of 1/3 and 1/9 are certified
        got, want = verify_outcomes(lambda: FiniteStructure(
            range(9), {0: HAND_BUILT[-2]}, precision=Precision(8, 18)))
        assert got == want == (PrecisionError, "membership of 0 in species "
                               "0 is undetermined at k=9, horizon=18")


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

    def test_a_sentinel_line_other_than_y_is_rejected(self):
        with pytest.raises(StructureError) as err:
            parse_structure("nats: 0 1 2 3\nsentinel: z\n")
        assert str(err.value) == "sentinel must be y, got 'z'"

    def test_sentinel_true_is_keyword_only(self):
        # An old positional call passed the sentinel name in this place.
        with pytest.raises(TypeError):
            FiniteStructure((0, 1), {}, Orientation.AS_WRITTEN, None, True)
        with pytest.raises(TypeError):
            structure(sentinel="z")


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

    @pytest.mark.parametrize("domain", [[1, "a"], [1.5], [True], [0, 2.0]])
    def test_nat_domain_elements_are_ints(self, domain):
        with pytest.raises(StructureError,
                           match="nat domain elements must be naturals"):
            FiniteStructure(domain)

    @pytest.mark.parametrize("index", ["x", 1.5, True, -1])
    def test_species_indices_are_ints(self, index):
        # "x" alone, and beside 1, used to be a TypeError; 1.5 named the
        # constants a1.5 and b1.5
        for species in ({index: encode_silent()},
                        {index: encode_silent(), 1: encode_silent()}):
            with pytest.raises(StructureError,
                               match="species indices must be naturals"):
                FiniteStructure((0,), species)

    def test_insufficient_horizon_is_a_precision_error(self):
        enc = encode_stabilized(200, 1)
        with pytest.raises(PrecisionError):
            FiniteStructure((0, 1), {1: enc}, precision=Precision(16, 96))

    def test_lying_modulus_is_a_structure_error(self):
        bad = faulty(lambda x: 0 if x % 2 else 1 << x, lambda k: 0, "bad")
        enc = SpeciesEncoding(bad, bad, (1, 1))
        with pytest.raises(StructureError):
            FiniteStructure((0, 1), {1: enc})

    @pytest.mark.parametrize("u, v, error, message", [
        # a generator whose promise fails is scanned and rejected
        (faulty(lambda x: 0 if x % 2 else 1 << x, lambda k: 0, "bad"),
         from_unit_fraction(2), StructureError,
         "generator bad violates its modulus promise"),
        (from_unit_fraction(2), faulty(lambda x: 1 << (x // 2),
                                       lambda k: k, "slow"),
         StructureError, "generator slow violates its modulus promise"),
        # a library sum over it too
        (add(from_unit_fraction(2), faulty(
            lambda x: 0 if x % 2 else 1 << x, lambda k: 0, "bad")),
         from_unit_fraction(2), StructureError,
         "generator (1/2+bad) violates its modulus promise"),
        # a lazy hint
        (faulty(lambda x: 0, lambda k: 1000, "lazy"), from_unit_fraction(2),
         PrecisionError, "structure precision cannot host a generator: "
                         "lazy: hint(0) = 1000 exceeds horizon 96"),
        # a library cutover past the horizon
        (encode_stabilized(200, 1).u, from_unit_fraction(2), PrecisionError,
         "structure precision cannot host a generator: "
         "u[m=200]: hint(0) = 200 exceeds horizon 96"),
    ])
    def test_generator_faults_keep_their_messages(self, u, v, error,
                                                  message):
        enc = SpeciesEncoding(u, v, (1, 2))
        with pytest.raises(error) as err:
            FiniteStructure((0, 1), {1: enc}, precision=Precision(16, 96))
        assert str(err.value) == message

    def test_hand_built_encodings_are_accepted(self):
        # 1/4 and 1/8 from stage 0 in place of the cutover pair: the
        # singleton {2} at moment 4.
        u, v = from_unit_fraction(4), from_unit_fraction(8)
        st = FiniteStructure((0, 1, 2, 3), {1: SpeciesEncoding(u, v, (4, 2))})
        assert st.const_extension(1) == frozenset({2})

    def test_library_generators_are_certified_without_a_scan(
            self, monkeypatch):
        calls = []
        real_slack = reals._slack
        monkeypatch.setattr(reals, "_slack", lambda *args: calls.append(
            args) or real_slack(*args))
        parse_structure("nats: 0 1 2 3 7\n"
                        "species: 1 singleton 3 moment 2\n"
                        "species: 2 full\n"
                        "species: 3 singleton 300 moment 300\n"
                        "precision: k=16 horizon=400\n")
        structure()
        assert calls == []
        # 1/8 + 1/8 = 1/4 has err >= den, and is scanned
        u = add(from_unit_fraction(8), from_unit_fraction(8))
        FiniteStructure((0, 1), {1: SpeciesEncoding(u, encode_stabilized(
            4, 2).v, (4, 2))})
        assert {args[0].name for args in calls} == {"(1/8+1/8)"}

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

    def test_an_order_against_equal_values_is_a_precision_error(self):
        # 9 * floor(2^x / 9) falls short of 2^x: at horizon 8 the scan
        # witnesses 9 * 1/9 below 1, which the records say are equal
        st = FiniteStructure((0, 1), precision=Precision(6, 8))
        env = {"z": nat_scalar(9, from_unit_fraction(9))}
        for text in ("(< z 1)", "(apart z 1)", "(< 1 z)"):
            f = parse_formula(text, Language.TARGET)
            with pytest.raises(PrecisionError) as err:
                eval_formula(f, st, Language.TARGET, env=env)
            assert str(err.value).endswith(
                "witnessed against its exact value at k=6, horizon=8")


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
                       precision=Precision(20, 80))
        text = format_structure(st)
        back = parse_structure(text)
        assert back.nat_domain == st.nat_domain
        assert back.orientation is st.orientation
        assert back.precision == st.precision
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

    @pytest.mark.parametrize("line, bad", [
        ("nats: 0 1 \u0663", "\u0663"),
        ("nats: \u00b2", "\u00b2"),
        ("nats: 0 1_0", "1_0"),
        ("nats: +3", "+3"),
        ("nats: -1", "-1"),
        ("species: \u0661 singleton \u0662 moment \u0661", "\u0661"),
        ("species: 1 singleton \u0662 moment 1", "\u0662"),
        ("species: 1 singleton 2 moment \u0661", "\u0661"),
        ("precision: k=\u0668 horizon=\u0662\u0660", "\u0668"),
        ("precision: k=8 horizon=\u0662\u0660", "\u0662\u0660"),
        ("precision: k= horizon=20", ""),
    ])
    def test_numbers_are_ascii_digits(self, line, bad):
        text = line if line.startswith("nats") else "nats: 0\n" + line
        with pytest.raises(StructureError) as err:
            parse_structure(text + "\n")
        assert str(err.value) == (f"bad structure line {line!r}: "
                                  f"expected digits 0-9, got {bad!r}")

    @pytest.mark.parametrize("fields, missing", [
        ("k=8", "horizon="),
        ("horizon=20", "k="),
        ("", "k= and horizon="),
        ("extra=1", "k= and horizon="),
    ])
    def test_missing_precision_fields_are_named(self, fields, missing):
        line = f"precision: {fields}".strip()
        with pytest.raises(StructureError) as err:
            parse_structure(f"nats: 0\n{line}\n")
        assert str(err.value) == f"bad structure line {line!r}: missing {missing}"

    @pytest.mark.parametrize("text, message", [
        ("nats: 0 5\nnats: 1\n", "more than one nats: line"),
        ("orientation: as-written\norientation: normalized\n",
         "more than one orientation: line"),
        ("precision: k=8 horizon=20\nprecision: k=9 horizon=20\n",
         "more than one precision: line"),
        ("sentinel: y\nsentinel: z\n", "more than one sentinel: line"),
        ("precision: k=8 horizon=20 k=30\n",
         "bad structure line 'precision: k=8 horizon=20 k=30': "
         "field k= listed twice"),
        ("precision: horizon=20 k=8 horizon=9\n",
         "bad structure line 'precision: horizon=20 k=8 horizon=9': "
         "field horizon= listed twice"),
        ("precision: k\n",
         "bad structure line 'precision: k': expected field=value, got 'k'"),
        ("precision: k=8 horizon\n", "bad structure line "
         "'precision: k=8 horizon': expected field=value, got 'horizon'"),
        ("species:\n", "bad species line 'species:'"),
        ("sentinel:\n", "sentinel must be y, got ''"),
        ("sentinel: y z\n", "sentinel must be y, got 'y z'"),
    ])
    def test_repeated_and_malformed_lines_are_named(self, text, message):
        with pytest.raises(StructureError) as err:
            parse_structure("nats: 0\n" + text)
        assert str(err.value) == message


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


# ---------------------------------------------------------------------------
# The tree-walking evaluator the closure compiler replaced, kept as the
# reference of a differential test: the reference sort checker of
# test_syntax first, then one isinstance dispatch per node and per
# quantifier instance.  Every formula must give the same value, or an
# error of the same type with the same message.


def reference_eval(f: Formula, s: FiniteStructure, language: Language,
                   env=None) -> bool:
    reference_check_formula(f, language)
    if language is Language.SOURCE:
        return _reference_source(f, s, dict(env or {}), {})
    return _reference_target(f, s, dict(env or {}))


def _reference_source_term(t: Term, env) -> int:
    if isinstance(t, Var):
        if t.name not in env:
            raise EvalError(f"unbound variable {t.name!r}")
        return env[t.name]
    if isinstance(t, NatConst):
        return t.value
    if isinstance(t, Succ):
        return _reference_source_term(t.arg, env) + 1
    if isinstance(t, Add):
        return (_reference_source_term(t.left, env)
                + _reference_source_term(t.right, env))
    if isinstance(t, Mul):
        return (_reference_source_term(t.left, env)
                * _reference_source_term(t.right, env))
    if isinstance(t, Pair):
        return pair(_reference_source_term(t.left, env),
                    _reference_source_term(t.right, env))
    raise EvalError(f"not a source term: {t!r}")


def _reference_source(f: Formula, s: FiniteStructure, env: dict,
                      senv: dict) -> bool:
    if isinstance(f, Bottom):
        return False
    if isinstance(f, Eq):
        return (_reference_source_term(f.left, env)
                == _reference_source_term(f.right, env))
    if isinstance(f, Lt):
        return (_reference_source_term(f.left, env)
                < _reference_source_term(f.right, env))
    if isinstance(f, Apart):
        return (_reference_source_term(f.left, env)
                != _reference_source_term(f.right, env))
    if isinstance(f, In):
        value = _reference_source_term(f.element, env)
        if isinstance(f.species, SpeciesConst):
            extension = s.const_extension(f.species.index)
            return extension is None or value in extension
        index = f.species.index
        if index not in senv:
            raise EvalError(f"unbound species variable X{index}")
        if value > s.family_bound:
            raise PrecisionError(
                f"membership of {value} exceeds the decided family range "
                f"0..{s.family_bound}"
            )
        return value in senv[index]
    if isinstance(f, SpeciesEq):
        return (_reference_restricted(f.left, s, senv)
                == _reference_restricted(f.right, s, senv))
    if isinstance(f, And):
        return (_reference_source(f.left, s, env, senv)
                and _reference_source(f.right, s, env, senv))
    if isinstance(f, Or):
        return (_reference_source(f.left, s, env, senv)
                or _reference_source(f.right, s, env, senv))
    if isinstance(f, Implies):
        return ((not _reference_source(f.left, s, env, senv))
                or _reference_source(f.right, s, env, senv))
    if isinstance(f, (Exists, Forall)):
        combine = any if isinstance(f, Exists) else all
        if f.sort is Sort.NAT:
            return combine(
                _reference_source(f.body, s, {**env, f.var: n}, senv)
                for n in s.nat_domain
            )
        index = species_binder_index(f.var)
        return combine(
            _reference_source(f.body, s, env, {**senv, index: members})
            for members in s.species_family
        )
    raise EvalError(f"cannot evaluate {f!r}")


def _reference_restricted(ref, s: FiniteStructure, senv) -> frozenset:
    domain = frozenset(s.nat_domain)
    if isinstance(ref, SpeciesConst):
        extension = s.const_extension(ref.index)
        return domain if extension is None else extension & domain
    if ref.index not in senv:
        raise EvalError(f"unbound species variable X{ref.index}")
    return senv[ref.index] & domain


def _reference_target_term(t: Term, s: FiniteStructure, env) -> RealGen:
    if isinstance(t, Var):
        if t.name not in env:
            raise EvalError(f"unbound variable {t.name!r}")
        return env[t.name]
    if isinstance(t, NatConst):
        return s.nat_gen(t.value)
    if isinstance(t, RealConst):
        if t.name not in s.const_gens:
            raise EvalError(f"structure does not define constant {t.name!r}")
        return s.const_gens[t.name]
    if isinstance(t, Add):
        return s.memo(add, _reference_target_term(t.left, s, env),
                      _reference_target_term(t.right, s, env))
    if isinstance(t, Mul):
        return s.memo(mul, _reference_target_term(t.left, s, env),
                      _reference_target_term(t.right, s, env))
    raise EvalError(f"not a target term: {t!r}")


def _reference_order(a: RealGen, b: RealGen, prec: Precision):
    """The one search eq_at, lt_at(a, b) or lt_at(b, a) witnesses, as 0,
    -1 or 1, or None; always scanned.  A verdict against the exact
    values of two generators with records raises PrecisionError."""
    if reals.eq_at(a, b, prec):
        verdict = 0
    elif reals.lt_at(a, b, prec):
        verdict = -1
    elif reals.lt_at(b, a, prec):
        verdict = 1
    else:
        return None
    if a._exact is not None and b._exact is not None:
        diff = exact_value(a) - exact_value(b)
        if (diff > 0) - (diff < 0) != verdict:
            raise PrecisionError(
                f"comparison of {a.name or '?'} and {b.name or '?'} "
                f"witnessed against its exact value at k={prec.k}, "
                f"horizon={prec.horizon}")
    return verdict


def _reference_target(f: Formula, s: FiniteStructure, env: dict) -> bool:
    if isinstance(f, Bottom):
        return False
    if isinstance(f, (Eq, Lt, Apart)):
        if SENTINEL not in env and SENTINEL in (
                all_var_names(f.left) | all_var_names(f.right)):
            return s.sentinel_true
        a = _reference_target_term(f.left, s, env)
        b = _reference_target_term(f.right, s, env)
        verdict = _reference_order(a, b, s.precision)
        if isinstance(f, Eq):
            if verdict is not None:
                return verdict == 0
            raise PrecisionError(
                f"equality of {a.name or '?'} and {b.name or '?'} "
                f"undetermined at k={s.precision.k}, "
                f"horizon={s.precision.horizon}"
            )
        if isinstance(f, Lt):
            return verdict == -1
        return verdict in (-1, 1)
    if isinstance(f, And):
        return (_reference_target(f.left, s, env)
                and _reference_target(f.right, s, env))
    if isinstance(f, Or):
        return (_reference_target(f.left, s, env)
                or _reference_target(f.right, s, env))
    if isinstance(f, Implies):
        return ((not _reference_target(f.left, s, env))
                or _reference_target(f.right, s, env))
    if isinstance(f, (Exists, Forall)):
        combine = any if isinstance(f, Exists) else all
        return combine(_reference_target(f.body, s, {**env, f.var: g})
                       for g in s.real_domain)
    if isinstance(f, DefinedQuant):
        combine = (any if f.kind in (QuantKind.EXISTS_NAT,
                                     QuantKind.EXISTS_REAL) else all)
        if f.kind in (QuantKind.EXISTS_NAT, QuantKind.FORALL_NAT):
            values = [s.nat_gen(n) for n in s.nat_domain]
        else:
            values = s.real_domain
        return combine(_reference_target(f.body, s, {**env, f.var: g})
                       for g in values)
    raise EvalError(f"cannot evaluate {f!r}")


def outcome(evaluate, *args, **kwargs):
    """What evaluate gives: the value, or the error's type and message."""
    try:
        return evaluate(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - any error must match too
        return type(exc), str(exc)


def assert_alike(f: Formula, s: FiniteStructure, language: Language,
                 env=None):
    want = outcome(reference_eval, f, s, language, env)
    assert outcome(eval_formula, f, s, language, env) == want, f
    return want


def mutated(f: Formula, rng: random.Random) -> Formula:
    """f with one node swapped for a variant the evaluator must treat
    alike: unbound names, unassigned constants, numerals past the
    family range, and terms or formulas of the wrong sort."""
    nodes = []

    def collect(node):
        nodes.append(node)
        for child in children(node):
            collect(child)

    collect(f)
    victim = rng.choice(nodes)
    if isinstance(victim, Term):
        swap = rng.choice([
            Var("zz", Sort.NAT), Var("y", Sort.REAL), Var("y", Sort.NAT),
            RealConst("a1"), RealConst("a9"), NatConst(9),
            Pair(NatConst(1), NatConst(2)), Succ(victim), Mul(victim, victim),
        ])
    elif isinstance(victim, (SpeciesVar, SpeciesConst)):
        swap = rng.choice([SpeciesVar(7), SpeciesConst(9), SpeciesConst(2)])
    else:
        swap = rng.choice([
            In(NatConst(9), SpeciesVar(1)), In(Var("zz", Sort.NAT),
                                              SpeciesConst(9)),
            Exists("X1", Sort.SPECIES, Or(victim, In(NatConst(9),
                                                     SpeciesVar(1)))),
            Exists("r", Sort.REAL, victim), Forall("X1", Sort.SPECIES, victim),
            DefinedQuant(QuantKind.EXISTS_NAT, "n", victim),
            Exists("Q", Sort.SPECIES, victim), Forall("y", Sort.REAL, victim),
            SpeciesEq(SpeciesVar(3), SpeciesConst(1)),
            Eq(Var("y", Sort.REAL), RealConst("a9")), BOT,
        ])

    def replace_node(node):
        if node is victim:
            return swap
        return rebuild(node, [replace_node(c) for c in children(node)])

    return replace_node(f)


class TestAgainstReferenceEvaluator:
    @pytest.mark.parametrize("expansion", list(Expansion))
    def test_corpus_sources_and_targets_evaluate_alike(self, expansion):
        formulas = corpus_formulas(count=40 if expansion is Expansion.MACRO
                                   else 24, seed=31)
        seen = set()
        for orientation in Orientation:
            config = TranslationConfig(expansion, orientation)
            targets = [translate(f, config=config) for f in formulas]
            for sentinel_true in (False, True):
                st = collapse_structure(orientation, sentinel_true)
                for f, target in zip(formulas, targets):
                    seen.add(assert_alike(f, st, Language.SOURCE))
                    seen.add(assert_alike(target, st, Language.TARGET))
        assert seen == {True, False}

    def test_mutated_formulas_evaluate_alike(self):
        rng = random.Random(5)
        seen = set()
        for f in corpus_formulas(count=100, seed=8):
            for language in Language:
                st = collapse_structure(rng.choice(list(Orientation)),
                                        rng.random() < 0.5)
                g = f if language is Language.SOURCE else translate(f)
                for _ in range(3):
                    got = assert_alike(mutated(g, rng), st, language)
                    seen.add(got if isinstance(got, bool) else got[0])
        assert seen == {True, False, EvalError, PrecisionError, SortError}

    @pytest.mark.parametrize("text, language", [
        ("(or (= 0 0) (= x 0))", Language.SOURCE),
        ("(and (= 0 1) (in x (sconst 9)))", Language.SOURCE),
        ("(imp (bot) (in 0 X4))", Language.SOURCE),
        ("(or (< 0 1) (seq X3 (sconst 1)))", Language.SOURCE),
        ("(and (= x 0) (= 0 1))", Language.SOURCE),
        ("(in x (sconst 9))", Language.SOURCE),
        ("(in 0 (sconst 9))", Language.SOURCE),
        ("(seq (sconst 9) X3)", Language.SOURCE),
        ("(seq X3 (sconst 9))", Language.SOURCE),
        ("(exists (X0 Species) (in (+ 2 2) X0))", Language.SOURCE),
        ("(forall (n Nat) (exists (n Nat) (and (< n 2) (= n n))))",
         Language.SOURCE),
        ("(in x (sconst 3))", Language.SOURCE),
        ("(and (in 0 (sconst 3)) (in (pair x 0) (sconst 3)))",
         Language.SOURCE),
        ("(seq (sconst 3) (sconst 1))", Language.SOURCE),
        ("(or (= 0 0) (= (rconst a9) z))", Language.TARGET),
        ("(and (< 1 0) (= q 0))", Language.TARGET),
        ("(= (rconst a9) q)", Language.TARGET),
        ("(= q (rconst a9))", Language.TARGET),
        ("(= y (rconst a9))", Language.TARGET),
        ("(< (+ y q) 0)", Language.TARGET),
        ("(exists (y Real) (= y (rconst a9)))", Language.TARGET),
        ("(existsR (y) (< y 0))", Language.TARGET),
        ("(forallN (y) (apart y 0))", Language.TARGET),
        ("(and (existsN (y) (= y 0)) (= y 1))", Language.TARGET),
        ("(existsR (w) (existsR (w) (and (< w 1) (= w 0))))",
         Language.TARGET),
    ])
    @pytest.mark.parametrize("sentinel_true", [False, True])
    def test_short_circuits_and_scopes_evaluate_alike(self, text, language,
                                                      sentinel_true):
        species = {i: encode_stabilized(m, k)
                   for i, (m, k) in SPECIES_SINGLETONS.items()}
        st = FiniteStructure((0, 1, 2, 3), {**species, 3: encode_silent()},
                             sentinel_true=sentinel_true)
        assert_alike(parse_formula(text, language), st, language)

    @pytest.mark.parametrize("text, language", [
        ("(exists (n Nat) (and (exists (n Nat) (= n 0)) (= n 3)))",
         Language.SOURCE),
        ("(existsN (w) (and (existsN (w) (= w 0)) (= w 3)))",
         Language.TARGET),
        ("(exists (w Real) (and (forallR (w) (< w 9)) (= w (rconst b2))))",
         Language.TARGET),
    ])
    def test_an_inner_binder_leaves_the_outer_variable_alone(self, text,
                                                             language):
        st = collapse_structure()
        assert assert_alike(parse_formula(text, language), st, language)

    @pytest.mark.parametrize("text, value", [
        ("(forallN (n) (or (= n 0) (not (< n 1))))", True),
        ("(existsN (n) (and (< 0 n) (< n 1)))", False),
        ("(forallR (r) (or (= r 0) (not (< r 1))))", False),
        ("(existsR (r) (and (< 0 r) (< r 1)))", True),
    ])
    def test_defined_quantifiers_range_over_their_domains(self, text, value):
        f = parse_formula(text, Language.TARGET)
        st = collapse_structure()
        assert assert_alike(f, st, Language.TARGET) is value

    def test_species_variables_are_cut_down_to_the_domain(self):
        # Over the domain {0, 2} the family holds {1}, which equals the
        # constant {1} on the domain (both are empty there).
        st = FiniteStructure((0, 2), {1: encode_stabilized(2, 1)})
        f = parse_formula("(exists (X1 Species) (and (in 1 X1) "
                          "(seq X1 (sconst 1))))", Language.SOURCE)
        assert assert_alike(f, st, Language.SOURCE) is True

    @pytest.mark.parametrize("sentinel_true", [False, True])
    def test_sentinel_bound_by_env_is_an_ordinary_variable(self,
                                                           sentinel_true):
        st = collapse_structure(sentinel_true=sentinel_true)
        half = from_unit_fraction(2)
        for text in ["(= y 0)", "(< y 1)", "(apart y 0)",
                     "(or (= y 0) (apart y 0))", "(= (rconst a9) y)"]:
            f = parse_formula(text, Language.TARGET)
            assert_alike(f, st, Language.TARGET, env={"y": half})
        f = parse_formula("(< y 1)", Language.TARGET)
        assert eval_formula(f, st, Language.TARGET, env={"y": half})

    def test_sort_errors_come_before_precision_errors(self):
        # The equality is undecidable at this precision, but the
        # ill-sorted right conjunct must be reported first.
        st = FiniteStructure((0, 1), precision=Precision(30, 6))
        env = {"p": from_unit_fraction(3),
               "q": add(from_unit_fraction(6), from_unit_fraction(6))}
        undecided = Eq(Var("p", Sort.REAL), Var("q", Sort.REAL))
        with pytest.raises(PrecisionError):
            eval_formula(undecided, st, Language.TARGET, env=env)
        for bad in [Eq(Var("n", Sort.NAT), Var("p", Sort.REAL)),
                    In(Var("p", Sort.REAL), SpeciesConst(1)),
                    Exists("X0", Sort.SPECIES, BOT),
                    Lt(Pair(Var("p", Sort.REAL), Var("q", Sort.REAL)),
                       Succ(Var("p", Sort.REAL)))]:
            f = And(undecided, bad)
            want = assert_alike(f, st, Language.TARGET, env=env)
            assert want[0] is SortError
        source = parse_formula("(and (exists (X0 Species) (in 5 X0)) "
                               "(= (var r Real) 0))", Language.SOURCE)
        assert assert_alike(source, st, Language.SOURCE)[0] is SortError

    # The shapes the compiler decides once: binders whose body never
    # reads their variable, the sentinel disjunct of a translated atom
    # and negation.  φ is the shared sentinel node.
    @pytest.mark.parametrize("text, language", [
        # vacuous nat, species, real and defined binders
        ("(forall (n Nat) (exists (m Nat) (= 0 0)))", Language.SOURCE),
        ("(exists (n Nat) (forall (n Nat) (< n 3)))", Language.SOURCE),
        ("(forall (n Nat) (and (exists (n Nat) (= n 0)) (= n n)))",
         Language.SOURCE),
        ("(exists (n Nat) (in 9 (sconst 9)))", Language.SOURCE),
        ("(forall (n Nat) (in (+ 2 2) (sconst 3)))", Language.SOURCE),
        ("(exists (X0 Species) (= 1 1))", Language.SOURCE),
        ("(forall (X0 Species) (exists (X1 Species) (in 1 X0)))",
         Language.SOURCE),
        ("(exists (X0 Species) (forall (X0 Species) (in 1 X0)))",
         Language.SOURCE),
        ("(forall (X0 Species) (exists (X0 Species) (bot)))",
         Language.SOURCE),
        ("(exists (X0 Species) (exists (X1 Species) (in 9 X2)))",
         Language.SOURCE),
        ("(forallR (u) (forallR (v) (= 1 1)))", Language.TARGET),
        ("(existsR (u) (existsR (v) (< 1 0)))", Language.TARGET),
        ("(exists (r Real) (= (rconst a9) 0))", Language.TARGET),
        ("(forall (r Real) (= p q))", Language.TARGET),
        ("(existsR (w) (existsR (w) (= w 0)))", Language.TARGET),
        ("(forallR (u) (existsR (v) (= v u)))", Language.TARGET),
        ("(forallN (n) (existsR (m) (< 0 1)))", Language.TARGET),
        ("(existsN (n) (forallN (n) (= n 0)))", Language.TARGET),
        ("(forallN (n) (and (existsN (n) (= n 0)) (= n n)))",
         Language.TARGET),
        ("(existsN (n) (< p q))", Language.TARGET),
        # (or A φ) and (imp (not A) φ), A true, false or raising
        ("(or (< 0 1) φ)", Language.TARGET),
        ("(or (< 1 0) φ)", Language.TARGET),
        ("(or (= p q) φ)", Language.TARGET),
        ("(or (= z 0) φ)", Language.TARGET),
        ("(or (= (rconst a9) 0) φ)", Language.TARGET),
        ("(imp (not (< 0 1)) φ)", Language.TARGET),
        ("(imp (not (< 1 0)) φ)", Language.TARGET),
        ("(imp (not (= p q)) φ)", Language.TARGET),
        ("(imp (not (= (rconst a9) 0)) φ)", Language.TARGET),
        ("(existsR (w) (imp (not (= (* w (rconst b1)) (rconst a1))) φ))",
         Language.TARGET),
        ("(and (or (< 1 0) φ) (imp (not (< 1 0)) φ))", Language.TARGET),
        # (imp X φ) where X is not a negation
        ("(imp (< 0 1) φ)", Language.TARGET),
        ("(imp (< 1 0) φ)", Language.TARGET),
        ("(imp (= p q) φ)", Language.TARGET),
        ("(imp (and (< 0 1) (= 1 1)) φ)", Language.TARGET),
        ("(imp (imp (< 0 1) (< 1 0)) φ)", Language.TARGET),
        ("(imp (imp (bot) (< 1 0)) φ)", Language.TARGET),
        ("(imp φ φ)", Language.TARGET),
        ("(or φ φ)", Language.TARGET),
        ("(and (< 0 1) φ)", Language.TARGET),
        # φ with y bound: the sentinel is an ordinary variable there
        ("(forallR (y) (or (< 1 0) φ))", Language.TARGET),
        ("(existsR (y) (imp (not (< 1 0)) φ))", Language.TARGET),
        ("(forall (y Real) (imp (< 0 y) φ))", Language.TARGET),
        ("(forallN (y) (imp (< 0 1) φ))", Language.TARGET),
        # negation, and double negation
        ("(not (not (= 0 1)))", Language.SOURCE),
        ("(not (not (in 9 (sconst 9))))", Language.SOURCE),
        ("(not (exists (X0 Species) (in 1 X0)))", Language.SOURCE),
        ("(not (not (< 0 1)))", Language.TARGET),
        ("(not (not (= p q)))", Language.TARGET),
        ("(not (not (not (= z 0))))", Language.TARGET),
        ("(not (or (< 1 0) φ))", Language.TARGET),
    ])
    @pytest.mark.parametrize("sentinel_true", [False, True])
    def test_shapes_decided_at_compile_time_evaluate_alike(
            self, text, language, sentinel_true):
        f = parse_formula(text.replace("φ", "(or (= y 0) (apart y 0))"),
                          language)
        species = {i: encode_stabilized(m, k)
                   for i, (m, k) in SPECIES_SINGLETONS.items()}
        st = FiniteStructure((0, 1, 2, 3), {**species, 3: encode_silent()},
                             sentinel_true=sentinel_true)
        assert_alike(f, st, language)
        if language is Language.TARGET:
            # (= p q) is undetermined here: PrecisionError
            coarse = FiniteStructure((0, 1), precision=Precision(30, 6),
                                     sentinel_true=sentinel_true)
            env = {"p": from_unit_fraction(3),
                   "q": add(from_unit_fraction(6), from_unit_fraction(6))}
            assert_alike(f, coarse, language, env=env)

    @pytest.mark.parametrize("sentinel_true", [False, True])
    def test_the_sentinel_disjunct_keeps_its_left_sides_errors(
            self, sentinel_true):
        st = FiniteStructure((0, 1), precision=Precision(30, 6),
                             sentinel_true=sentinel_true)
        env = {"p": from_unit_fraction(3),
               "q": add(from_unit_fraction(6), from_unit_fraction(6))}
        for text, error in [("(or (= p q) φ)", PrecisionError),
                            ("(imp (not (= p q)) φ)", PrecisionError),
                            ("(imp (= p q) φ)", PrecisionError),
                            ("(or (= z 0) φ)", EvalError),
                            ("(imp (not (= (rconst a9) 0)) φ)", EvalError)]:
            f = parse_formula(text.replace("φ", "(or (= y 0) (apart y 0))"),
                              Language.TARGET)
            assert f.right is SENTINEL_FORMULA
            assert assert_alike(f, st, Language.TARGET, env=env)[0] is error

    @pytest.mark.parametrize("sentinel_true", [False, True])
    def test_a_vacuous_species_binder_still_decides_the_family(
            self, sentinel_true):
        # This family raises PrecisionError on first use; a body that
        # never reads its variable must not hide it.
        st = FiniteStructure((2, 5, 12), {0: encode_stabilized(2, 6),
                                          1: encode_stabilized(2, 11)},
                             Orientation.AS_WRITTEN, Precision(5, 11),
                             sentinel_true=sentinel_true)
        seen = []
        for text in ["(exists (X0 Species) (= 0 0))",
                     "(forall (X1 Species) (bot))",
                     "(or (= 0 0) (exists (X0 Species) (= 0 0)))",
                     "(exists (X0 Species) (forall (X0 Species) (= 1 1)))"]:
            f = parse_formula(text, Language.SOURCE)
            want = assert_alike(f, st, Language.SOURCE)
            seen.append(want if want is True else want[0])
            target = translate(f, config=TranslationConfig(
                orientation=Orientation.AS_WRITTEN))
            assert_alike(target, st, Language.TARGET)
        assert seen == [PrecisionError] * 2 + [True, PrecisionError]

    @pytest.mark.parametrize("sentinel_true", [False, True])
    def test_the_sentinel_bound_by_env_disables_the_disjunct_path(
            self, sentinel_true):
        # At 2^-20 the sentinel's own comparison raises, which the
        # compile-time disjunct would have skipped.
        st = FiniteStructure((0, 1), precision=Precision(30, 6),
                             sentinel_true=sentinel_true)
        tiny, seen = from_unit_fraction(2 ** 20), []
        for text in ["(or (< 1 0) φ)", "(imp (not (< 1 0)) φ)",
                     "(imp (< 0 1) φ)", "(or (< 0 1) φ)"]:
            f = parse_formula(text.replace("φ", "(or (= y 0) (apart y 0))"),
                              Language.TARGET)
            half = assert_alike(f, st, Language.TARGET,
                                env={SENTINEL: from_unit_fraction(2)})
            assert half is True
            got = assert_alike(f, st, Language.TARGET, env={SENTINEL: tiny})
            seen.append(got if got is True else got[0])
        assert seen == [PrecisionError] * 3 + [True]

    @pytest.mark.parametrize("left", [True, False])
    @pytest.mark.parametrize("base", [SpeciesConst, SpeciesVar])
    def test_a_subclass_of_a_species_reference_is_ill_sorted(self, base,
                                                             left):
        # A subclass of SpeciesConst in an equality was once read as a
        # variable: EvalError "unbound species variable X1".
        sub = type("Sub", (base,), {"__slots__": ()})(1)
        f = SpeciesEq(sub, SpeciesConst(1)) if left \
            else SpeciesEq(SpeciesConst(1), sub)
        with pytest.raises(SortError) as want:
            check_formula(f, Language.SOURCE)
        assert "not a species reference" in str(want.value)
        with pytest.raises(SortError) as got:
            eval_formula(f, collapse_structure(), Language.SOURCE)
        assert str(got.value) == str(want.value)


class TestSharedSentinelScope:
    """The compiler forces the shared sentinel node at once only while y
    is unbound.  Bound by a quantifier or by env, it is evaluated, and
    an unshared copy is compiled atom by atom; each verdict and error is
    the reference's."""

    @pytest.mark.parametrize("sentinel_true", [False, True])
    def test_the_shared_node_is_forced_only_while_y_is_unbound(
            self, sentinel_true):
        st = FiniteStructure((0, 1), precision=Precision(30, 6),
                             sentinel_true=sentinel_true)
        tl = Language.TARGET
        bound = parse_formula("(forall (y Real) (or (= y 0) (apart y 0)))", tl)
        assert bound.body is SENTINEL_FORMULA
        assert assert_alike(bound, st, tl) is True
        fresh = Or(*children(SENTINEL_FORMULA))
        seen = []
        for f in (SENTINEL_FORMULA, fresh):
            assert assert_alike(f, st, tl) is sentinel_true
            assert assert_alike(Forall(SENTINEL, Sort.REAL, f), st, tl)
            for g in (from_unit_fraction(3), from_unit_fraction(2 ** 20)):
                seen.append(assert_alike(f, st, tl, env={SENTINEL: g}))
        assert seen == [True, (PrecisionError, (
            "comparison of 1/1048576 and 0 witnessed against its exact "
            "value at k=30, horizon=6"))] * 2

    @pytest.mark.parametrize("sentinel_true", [False, True])
    def test_the_nat_predicate_binds_its_own_sentinel(self, sentinel_true):
        # With no forbidden names the predicate binds y itself, around
        # copies of the shared node.
        psi = nat_predicate("x")
        assert psi.var == SENTINEL
        st = FiniteStructure((0, 1, 2), sentinel_true=sentinel_true)
        for kind, value in [(QuantKind.FORALL_NAT, False),
                            (QuantKind.EXISTS_NAT, True)]:
            f = DefinedQuant(kind, "x", psi)
            assert assert_alike(f, st, Language.TARGET) is value


def chain(op: str, leaf: str, depth: int) -> str:
    """(op leaf (op leaf ... 1)), op nested depth deep."""
    return f"{('(' + op + ' ' + leaf + ' ') * depth}1{')' * depth}"


class TestTermBound:
    @pytest.mark.parametrize("op, leaf", [("pair", "1"), ("*", "2" * 61)])
    def test_deep_products_are_refused_quickly(self, op, leaf):
        # Each pair doubles the bit length; each product adds 200 bits.
        # The translation folds closed pair terms, products inside too.
        term = chain(op, leaf, 26)
        f = parse_formula(f"(= {term} 0)", Language.SOURCE)
        folded = parse_formula(f"(= (pair 0 {term}) 0)", Language.SOURCE)
        start = time.perf_counter()
        with pytest.raises(EvalError, match=(
                rf"^\({re.escape(op)} a b\) of \d+ and \d+ bits could "
                rf"exceed the {MAX_TERM_BITS}-bit bound on term values$")):
            eval_formula(f, FiniteStructure((0, 1)), Language.SOURCE)
        with pytest.raises(TranslationError, match=(
                rf"^\({re.escape(op)} a b\) .* bound on term values$")):
            translate(folded)
        assert time.perf_counter() - start < 1

    def test_values_up_to_the_bound_are_computed(self):
        st = FiniteStructure((0, 1))
        big = 2 ** (MAX_TERM_BITS // 2 - 1)
        f = parse_formula(f"(< (* {big} {big}) 1)", Language.SOURCE)
        assert eval_formula(f, st, Language.SOURCE) is False

    def test_an_unreached_product_is_not_refused(self):
        f = parse_formula(f"(or (= 0 0) (= {chain('pair', '1', 26)} 0))",
                          Language.SOURCE)
        assert eval_formula(f, FiniteStructure((0,)), Language.SOURCE)

    def test_corpus_stays_far_below_the_bound(self, monkeypatch):
        monkeypatch.setattr(pairing, "MAX_TERM_BITS", 16)
        st = collapse_structure()
        for f in corpus_formulas():
            eval_formula(f, st, Language.SOURCE)
            for orientation in Orientation:
                translate(f, config=TranslationConfig(orientation=orientation))


class TestLanguageNames:
    def test_language_may_be_named(self):
        st = structure()
        f = parse_formula("(= (+ 1 2) 3)", "source")
        assert eval_formula(f, st, "source")
        assert eval_formula(translate(f), st, "target")

    def test_unknown_language_name_is_a_value_error(self):
        with pytest.raises(ValueError, match="'sauce' is not a valid"):
            eval_formula(BOT, structure(), "sauce")

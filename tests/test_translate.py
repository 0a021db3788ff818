"""Tests for the ring translation of two-sorted formulas."""

import hashlib
import importlib
from collections import Counter
from typing import Mapping, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringterp.corpus import corpus_formulas
from ringterp.goldens import (
    MEMBERSHIP_AS_WRITTEN, MEMBERSHIP_NORMALIZED, NAT_CORE, NAT_PREDICATE,
    SENTINEL, TAU_BOTTOM,
)
from ringterp.pairing import bounded_op
from ringterp.sexpr import ParseError, format_formula, parse_formula
from ringterp.syntax import (
    ATOMS, Add, And, Apart, Bottom, DefinedQuant, Eq, Exists, Forall, Formula,
    Implies, In, Language, Lt, Mul, NatConst, Node, ONE, Or, Pair, QuantKind,
    RealConst, SENTINEL_FORMULA, Sort, SpeciesEq, SpeciesConst, SpeciesRef,
    SpeciesVar, Succ, Term, Var, all_var_names, alpha_equal, check_formula,
    children, fresh_name, free_vars, is_closed, neg, rebuild,
    species_binder_index, species_binder_name, species_indices,
)
from ringterp.translate import (
    Expansion, Orientation, TranslationConfig, TranslationError,
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

    def test_fresh_element_may_reuse_a_formula_name(self):
        # No coding name is x, so the element is always x; it may reuse
        # a name of the formula, which it does not capture.
        f = src("(and (= x 0) (seq X1 X2))")
        assert translate(f).right.var == "x"


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


class TestReservedNames:
    @pytest.mark.parametrize("name, species", [
        ("u1", "X1"), ("v1", "X1"), ("a2", "(sconst 2)"),
        ("b2", "(sconst 2)"), ("y", "X1"), ("y", "(sconst 2)"),
    ])
    def test_coding_names_collide_with_formula_variables(self, name,
                                                         species):
        with pytest.raises(TranslationError, match=f"collide.*: {name}$"):
            translate(src(f"(in {name} {species})"))


class TestErrorOrder:
    def test_a_name_clash_wins_over_an_open_pair(self):
        f = src("(and (= (pair n 1) 0) (in (pair 1 m) X1))")
        with pytest.raises(TranslationError, match="^pairing of terms"):
            translate(f)
        f = src("(and (= (pair n 1) 0) (in (pair 1 u1) X1))")
        with pytest.raises(TranslationError, match="collide.*: u1$"):
            translate(f)

    def test_the_first_failing_pair_is_reported(self):
        huge = 1 << 3000
        f = src(f"(and (= (pair n 1) 0) (= 0 (pair {huge} 0)))")
        with pytest.raises(TranslationError, match="^pairing of terms"):
            translate(f)
        f = src(f"(= (pair (pair n 1) (pair {huge} 0)) 0)")
        with pytest.raises(TranslationError, match="of 3001 and 0 bits"):
            translate(f)


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

    def test_triply_nested_rebinding(self):
        # The inner X0 avoids 0, in scope, and 1, a constant of its body;
        # the innermost avoids 0 and 2, in scope, and the same constant.
        f = src("(forall (X0 Species) (exists (X0 Species) (and (in 0 X0) "
                "(forall (X0 Species) (seq X0 (sconst 1))))))")
        got = translate(f)
        inner = got.body.body
        assert [got.var, inner.var, inner.body.body.right.var] == [
            "u0", "u2", "u3"]
        assert got == reference_translate(f)


class TestWork:
    """Time-free guard: between its source and its target check,
    translate walks a formula once.  normalize_apart, all_var_names and
    species_indices never run on the corpus, which rebinds no species
    index and holds no open pair."""

    HELPERS = ("check_formula", "normalize_apart", "all_var_names",
               "species_indices")

    def test_one_walk_per_translation(self, monkeypatch):
        formulas = corpus_formulas(200)
        calls = Counter()
        for module in map(importlib.import_module,
                          ("ringterp.syntax", "ringterp.translate")):
            for name in self.HELPERS:
                if hasattr(module, name):
                    def counted(*args, _fn=getattr(module, name), _n=name):
                        calls[_n] += 1
                        return _fn(*args)
                    monkeypatch.setattr(module, name, counted)
        for expansion in Expansion:
            for f in formulas:
                translate(f, config=TranslationConfig(expansion))
        assert calls == Counter(check_formula=2 * 2 * len(formulas))


class TestSourceValidation:
    def test_target_formulas_are_rejected(self):
        f = parse_formula("(= (rconst a1) 0)", Language.TARGET)
        with pytest.raises(Exception):
            translate(f)


def sentinel_copies(f: Node) -> list[Node]:
    """Every node of f equal to the sentinel disjunction."""
    found, stack = [], [f]
    while stack:
        node = stack.pop()
        if node == SENTINEL_FORMULA:
            found.append(node)
        else:
            stack.extend(children(node))
    return found


class TestSharedSentinel:
    """The sentinel disjunction is one node wherever the translation or
    the target reader makes it."""

    @pytest.mark.parametrize("config", [
        TranslationConfig(expansion, orientation)
        for expansion in Expansion for orientation in Orientation])
    def test_every_copy_in_a_translation_is_the_shared_node(self, config):
        copies = [node for f in corpus_formulas(40, seed=3)
                  for node in sentinel_copies(translate(f, config=config))]
        assert len(copies) == 259
        assert all(node is SENTINEL_FORMULA for node in copies)

    def test_the_default_sentinel_is_the_shared_node(self):
        assert sentinel_formula() is SENTINEL_FORMULA
        assert translate(src("(bot)")) is SENTINEL_FORMULA
        fresh = sentinel_formula("z")
        assert printed(fresh) == "(or (= z 0) (apart z 0))"

    @pytest.mark.parametrize("expansion", list(Expansion))
    def test_the_target_reader_returns_the_shared_node(self, expansion):
        # Comments and odd spacing inside the sentinel change no token.
        odd = "(or(=  y\t0)  # the sentinel\n ( apart y 0\n) )"
        for f in corpus_formulas(40, seed=3):
            target = translate(f, config=TranslationConfig(expansion))
            text = printed(target).replace(SENTINEL, odd)
            back = parse_formula(text, Language.TARGET)
            assert back == target
            copies = sentinel_copies(back)
            assert len(copies) == len(sentinel_copies(target))
            assert all(node is SENTINEL_FORMULA for node in copies)

    def test_the_source_reader_shares_nothing(self):
        text = format_formula(SENTINEL_FORMULA, Language.SOURCE)
        assert text == "(or (= (var y Real) 0) (apart (var y Real) 0))"
        back = parse_formula(text, Language.SOURCE)
        assert back == SENTINEL_FORMULA and back is not SENTINEL_FORMULA
        assert parse_formula(SENTINEL, Language.SOURCE) != SENTINEL_FORMULA

    @pytest.mark.parametrize("text", [
        "(or (= y 0) (apart y 1))", "(or (= y 0) (apart 0 y))",
        "(or (= (var y Real) 0) (apart y 0))", "(or (= y 0) (< y 0))"])
    def test_other_target_disjunctions_are_read_as_written(self, text):
        f = parse_formula(text, Language.TARGET)
        assert f is not SENTINEL_FORMULA
        assert format_formula(f, Language.TARGET) == text.replace(
            "(var y Real)", "y")

    @pytest.mark.parametrize("text, message", [
        ("(or (= y 0) (apart y 0) (bot))",
         "line 1, column 25: expected ')', got '('"),
        ("(or (= y 0) (apart y 0)",
         "at end of input: unexpected end of input"),
        ("(or (= y 0) (apart y 0)) x",
         "line 1, column 26: trailing input after formula"),
    ])
    def test_a_sentinel_cut_short_or_run_on_is_an_error(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_formula(text, Language.TARGET)
        assert str(err.value) == message


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


# ---------------------------------------------------------------------------
# The pipeline of separate walks that translate replaced, frozen as the
# reference of the differential test below: apartness unfolded, species
# binders renamed and the variable map checked, each by a walk of its
# own, before tau.  Constants are coded by a<i>, b<i>.


class ReferenceVarMap:
    """The variable map translate once took, with its default names:
    the sentinel y and u<i>, v<i> for species variable i."""

    sentinel = "y"

    def pair_for_var(self, index: int) -> tuple[str, str]:
        return f"u{index}", f"v{index}"


def reference_normalize_apart(f: Formula) -> Formula:
    if isinstance(f, Apart):
        return Or(Lt(f.left, f.right), Lt(f.right, f.left))
    if type(f) in ATOMS:
        return f
    return rebuild(f, [reference_normalize_apart(c) for c in children(f)])


def reference_rename_shadowed_species(f: Node, env: Mapping[int, int],
                                      in_scope: frozenset[int]) -> Node:
    if isinstance(f, SpeciesVar):
        index = env.get(f.index, f.index)
        return f if index == f.index else SpeciesVar(index)
    if not (isinstance(f, (Exists, Forall)) and f.sort is Sort.SPECIES):
        return rebuild(f, [c if isinstance(c, Term)
                           else reference_rename_shadowed_species(
                               c, env, in_scope)
                           for c in children(f)])
    index = species_binder_index(f.var)
    if index in in_scope:
        used = set(in_scope) | {index}
        body_vars, body_consts = species_indices(f.body)
        used |= body_vars | body_consts
        new = 0
        while new in used:
            new += 1
    else:
        new = index
    env2 = {**env, index: new}
    body = reference_rename_shadowed_species(f.body, env2, in_scope | {new})
    return type(f)(species_binder_name(new), f.sort, body)


def reference_const_pair(index: int) -> tuple[str, str]:
    return f"a{index}", f"b{index}"


def reference_validate_for(vm: ReferenceVarMap, f: Formula) -> None:
    var_idx, const_idx = species_indices(f)
    names = [vm.sentinel]
    for i in sorted(var_idx):
        names.extend(vm.pair_for_var(i))
    for i in sorted(const_idx):
        names.extend(reference_const_pair(i))
    seen: set[str] = set()
    for name in names:
        if name in seen:
            raise TranslationError(
                f"variable map assigns the name {name!r} twice"
            )
        seen.add(name)
    clash = seen & all_var_names(f)
    if clash:
        raise TranslationError(
            "variable map names collide with formula variables: "
            + ", ".join(sorted(clash))
        )


def _reference_eval_closed_nat(t: Term) -> Optional[int]:
    if isinstance(t, NatConst):
        return t.value
    if isinstance(t, Var):
        return None
    if isinstance(t, Succ):
        a = _reference_eval_closed_nat(t.arg)
        return None if a is None else a + 1
    if isinstance(t, (Add, Mul, Pair)):
        a = _reference_eval_closed_nat(t.left)
        b = _reference_eval_closed_nat(t.right)
        if a is None or b is None:
            return None
        if isinstance(t, Add):
            return a + b
        try:
            return bounded_op("*" if isinstance(t, Mul) else "pair", a, b)
        except OverflowError as exc:
            raise TranslationError(str(exc)) from None
    raise TranslationError(f"not a source term: {t!r}")


class ReferenceTranslator:
    def __init__(self, vm: ReferenceVarMap,
                 config: TranslationConfig) -> None:
        self.vm = vm
        self.config = config

    def term(self, t: Term) -> Term:
        if isinstance(t, Var):
            return Var(t.name, Sort.REAL)
        if isinstance(t, NatConst):
            return t
        if isinstance(t, Succ):
            return Add(self.term(t.arg), ONE)
        if isinstance(t, Add):
            return Add(self.term(t.left), self.term(t.right))
        if isinstance(t, Mul):
            return Mul(self.term(t.left), self.term(t.right))
        if isinstance(t, Pair):
            value = _reference_eval_closed_nat(t)
            if value is None:
                raise TranslationError(
                    "pairing of terms with variables has no ring translation;"
                    " only closed pair terms can be folded to a numeral"
                )
            return NatConst(value)
        raise TranslationError(f"not a source term: {t!r}")

    def coding_pair(self, ref: SpeciesRef) -> tuple[Term, Term]:
        first, second = self.coding_names(ref)
        if isinstance(ref, SpeciesVar):
            return Var(first, Sort.REAL), Var(second, Sort.REAL)
        return RealConst(first), RealConst(second)

    def membership(self, element: Term, ref: SpeciesRef) -> Formula:
        first, second = self.coding_pair(ref)
        if self.config.orientation is Orientation.QUOTIENT_NORMALIZED:
            first, second = second, first
        claim = Eq(Mul(self.term(element), first), second)
        return Implies(neg(claim), self.sentinel)

    @property
    def sentinel(self) -> Formula:
        return sentinel_formula(self.vm.sentinel)

    def tau(self, f: Formula) -> Formula:
        if isinstance(f, Bottom):
            return self.sentinel
        if isinstance(f, Eq):
            return Or(Eq(self.term(f.left), self.term(f.right)), self.sentinel)
        if isinstance(f, Lt):
            return Or(Lt(self.term(f.left), self.term(f.right)), self.sentinel)
        if isinstance(f, In):
            return self.membership(f.element, f.species)
        if isinstance(f, SpeciesEq):
            return self.species_eq(f.left, f.right)
        if isinstance(f, And):
            return And(self.tau(f.left), self.tau(f.right))
        if isinstance(f, Or):
            return Or(self.tau(f.left), self.tau(f.right))
        if isinstance(f, Implies):
            return Implies(self.tau(f.left), self.tau(f.right))
        if isinstance(f, (Exists, Forall)):
            exists = isinstance(f, Exists)
            if f.sort is Sort.NAT:
                kind = QuantKind.EXISTS_NAT if exists else QuantKind.FORALL_NAT
                return DefinedQuant(kind, f.var, self.tau(f.body))
            index = species_binder_index(f.var)
            first, second = self.vm.pair_for_var(index)
            kind = QuantKind.EXISTS_REAL if exists else QuantKind.FORALL_REAL
            return DefinedQuant(
                kind, first, DefinedQuant(kind, second, self.tau(f.body))
            )
        raise TranslationError(f"cannot translate {f!r}")

    def species_eq(self, left: SpeciesRef, right: SpeciesRef) -> Formula:
        forbidden = {self.vm.sentinel}
        for ref in (left, right):
            forbidden.update(self.coding_names(ref))
        x = fresh_name("x", forbidden)
        element = Var(x, Sort.NAT)
        both_ways = And(
            Implies(In(element, left), In(element, right)),
            Implies(In(element, right), In(element, left)),
        )
        return self.tau(Forall(x, Sort.NAT, both_ways))

    def coding_names(self, ref: SpeciesRef) -> tuple[str, str]:
        if isinstance(ref, SpeciesVar):
            return self.vm.pair_for_var(ref.index)
        return reference_const_pair(ref.index)


def reference_translate(f: Formula,
                        config: Optional[TranslationConfig] = None) -> Formula:
    vm = ReferenceVarMap()
    config = config if config is not None else TranslationConfig()
    check_formula(f, Language.SOURCE)
    f = reference_normalize_apart(f)
    f = reference_rename_shadowed_species(f, {}, frozenset())
    reference_validate_for(vm, f)
    out = ReferenceTranslator(vm, config).tau(f)
    if config.expansion is Expansion.FULL:
        out = expand_defined(out)
    check_formula(out, Language.TARGET)
    return out


# Formula variables drawn per example from one of two pools: names no
# translation uses, or names that collide with the sentinel (y), coding
# names (u<i>, v<i>), constant names (a<i>), the element of species
# equality (x) and the name it took when x was taken (x_1).
_CLEAN_NAMES = ["n", "k", "m"]
_COLLIDING_NAMES = ["n", "x", "y", "u0", "v1", "a0", "x_1"]
# 3,000 bits: pairing it, or multiplying two of it, exceeds MAX_TERM_BITS.
_HUGE = 1 << 3000


@st.composite
def _source_terms(draw, names, open_pairs, depth=3):
    """A nat term over names; unless open_pairs, every pair is closed."""
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        if names and draw(st.integers(0, 2)) == 0:
            return Var(draw(st.sampled_from(names)), Sort.NAT)
        return NatConst(draw(st.sampled_from([0, 1, 2, 5, 9, _HUGE])))
    cls = draw(st.sampled_from([Succ, Add, Mul, Pair]))
    if cls is Pair and not open_pairs:
        names = []
    return cls(*[draw(_source_terms(names, open_pairs, depth - 1))
                 for _ in cls.child_kinds])


# Variables mostly of index 0, the index binders rebind most.
_species_refs = st.one_of(
    st.builds(SpeciesVar, st.sampled_from([0, 0, 1, 2])),
    st.builds(SpeciesVar, st.sampled_from([0, 0, 1, 2])),
    st.builds(SpeciesConst, st.integers(0, 3)),
)


@st.composite
def _source_formulas(draw, names, open_pairs, depth=5):
    """Well-sorted source formulas whose species binders reuse the
    indices 0-2, so that nested and triply nested rebindings are common,
    with every atom and closed, oversized and, if open_pairs, open
    pairs."""
    terms = _source_terms(names, open_pairs)
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        cls = draw(st.sampled_from([Bottom, Eq, Lt, Apart, Apart, In, In,
                                    In, SpeciesEq, SpeciesEq]))
        if cls is Bottom:
            return Bottom()
        if cls is In:
            return In(draw(terms), draw(_species_refs))
        if cls is SpeciesEq:
            return SpeciesEq(draw(_species_refs), draw(_species_refs))
        return cls(draw(terms), draw(terms))
    cls = draw(st.sampled_from([And, Or, Implies, Exists, Forall, Exists,
                                Forall]))
    if cls in (And, Or, Implies):
        return cls(draw(_source_formulas(names, open_pairs, depth - 1)),
                   draw(_source_formulas(names, open_pairs, depth - 1)))
    body = draw(_source_formulas(names, open_pairs, depth - 1))
    if draw(st.integers(0, 2)):
        # Half the species binders use their variable first thing.
        index = draw(st.sampled_from([0, 0, 0, 1, 2]))
        if draw(st.booleans()):
            body = And(In(draw(terms), SpeciesVar(index)), body)
        return cls(species_binder_name(index), Sort.SPECIES, body)
    return cls(draw(st.sampled_from(names)), Sort.NAT, body)


@st.composite
def _translation_cases(draw):
    """A source formula; a third of the formulas draw their variables
    from the colliding pool, half hold open pairs."""
    names = draw(st.sampled_from([_CLEAN_NAMES, _CLEAN_NAMES,
                                  _COLLIDING_NAMES]))
    return draw(_source_formulas(names, draw(st.booleans())))


def _outcome(fn, *args):
    """fn's result, or the type and message of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # the type is part of what is compared
        return type(exc), str(exc)


@settings(max_examples=400)
@given(_translation_cases())
def test_translation_matches_the_reference_pipeline(f):
    """In every expansion and orientation: the reference's output, or
    its first error by type and message."""
    for orientation in Orientation:
        for expansion in Expansion:
            config = TranslationConfig(expansion, orientation)
            assert (_outcome(translate, f, config)
                    == _outcome(reference_translate, f, config))

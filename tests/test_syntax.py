"""Tests for the abstract syntax layer: sorting, substitution, scoping."""

import itertools
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringterp.sexpr import (
    format_formula, format_term, parse_formula, parse_term,
)
from ringterp.syntax import (
    AMBIENT_SORT, BOT, Add, And, Apart, Bottom, DefinedQuant, Eq, Exists,
    Forall, Formula, FreeVars, Implies, In, Language, Lt, Mul, NatConst, Node,
    Or, Pair, QuantKind, RealConst, SENTINEL_FORMULA, Sort, SortError,
    SpeciesConst, SpeciesEq,
    SpeciesRef, SpeciesVar, Succ, Term, Var, all_var_names, alpha_equal,
    check_formula, children, free_vars, fresh_name, infer_term_sort,
    is_closed, neg, normalize_apart, rebuild, species_binder_index,
    species_binder_name, species_indices, substitute, term_sort,
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

    def test_only_the_table_classes_are_nodes(self):
        class Shadow(Var):
            __slots__ = ()

        with pytest.raises(SortError, match=r"^not a term: Var\(name='x'"):
            check_formula(Eq(Shadow("x", Sort.NAT), x), "source")
        with pytest.raises(SortError, match="^not a species reference: <"):
            check_formula(In(x, SpeciesRef()), "source")

    @pytest.mark.parametrize("name", ["X\u0663", "X\u00b2", "X1\n", "x1"])
    def test_species_binder_indices_are_ascii_digits(self, name):
        with pytest.raises(SortError, match="must look like X0, X1"):
            species_binder_index(name)


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


# ---------------------------------------------------------------------------
# The node contract: every class of the node table, one example each,
# with its repr as error messages show it.

VX = "Var(name='x', sort=<Sort.NAT: 'Nat'>)"
NODES = {
    Var: (x, VX),
    NatConst: (NatConst(3), "NatConst(value=3)"),
    RealConst: (RealConst("a1"), "RealConst(name='a1')"),
    Add: (Add(x, n), f"Add(left={VX}, right=Var(name='n', "
                     "sort=<Sort.NAT: 'Nat'>))"),
    Mul: (Mul(x, NatConst(2)), f"Mul(left={VX}, right=NatConst(value=2))"),
    Pair: (Pair(NatConst(0), x), f"Pair(left=NatConst(value=0), right={VX})"),
    Succ: (Succ(x), f"Succ(arg={VX})"),
    SpeciesVar: (SpeciesVar(2), "SpeciesVar(index=2)"),
    SpeciesConst: (SpeciesConst(1), "SpeciesConst(index=1)"),
    Bottom: (BOT, "Bottom()"),
    Eq: (Eq(x, x), f"Eq(left={VX}, right={VX})"),
    Lt: (Lt(rx, ry), "Lt(left=Var(name='x', sort=<Sort.REAL: 'Real'>), "
                     "right=Var(name='y', sort=<Sort.REAL: 'Real'>))"),
    Apart: (Apart(x, NatConst(0)),
            f"Apart(left={VX}, right=NatConst(value=0))"),
    In: (In(x, SpeciesConst(1)),
         f"In(element={VX}, species=SpeciesConst(index=1))"),
    SpeciesEq: (SpeciesEq(SpeciesVar(0), SpeciesConst(2)),
                "SpeciesEq(left=SpeciesVar(index=0), "
                "right=SpeciesConst(index=2))"),
    And: (And(BOT, Eq(x, x)), f"And(left=Bottom(), right=Eq(left={VX}, "
                              f"right={VX}))"),
    Or: (Or(BOT, BOT), "Or(left=Bottom(), right=Bottom())"),
    Implies: (Implies(BOT, BOT), "Implies(left=Bottom(), right=Bottom())"),
    Exists: (Exists("x", Sort.NAT, Eq(x, x)),
             f"Exists(var='x', sort=<Sort.NAT: 'Nat'>, "
             f"body=Eq(left={VX}, right={VX}))"),
    Forall: (Forall("X0", Sort.SPECIES, In(x, SpeciesVar(0))),
             "Forall(var='X0', sort=<Sort.SPECIES: 'Species'>, "
             f"body=In(element={VX}, species=SpeciesVar(index=0)))"),
    DefinedQuant: (DefinedQuant(QuantKind.EXISTS_NAT, "y", BOT),
                   "DefinedQuant(kind=<QuantKind.EXISTS_NAT: 'existsN'>, "
                   "var='y', body=Bottom())"),
}
EXAMPLES = [node for node, _ in NODES.values()]


def copy_of(node):
    """A node equal to node but built anew, down to its leaves; whatever
    is no node is kept as it is."""
    cls = type(node)
    if cls not in NODES:
        return node
    data = [getattr(node, name) for name in cls.data_fields]
    return cls(*data, *map(copy_of, children(node)))


class TestNodeContract:
    def test_every_table_class_has_an_example(self):
        classes = {c for base in (Term, SpeciesRef, Formula)
                   for c in base.__subclasses__()}
        assert classes == set(NODES)
        assert all(issubclass(c, Node) for c in classes)

    @pytest.mark.parametrize("cls", NODES, ids=lambda c: c.__name__)
    def test_repr_is_literal(self, cls):
        node, text = NODES[cls]
        assert repr(node) == text

    @pytest.mark.parametrize("cls", NODES, ids=lambda c: c.__name__)
    def test_equal_nodes_hash_equal(self, cls):
        node, _ = NODES[cls]
        other = copy_of(node)
        assert other == node and not other != node
        assert hash(other) == hash(node)
        assert len({node, other}) == 1

    def test_equality_is_class_sensitive(self):
        a, b = Eq(x, x), BOT
        assert And(a, b) != Or(a, b)
        assert Add(x, n) != Mul(x, n)
        assert Exists("x", Sort.NAT, BOT) != Forall("x", Sort.NAT, BOT)
        assert SpeciesVar(1) != SpeciesConst(1)
        for p, q in itertools.combinations(EXAMPLES, 2):
            assert p != q and not p == q

    def test_equality_compares_fields(self):
        assert Var("x", Sort.NAT) != Var("x", Sort.REAL)
        assert NatConst(1) != NatConst(2)
        assert And(BOT, Eq(x, x)) != And(BOT, Eq(x, n))
        assert NatConst(1) != 1 and NatConst(1) != (1,)

    @pytest.mark.parametrize("cls", NODES, ids=lambda c: c.__name__)
    def test_nodes_are_immutable_and_slotted(self, cls):
        node, _ = NODES[cls]
        assert not hasattr(node, "__dict__")
        for name in (*cls.__slots__, "extra"):
            with pytest.raises(AttributeError):
                setattr(node, name, None)
            with pytest.raises(AttributeError):
                delattr(node, name)
        assert repr(node) == NODES[cls][1]

    def test_negative_numerals_and_indices_are_value_errors(self):
        with pytest.raises(ValueError) as err:
            NatConst(-1)
        assert str(err.value) == "numerals are nonnegative, got -1"
        for cls in (SpeciesVar, SpeciesConst):
            with pytest.raises(ValueError) as err:
                cls(-2)
            assert str(err.value) == "species indices are nonnegative"

    @pytest.mark.parametrize("cls", NODES, ids=lambda c: c.__name__)
    def test_rebuild_shares_unchanged_nodes(self, cls):
        node, _ = NODES[cls]
        assert rebuild(node, children(node)) is node
        assert rebuild(node, list(children(node))) is node

    @pytest.mark.parametrize("cls", [c for c in NODES if c.child_kinds],
                             ids=lambda c: c.__name__)
    def test_rebuild_keeps_class_and_data(self, cls):
        node, _ = NODES[cls]
        fresh = {Term: NatConst(7), SpeciesRef: SpeciesConst(5),
                 Formula: Lt(x, n)}
        for i, kind in enumerate(cls.child_kinds):
            kids = list(children(node))
            kids[i] = fresh[kind]
            out = rebuild(node, kids)
            assert type(out) is cls and out is not node
            for name in cls.data_fields:
                assert getattr(out, name) == getattr(node, name)
            assert children(out) == tuple(kids)


def _round_trip_cases():
    """(node, language) for every head of the printer and reader, in each
    language where the node is legal."""
    heads = [node for cls, (node, _) in NODES.items()
             if cls not in (SpeciesVar, SpeciesConst)]
    heads += [In(x, SpeciesVar(3)), SpeciesEq(SpeciesConst(0), SpeciesVar(1)),
              Implies(Eq(x, n), BOT), Var("x", Sort.REAL), rx,
              Exists("y", Sort.REAL, Lt(ry, ry)),
              Forall("y", Sort.REAL, Apart(ry, NatConst(1)))]
    heads += [DefinedQuant(kind, "y", Eq(ry, RealConst("c")))
              for kind in QuantKind]
    cases = []
    for node in heads:
        for language in Language:
            try:
                if isinstance(node, Term):
                    term_sort(node, language)
                else:
                    check_formula(node, language)
            except SortError:
                continue
            cases.append((node, language))
    return cases


@pytest.mark.parametrize("node,language", _round_trip_cases(),
                         ids=lambda v: getattr(v, "value", None))
def test_parse_inverts_format(node, language):
    if isinstance(node, Term):
        assert parse_term(format_term(node, language), language) == node
    else:
        assert parse_formula(format_formula(node, language), language) == node


def test_round_trip_cases_cover_every_class_and_both_languages():
    cases = _round_trip_cases()
    covered = set()
    for node, _ in cases:
        stack = [node]
        while stack:
            top = stack.pop()
            covered.add(type(top))
            stack.extend(children(top))
    assert covered == set(NODES)
    assert {language for _, language in cases} == set(Language)


# ---------------------------------------------------------------------------
# The hand-written sort checker the rule table and its walker replaced,
# kept as the reference of a differential test: one isinstance chain per
# function.  The evaluator's differential test checks sorts with it too.


def reference_term_sort(t: Term, language: Language) -> Sort:
    ambient = AMBIENT_SORT[language]
    if isinstance(t, Var):
        if t.sort is not ambient:
            raise SortError(
                f"variable {t.name!r} has sort {t.sort.value}, "
                f"but {language.value} terms have sort {ambient.value}"
            )
        return ambient
    if isinstance(t, NatConst):
        return ambient
    if isinstance(t, RealConst):
        if language is not Language.TARGET:
            raise SortError(f"real constant {t.name!r} is target-language only")
        return Sort.REAL
    if isinstance(t, (Add, Mul)):
        reference_term_sort(t.left, language)
        reference_term_sort(t.right, language)
        return ambient
    if isinstance(t, Pair):
        if language is not Language.SOURCE:
            raise SortError("pairing is a source-language operation")
        reference_term_sort(t.left, language)
        reference_term_sort(t.right, language)
        return Sort.NAT
    if isinstance(t, Succ):
        if language is not Language.SOURCE:
            raise SortError("succ is a source-language operation")
        reference_term_sort(t.arg, language)
        return Sort.NAT
    raise SortError(f"not a term: {t!r}")


def reference_check_formula(f: Formula, language: Language | str) -> None:
    _reference_check_formula(f, Language(language))


def _reference_check_formula(f: Formula, language: Language) -> None:
    src = language is Language.SOURCE
    if isinstance(f, Bottom):
        return
    if isinstance(f, (Eq, Lt, Apart)):
        reference_term_sort(f.left, language)
        reference_term_sort(f.right, language)
        return
    if isinstance(f, In):
        if not src:
            raise SortError("membership atoms are source-language only")
        reference_term_sort(f.element, language)
        if not isinstance(f.species, SpeciesRef):
            raise SortError(f"not a species reference: {f.species!r}")
        return
    if isinstance(f, SpeciesEq):
        if not src:
            raise SortError("species equality is source-language only")
        for ref in (f.left, f.right):
            if not isinstance(ref, SpeciesRef):
                raise SortError(f"not a species reference: {ref!r}")
        return
    if isinstance(f, (And, Or, Implies)):
        _reference_check_formula(f.left, language)
        _reference_check_formula(f.right, language)
        return
    if isinstance(f, (Exists, Forall)):
        if src:
            if f.sort is Sort.SPECIES:
                species_binder_index(f.var)
            elif f.sort is not Sort.NAT:
                raise SortError(
                    f"source quantifiers bind Nat or Species, got {f.sort.value}"
                )
        elif f.sort is not Sort.REAL:
            raise SortError(f"target quantifiers bind Real, got {f.sort.value}")
        _reference_check_formula(f.body, language)
        return
    if isinstance(f, DefinedQuant):
        if src:
            raise SortError("defined quantifiers belong to the target language")
        _reference_check_formula(f.body, language)
        return
    raise SortError(f"not a formula: {f!r}")


def reference_infer_term_sort(t: Term) -> Optional[Sort]:
    if isinstance(t, Var):
        return t.sort
    if isinstance(t, NatConst):
        return None
    if isinstance(t, RealConst):
        return Sort.REAL
    if isinstance(t, (Pair, Succ)):
        return Sort.NAT
    if isinstance(t, (Add, Mul)):
        lo = reference_infer_term_sort(t.left)
        hi = reference_infer_term_sort(t.right)
        if lo is not None and hi is not None and lo is not hi:
            raise SortError(f"mixed-sort term: {t!r}")
        return lo or hi
    raise SortError(f"not a term: {t!r}")


_NAMES = ["x", "y", "X0", "X1", "X12", "Y1"]
_JUNK = [0, "x", None, (), Sort.NAT]
_FOREIGN = {Language.SOURCE: {RealConst, DefinedQuant},
            Language.TARGET: {Pair, Succ, In, SpeciesEq}}


@st.composite
def _asts(draw, language, kind=Formula, depth=4):
    """A node of the given kind, drawn from the node table, mostly of a
    class of language and with sorts the language allows.  Now and then
    a node is of a class of the other language, a child is of another
    kind or no node at all, and a variable or a binder has another sort."""
    if draw(st.integers(0, 7)) == 0:
        return draw(st.one_of(st.sampled_from(_JUNK),
                              _asts(language, depth=depth - 1),
                              _asts(language, Term, depth - 1),
                              _asts(language, SpeciesRef, depth - 1)))
    # Mostly inner nodes down to the last level, so that trees are big.
    classes = [cls for cls in NODES if cls.__base__ is kind]
    inner = depth > 0 and draw(st.integers(0, 3)) > 0
    classes = [cls for cls in classes
               if bool(cls.child_kinds) is inner] or classes
    if draw(st.integers(0, 9)):
        classes = [cls for cls in classes if cls not in _FOREIGN[language]]
    cls = draw(st.sampled_from(classes))
    if cls is Var or language is Language.TARGET:
        sorts = [AMBIENT_SORT[language]]
    else:
        sorts = [Sort.NAT, Sort.SPECIES]
    fields = {"name": st.sampled_from(_NAMES), "var": st.sampled_from(_NAMES),
              "sort": st.sampled_from(sorts * 3 + list(Sort)),
              "value": st.integers(0, 3), "index": st.integers(0, 2),
              "kind": st.sampled_from(QuantKind)}
    data = [draw(fields[name]) for name in cls.data_fields]
    kids = [draw(_asts(language, child, depth - 1))
            for child in cls.child_kinds]
    return cls(*data, *kids)


def _outcome(fn, *args):
    """fn's result, or the type and message of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # the type is part of what is compared
        return type(exc), str(exc)


@pytest.mark.parametrize("wrap", [
    lambda f: f, lambda f: And(BOT, f), lambda f: Forall("y", Sort.REAL, f),
    lambda f: Eq(f, NatConst(0)), lambda f: Implies(Eq(rx, f), BOT),
], ids=["alone", "in-and", "under-binder", "as-term", "in-atom"])
def test_the_shared_sentinel_is_checked_like_a_fresh_copy(wrap):
    """The target check skips the shared node only where a formula
    stands; anywhere else, and in the source language, it raises what an
    unshared copy raises."""
    fresh = Or(Eq(ry, NatConst(0)), Apart(ry, NatConst(0)))
    assert fresh == SENTINEL_FORMULA and fresh is not SENTINEL_FORMULA
    for language in Language:
        want = _outcome(reference_check_formula, wrap(fresh), language)
        for f in (fresh, SENTINEL_FORMULA):
            assert _outcome(check_formula, wrap(f), language) == want
        assert (_outcome(term_sort, SENTINEL_FORMULA, language)
                == _outcome(reference_term_sort, fresh, language))
    source = _outcome(check_formula, SENTINEL_FORMULA, Language.SOURCE)
    assert source == (SortError, "variable 'y' has sort Real, but source "
                                 "terms have sort Nat")


@settings(max_examples=400)
@given(st.sampled_from(Language), st.sampled_from([Formula, Term]), st.data())
def test_sort_rules_match_the_reference_checker(drawn_for, kind, data):
    """check_formula and term_sort in both languages, and infer_term_sort,
    on formulas and terms alike: each gives the reference's result or
    its first error, by type and message."""
    node = data.draw(_asts(drawn_for, kind))
    for language in Language:
        assert (_outcome(check_formula, node, language)
                == _outcome(reference_check_formula, node, language))
        assert (_outcome(term_sort, node, language)
                == _outcome(reference_term_sort, node, language))
    assert (_outcome(infer_term_sort, node)
            == _outcome(reference_infer_term_sort, node))


# ---------------------------------------------------------------------------
# The scoped walker against frozen copies of the four passes it replaced


_REF_QUANTIFIERS = (Exists, Forall, DefinedQuant)


def _ref_bound_sort(q):
    return Sort.REAL if type(q) is DefinedQuant else q.sort


def reference_free_vars(f):
    nat, species, real = set(), set(), set()

    def walk(node, bound, bspec):
        cls = type(node)
        if cls is Var:
            if node.name not in bound:
                (nat if node.sort is Sort.NAT else real).add(node.name)
        elif cls is SpeciesVar:
            if node.index not in bspec:
                species.add(node.index)
        elif cls is Exists or cls is Forall or cls is DefinedQuant:
            if _ref_bound_sort(node) is Sort.SPECIES:
                walk(node.body, bound, bspec | {species_binder_index(node.var)})
            else:
                walk(node.body, bound | {node.var}, bspec)
        else:
            for child in children(node):
                walk(child, bound, bspec)

    walk(f, frozenset(), frozenset())
    return FreeVars(frozenset(nat), frozenset(species), frozenset(real))


def reference_all_var_names(f):
    names = set()
    stack = [f]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            names.add(node.name)
        elif (isinstance(node, _REF_QUANTIFIERS)
              and _ref_bound_sort(node) is not Sort.SPECIES):
            names.add(node.var)
        stack.extend(children(node))
    return frozenset(names)


def reference_species_indices(f):
    var_idx, const_idx = set(), set()

    def walk(node):
        if isinstance(node, SpeciesVar):
            var_idx.add(node.index)
        elif isinstance(node, SpeciesConst):
            const_idx.add(node.index)
        elif not isinstance(node, Term):
            if (isinstance(node, _REF_QUANTIFIERS)
                    and _ref_bound_sort(node) is Sort.SPECIES):
                var_idx.add(species_binder_index(node.var))
            for child in children(node):
                walk(child)

    walk(f)
    return frozenset(var_idx), frozenset(const_idx)


def reference_alpha_equal(f, g):
    def walk(a, b, ma, mb, depth):
        cls = type(a)
        if cls is not type(b):
            return False
        if cls is Var:
            ka, kb = ma.get(a.name), mb.get(b.name)
            if ka is None and kb is None:
                return a.name == b.name and a.sort is b.sort
            return ka is not None and ka == kb and a.sort is b.sort
        if cls is SpeciesVar:
            ka, kb = ma.get(a.index), mb.get(b.index)
            if ka is None and kb is None:
                return a.index == b.index
            return ka is not None and ka == kb
        if cls in _REF_QUANTIFIERS:
            sort = _ref_bound_sort(a)
            if sort is not _ref_bound_sort(b) or (
                    cls is DefinedQuant and a.kind is not b.kind):
                return False
            if sort is Sort.SPECIES:
                ma = {**ma, species_binder_index(a.var): depth}
                mb = {**mb, species_binder_index(b.var): depth}
            else:
                ma = {**ma, a.var: depth}
                mb = {**mb, b.var: depth}
            return walk(a.body, b.body, ma, mb, depth + 1)
        kids = children(a)
        if not kids:
            return a == b
        for x, y in zip(kids, children(b)):
            if not walk(x, y, ma, mb, depth):
                return False
        return True

    return f == g or walk(f, g, {}, {}, 0)


def renamed_apart(node, names=None, indices=None, fresh=None):
    """node with every binder renamed to a name or index no input uses
    (r0, r1, ... and 10, 11, ...), its bound occurrences with it: an
    alpha-variant that is not equal to node, so that alpha_equal walks.
    Anything that is no node is kept as it is."""
    names, indices = names or {}, indices or {}
    fresh = fresh if fresh is not None else itertools.count()
    cls = type(node)
    if cls not in NODES:
        return node
    if cls is Var:
        return Var(names.get(node.name, node.name), node.sort)
    if cls is SpeciesVar:
        return SpeciesVar(indices.get(node.index, node.index))
    if cls in _REF_QUANTIFIERS:
        k = next(fresh)
        if _ref_bound_sort(node) is Sort.SPECIES:
            try:
                index = species_binder_index(node.var)
            except SortError:
                return node
            var = species_binder_name(10 + k)
            indices = {**indices, index: 10 + k}
        else:
            var = f"r{k}"
            names = {**names, node.var: var}
        body = renamed_apart(node.body, names, indices, fresh)
        if cls is DefinedQuant:
            return DefinedQuant(node.kind, var, body)
        return cls(var, node.sort, body)
    return rebuild(node, [renamed_apart(c, names, indices, fresh)
                          for c in children(node)])


def _bumped(node):
    """node with every numeral and species constant index one higher and
    every real constant renamed: for a node holding any of them, a tree
    of the same shape that is not alpha-equal to it."""
    cls = type(node)
    if cls is NatConst:
        return NatConst(node.value + 1)
    if cls is SpeciesConst:
        return SpeciesConst(node.index + 1)
    if cls is RealConst:
        return RealConst(node.name + "1")
    if cls not in NODES:
        return node
    return rebuild(node, [_bumped(c) for c in children(node)])


def _first_bad(node) -> Optional[str]:
    """The SortError message of the first node, in pre-order, that is no
    node or a species binder not named X<i>; None when there is none."""
    if type(node) not in NODES:
        return f"not a term or formula: {node!r}"
    if (type(node) in _REF_QUANTIFIERS
            and _ref_bound_sort(node) is Sort.SPECIES):
        try:
            species_binder_index(node.var)
        except SortError as exc:
            return str(exc)
    return next(filter(None, map(_first_bad, children(node))), None)


def _terms_hold_only_terms(node) -> bool:
    """Whether every term in node has only terms below it: the trees on
    which skipping terms, as the old species_indices did, loses
    nothing."""
    if type(node) not in NODES:
        return True
    if node.__class__.__base__ is Term:
        return all(type(c) in NODES and type(c).__base__ is Term
                   and _terms_hold_only_terms(c) for c in children(node))
    return all(map(_terms_hold_only_terms, children(node)))


def assert_passes_match_the_references(f, g) -> None:
    """The four passes on f, and alpha_equal on (f, g), (f, f's renamed
    copy) and (g, f), give their frozen references' results or errors,
    but for the differences CHANGES.md lists and the tests below pin."""
    assert _outcome(free_vars, f) == _outcome(reference_free_vars, f)
    bad = _first_bad(f)
    assert _outcome(all_var_names, f) == (
        (SortError, bad) if bad else _outcome(reference_all_var_names, f))
    if _terms_hold_only_terms(f):
        assert (_outcome(species_indices, f)
                == _outcome(reference_species_indices, f))
    elif bad:
        assert _outcome(species_indices, f) == (SortError, bad)
    for a, b in ((f, g), (g, f), (f, renamed_apart(f)),
                 (renamed_apart(f), f), (renamed_apart(f), _bumped(f))):
        assert (_outcome(alpha_equal, a, b)
                == _outcome(reference_alpha_equal, a, b))


@settings(max_examples=300)
@given(st.sampled_from(Language), st.sampled_from([Formula, Term]), st.data())
def test_walker_passes_match_the_references(language, kind, data):
    """On drawn trees, mostly well sorted, some holding junk, a class of
    the other language, a wrong sort or a badly named species binder."""
    f = data.draw(_asts(language, kind))
    g = data.draw(st.one_of(_asts(language, kind), st.just(copy_of(f))))
    assert_passes_match_the_references(f, g)


def test_walker_passes_match_the_references_on_the_corpus():
    from ringterp.corpus import corpus_formulas
    formulas = corpus_formulas(120)
    for f, g in zip(formulas, formulas[1:] + formulas[:1]):
        assert_passes_match_the_references(f, g)
        assert alpha_equal(f, renamed_apart(f))


X1 = "X1"
_SCOPING_CASES = [
    # Binders whose bodies hold no named node.
    Exists("y", Sort.NAT, BOT),
    Exists(X1, Sort.SPECIES, BOT),
    DefinedQuant(QuantKind.FORALL_REAL, "u1", BOT),
    # Shadowing: the inner binder hides the outer one.
    Exists("x", Sort.NAT, And(Eq(x, n), Forall("x", Sort.NAT, Lt(x, n)))),
    Forall("x", Sort.NAT, Exists("x", Sort.NAT, Eq(x, x))),
    # A species index bound again, and used on each side of the rebinding.
    Exists(X1, Sort.SPECIES, And(In(x, SpeciesVar(1)), Forall(
        X1, Sort.SPECIES, SpeciesEq(SpeciesVar(1), SpeciesVar(2))))),
    Exists("X0", Sort.SPECIES, Forall("X0", Sort.SPECIES, Exists(
        "X0", Sort.SPECIES, In(NatConst(0), SpeciesVar(0))))),
    # Free and bound uses of one name, and a species constant.
    And(Eq(x, NatConst(1)), Exists("x", Sort.NAT, In(
        x, SpeciesConst(1)))),
]


@pytest.mark.parametrize("f", _SCOPING_CASES)
def test_walker_passes_match_the_references_on_scoping_cases(f):
    for g in _SCOPING_CASES:
        assert_passes_match_the_references(f, g)
    assert alpha_equal(f, renamed_apart(f))
    assert renamed_apart(f) != f


def test_binders_over_bodies_without_names():
    assert all_var_names(Exists("y", Sort.NAT, BOT)) == {"y"}
    assert species_indices(Exists(X1, Sort.SPECIES, BOT)) == (
        frozenset({1}), frozenset())
    assert is_closed(Exists(X1, Sort.SPECIES, BOT))


def test_alpha_equal_compares_leaves_under_renamed_binders():
    f = Exists("x", Sort.NAT, Eq(x, NatConst(0)))
    assert alpha_equal(f, renamed_apart(f))
    assert not alpha_equal(renamed_apart(f), _bumped(f))
    g = Exists(X1, Sort.SPECIES, SpeciesEq(SpeciesVar(1), SpeciesConst(2)))
    assert not alpha_equal(renamed_apart(g), _bumped(g))


def test_alpha_equal_compares_binders_by_depth():
    # Shadowed x against a fresh name at the same depth, and crossed.
    inner = Forall("x", Sort.NAT, Exists("x", Sort.NAT, Eq(x, x)))
    fresh = Forall("x", Sort.NAT, Exists("z", Sort.NAT, Eq(
        Var("z", Sort.NAT), Var("z", Sort.NAT))))
    outer = Forall("x", Sort.NAT, Exists("z", Sort.NAT, Eq(x, x)))
    assert alpha_equal(inner, fresh) and not alpha_equal(inner, outer)
    rebound = Exists(X1, Sort.SPECIES, Exists(X1, Sort.SPECIES, In(
        x, SpeciesVar(1))))
    assert alpha_equal(rebound, Exists("X5", Sort.SPECIES, Exists(
        "X7", Sort.SPECIES, In(x, SpeciesVar(7)))))
    assert not alpha_equal(rebound, Exists("X5", Sort.SPECIES, Exists(
        "X7", Sort.SPECIES, In(x, SpeciesVar(5)))))


def test_alpha_equal_compares_free_species_and_defined_kinds():
    # Each pair has renamed binders, so the walk decides, not ==.
    r, s = Var("r", Sort.REAL), Var("s", Sort.REAL)
    free = Exists("x", Sort.NAT, In(x, SpeciesVar(1)))
    some = DefinedQuant(QuantKind.EXISTS_REAL, "r", Eq(r, r))
    cases = [
        (free, Exists("n", Sort.NAT, In(n, SpeciesVar(1))), True),
        (free, Exists("n", Sort.NAT, In(n, SpeciesVar(2))), False),
        (some, DefinedQuant(QuantKind.EXISTS_REAL, "s", Eq(s, s)), True),
        (some, DefinedQuant(QuantKind.FORALL_REAL, "s", Eq(s, s)), False),
    ]
    for f, g, expected in cases:
        assert alpha_equal(f, g) is reference_alpha_equal(f, g) is expected


class TestWalkerDifferences:
    """Malformed trees on which a pass now raises, or counts, where the
    old one did not; each is listed in CHANGES.md."""

    def test_all_var_names_checks_species_binder_names(self):
        f = Exists("x", Sort.SPECIES, Eq(n, n))
        assert reference_all_var_names(f) == {"n"}
        with pytest.raises(SortError, match="species binder must look like"):
            all_var_names(f)

    def test_all_var_names_reports_the_first_bad_node_in_pre_order(self):
        f = And(Eq(x, "a"), Eq(x, "b"))
        with pytest.raises(SortError, match="'b'"):
            reference_all_var_names(f)
        with pytest.raises(SortError, match="'a'"):
            all_var_names(f)

    def test_species_indices_walks_terms(self):
        junk = Eq(Add(NatConst(0), "junk"), x)
        assert reference_species_indices(junk) == (frozenset(), frozenset())
        with pytest.raises(SortError, match="not a term or formula: 'junk'"):
            species_indices(junk)
        misplaced = Eq(Succ(SpeciesVar(3)), x)
        assert reference_species_indices(misplaced) == (frozenset(),
                                                        frozenset())
        assert species_indices(misplaced) == (frozenset({3}), frozenset())

    def test_subclasses_of_node_classes_are_no_nodes(self):
        class SubVar(Var):
            __slots__ = ()

        class SubApart(Apart):
            __slots__ = ()

        class SubSpeciesVar(SpeciesVar):
            __slots__ = ()

        message = "not a term or formula: "
        f = Eq(SubVar("x", Sort.NAT), n)
        with pytest.raises(SortError, match=message):
            substitute(f, "x", Sort.NAT, NatConst(1))
        with pytest.raises(SortError, match=message):
            normalize_apart(SubApart(x, n))
        with pytest.raises(SortError, match=message):
            species_indices(In(x, SubSpeciesVar(1)))
        with pytest.raises(SortError, match=message):
            free_vars(f)  # as before this walker

    def test_subclasses_of_binders_and_defined_quantifiers(self):
        from ringterp.translate import expand_defined, translate

        class SubExists(Exists):
            __slots__ = ()

        class SubDefined(DefinedQuant):
            __slots__ = ()

        message = "not a term or formula: "
        with pytest.raises(SortError, match=message):
            substitute(SubExists("n", Sort.NAT, Eq(x, n)), "x", Sort.NAT, n)
        with pytest.raises(SortError, match=message):
            expand_defined(SubDefined(QuantKind.EXISTS_REAL, "z", BOT))
        # translate's source check rejects a subclass before tau sees it.
        with pytest.raises(SortError, match="not a formula: "):
            translate(SubExists("n", Sort.NAT, Eq(n, n)))


def test_syntax_and_translate_dispatch_on_the_exact_class():
    """No isinstance call: a pass tests type(node) is C, so that no pass
    takes a subclass of a node class for a node."""
    import ast
    import pathlib

    import ringterp
    root = pathlib.Path(ringterp.__file__).parent
    for module in ("syntax.py", "translate.py"):
        tree = ast.parse((root / module).read_text(encoding="utf-8"))
        calls = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Name)
                 and node.func.id == "isinstance"]
        assert calls == [], f"{module} calls isinstance on lines {calls}"

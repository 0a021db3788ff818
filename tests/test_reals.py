"""Tests for dyadic generators and bounded witness comparisons."""

import itertools
import math
import sys
import tracemalloc
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringterp import encoder, selftest
from ringterp.encoder import encode_stabilized
from ringterp.reals import (
    AGAINST, UNDETERMINED, InsufficientHorizon, Precision, RealGen, _has_run,
    _slack, add, apart_at, check_certified, check_modulus,
    cutover_unit_fraction, eq_at, exact_order, exact_relation, exact_sign,
    from_nat, from_unit_fraction, lt_at, mul, nat_scalar, order_at,
    relation_at,
)
from ringterp.selftest import generator_corpus


def rational(p: int, q: int) -> RealGen:
    """p / q as a generator, for cross-checking against Fraction."""
    return nat_scalar(p, from_unit_fraction(q))


def naive_eq_at(a: RealGen, b: RealGen, prec: Precision) -> bool:
    """Reference implementation: direct window scan, no deque."""
    top = 2 * prec.horizon
    levels = []
    for i in range(top + 1):
        d = abs(a.at(i) - b.at(i))
        levels.append(math.inf if d == 0 else i - d.bit_length())
    width = prec.horizon + 1
    return any(min(levels[s:s + width]) >= prec.k
               for s in range(top + 2 - width))


def naive_lt_at(a: RealGen, b: RealGen, prec: Precision) -> bool:
    top = 2 * prec.horizon
    levels = []
    for i in range(top + 1):
        d = b.at(i) - a.at(i)
        levels.append(math.inf if d <= 0 else max(0, i - d.bit_length() + 1))
    width = prec.horizon + 1
    return any(max(levels[s:s + width]) <= prec.k
               for s in range(top + 2 - width))


def _window_ok(levels: list, width: int, want_min: bool, bound: int) -> bool:
    """Is there a window of `width` consecutive levels whose min (or max)
    clears `bound`?  Monotone deque, one pass."""
    dq: deque[int] = deque()
    for i, level in enumerate(levels):
        while dq and (
            (levels[dq[-1]] >= level) if want_min else (levels[dq[-1]] <= level)
        ):
            dq.pop()
        dq.append(i)
        if dq[0] <= i - width:
            dq.popleft()
        if i >= width - 1:
            best = levels[dq[0]]
            if (best >= bound) if want_min else (best <= bound):
                return True
    return False


def deque_eq_at(a: RealGen, b: RealGen, prec: Precision) -> bool:
    """Reference implementation: level list plus monotone-deque window."""
    top = 2 * prec.horizon
    levels = []
    for i in range(top + 1):
        d = abs(a.at(i) - b.at(i))
        levels.append(math.inf if d == 0 else i - d.bit_length())
    return _window_ok(levels, prec.horizon + 1, want_min=True, bound=prec.k)


def deque_lt_at(a: RealGen, b: RealGen, prec: Precision) -> bool:
    top = 2 * prec.horizon
    levels = []
    for i in range(top + 1):
        d = b.at(i) - a.at(i)
        levels.append(math.inf if d <= 0 else max(0, i - d.bit_length() + 1))
    return _window_ok(levels, prec.horizon + 1, want_min=False, bound=prec.k)


class FrozenGen:
    """Reference implementation: RealGen as it was when each library
    constructor stated its stage rule twice, as approx and as a vector
    that builds the stage list from its operands' lists.  The list was
    kept unchecked; without a vector (a user-supplied generator, or a
    library one over it), stages(n) asked at() stage by stage."""

    __slots__ = ("_approx", "_hint", "name", "_memo", "_hint_memo",
                 "_vector", "_stages", "_exact")

    def __init__(self, approx, hint, name="", *, vector=None):
        self._approx = approx
        self._hint = hint
        self.name = name
        self._memo = {}
        self._hint_memo = {}
        self._vector = vector
        self._stages = []
        self._exact = None

    def at(self, x):
        if not isinstance(x, int) or x < 0:
            raise ValueError(f"stage must be a nonnegative integer, got {x!r}")
        got = self._memo.get(x)
        if got is None:
            got = self._approx(x)
            if not isinstance(got, int) or got < 0:
                raise ValueError(
                    f"approximant of {self.name or 'generator'} at stage {x} "
                    f"is not a natural: {got!r}"
                )
            self._memo[x] = got
        return got

    def hint(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"precision must be a nonnegative integer, got {k!r}")
        got = self._hint_memo.get(k)
        if got is None:
            got = self._hint(k)
            if not isinstance(got, int) or got < 0:
                raise ValueError(
                    f"modulus hint of {self.name or 'generator'} at precision "
                    f"{k} is not a natural: {got!r}"
                )
            self._hint_memo[k] = got
        return got

    def stages(self, n):
        if len(self._stages) <= n:
            if self._vector is None:
                return [self.at(x) for x in range(n + 1)]
            self._stages = self._vector(n)
        return self._stages

    def __repr__(self):
        return f"RealGen({self.name or '?'})"


def _frozen_lifted(vector, *operands):
    return vector if all(g._vector is not None for g in operands) else None


def frozen_from_nat(n):
    if n < 0:
        raise ValueError("from_nat takes a natural number")
    g = FrozenGen(lambda x: n << x, lambda k: 0, name=str(n),
                  vector=lambda top: [n << x for x in range(top + 1)])
    g._exact = (n, 1, 0, 0)
    return g


def frozen_from_unit_fraction(q):
    if q < 1:
        raise ValueError("from_unit_fraction takes a positive denominator")
    return frozen_cutover_unit_fraction(q, 0, f"1/{q}")


def frozen_cutover_unit_fraction(q, start, name):
    g = FrozenGen(lambda x: 0 if x < start else (1 << x) // q,
                  lambda k: max(k + 2, start), name=name,
                  vector=lambda top: [0] * start + [(1 << x) // q for x
                                                    in range(start, top + 1)])
    g._exact = (1, q, q - 1, start)
    return g


def frozen_add(a, b):
    g = FrozenGen(
        lambda x: a.at(x) + b.at(x),
        lambda k: max(a.hint(k + 1), b.hint(k + 1)),
        name=f"({a.name}+{b.name})",
        vector=_frozen_lifted(lambda top: [u + v for u, v in
                                           zip(a.stages(top), b.stages(top))],
                              a, b),
    )
    if a._exact and b._exact:
        (na, da, ea, sa), (nb, db, eb, sb) = a._exact, b._exact
        g._exact = (na * db + nb * da, da * db, ea * db + eb * da, max(sa, sb))
    return g


def frozen_mul(a, b):
    def hint(k):
        ha, hb = a.hint(1), b.hint(1)
        bound_a = (a.at(ha) >> ha) + 2
        bound_b = (b.at(hb) >> hb) + 2
        shift = (bound_a + bound_b).bit_length()
        finer = k + 1 + shift
        return max(a.hint(finer), b.hint(finer), ha, hb, k + 2)

    g = FrozenGen(
        lambda x: (a.at(x) * b.at(x)) >> x,
        hint,
        name=f"({a.name}*{b.name})",
        vector=_frozen_lifted(lambda top: [(u * v) >> x for x, (u, v) in
                                           enumerate(zip(a.stages(top),
                                                         b.stages(top)))],
                              a, b),
    )
    if a._exact and b._exact:
        (na, da, ea, sa), (nb, db, eb, sb) = a._exact, b._exact
        unit = 0 if (ea, da) == (0, 1) or (eb, db) == (0, 1) else da * db
        g._exact = (na * nb, da * db, na * eb + nb * ea + unit, max(sa, sb))
    return g


def frozen_nat_scalar(n, g):
    if n < 0:
        raise ValueError("nat_scalar takes a natural scale")
    scaled = FrozenGen(
        lambda x: n * g.at(x),
        lambda k: g.hint(k + n.bit_length()),
        name=f"({n}*{g.name})",
        vector=_frozen_lifted(lambda top: [n * u for u in g.stages(top)], g),
    )
    record = g._exact
    scaled._exact = record and (n * record[0], record[1], n * record[2],
                                record[3])
    return scaled


def frozen_eq_at(a, b, prec):
    top, k = 2 * prec.horizon, prec.k
    sa, sb = a.stages(top), b.stages(top)
    return _has_run(lambda i: sa[i] == sb[i]
                    or i - abs(sa[i] - sb[i]).bit_length() >= k, prec.horizon)


def frozen_lt_at(a, b, prec):
    top, k = 2 * prec.horizon, prec.k
    sa, sb = a.stages(top), b.stages(top)
    return _has_run(lambda i: sb[i] > sa[i]
                    and i - (sb[i] - sa[i]).bit_length() < k, prec.horizon)


def frozen_order_at(a, b, prec):
    order = exact_order(a._exact, b._exact, prec)
    return order if order is not None else 0 if frozen_eq_at(a, b, prec) \
        else -1 if frozen_lt_at(a, b, prec) \
        else 1 if frozen_lt_at(b, a, prec) else None


def frozen_check_modulus(g, prec):
    slack = {}
    for k in range(prec.k + 1):
        x = g.hint(k)
        if x > prec.horizon:
            raise InsufficientHorizon(
                f"{g.name or 'generator'}: hint({k}) = {x} exceeds "
                f"horizon {prec.horizon}"
            )
        s = slack.get(x)
        if s is None:
            s = slack[x] = _frozen_slack(g, x, prec.horizon, k)
        if s < k:
            return False
    return True


def frozen_check_certified(g, prec):
    r = g._exact
    if r is not None and r[2] < r[1] and g.hint(prec.k) <= prec.horizon:
        return True
    return frozen_check_modulus(g, prec)


def _frozen_slack(g, x, horizon, k):
    if g._vector is None:
        values = map(g.at, range(x, x + horizon + 1))
    else:
        values = iter(g.stages(2 * horizon)[x:x + horizon + 1])
    base = next(values)
    least = math.inf
    for p, value in enumerate(values, 1):
        d = abs((base << p) - value)
        if d:
            least = min(least, x + p - d.bit_length())
            if least < k:
                break
    return least


# The constructors by name, as the library gives them and as the frozen
# reference gave them.
CONSTRUCTORS = ("from_nat", "from_unit_fraction", "cutover_unit_fraction",
                "add", "mul", "nat_scalar")
LIBRARY = {name: globals()[name] for name in CONSTRUCTORS}
FROZEN = {name: globals()["frozen_" + name] for name in CONSTRUCTORS}

# Each search as the library gives it and as the frozen reference gave it.
PAIR_SEARCHES = [(eq_at, frozen_eq_at), (lt_at, frozen_lt_at),
                 (order_at, frozen_order_at)]
CHECKS = [(check_modulus, frozen_check_modulus),
          (check_certified, frozen_check_certified)]


def counter_has_run(passes, horizon: int) -> bool:
    """Reference implementation: the run counter over an iterator of
    bools, read from stage 0 up, that the stage-horizon search replaced."""
    run = 0
    for i, ok in enumerate(passes):
        if ok:
            run += 1
            if run > horizon:
                return True
        elif i >= horizon:
            return False
        else:
            run = 0
    return False


def stage_list(g, top: int) -> list[int]:
    """Stages 0 .. top of g, read through at()."""
    return [g.at(x) for x in range(top + 1)]


def counter_eq_at(a: RealGen, b: RealGen, prec: Precision) -> bool:
    """Reference implementation: eq_at over counter_has_run."""
    top, k = 2 * prec.horizon, prec.k
    sa, sb = stage_list(a, top), stage_list(b, top)
    return counter_has_run((sa[i] == sb[i]
                            or i - abs(sa[i] - sb[i]).bit_length() >= k
                            for i in range(top + 1)), prec.horizon)


def counter_lt_at(a: RealGen, b: RealGen, prec: Precision) -> bool:
    """Reference implementation: lt_at over counter_has_run."""
    top, k = 2 * prec.horizon, prec.k
    sa, sb = stage_list(a, top), stage_list(b, top)
    return counter_has_run((sb[i] > sa[i]
                            and i - (sb[i] - sa[i]).bit_length() < k
                            for i in range(top + 1)), prec.horizon)


def per_k_check_modulus(g: RealGen, prec: Precision) -> bool:
    """Reference implementation: the displacement inequality tested for
    each (k, p) in turn, stage by stage through at()."""
    for k in range(prec.k + 1):
        x = g.hint(k)
        if x > prec.horizon:
            raise InsufficientHorizon(
                f"{g.name or 'generator'}: hint({k}) = {x} exceeds "
                f"horizon {prec.horizon}"
            )
        base = g.at(x)
        for p in range(prec.horizon + 1):
            if (abs((base << p) - g.at(x + p)) << k) >= (1 << (x + p)):
                return False
    return True


def outcome(search, *args):
    """A search's verdict, or the type and text of what it raised."""
    try:
        return search(*args)
    except (ValueError, InsufficientHorizon) as exc:
        return type(exc), str(exc)


small = st.integers(min_value=0, max_value=9)
positive = st.integers(min_value=1, max_value=9)


class TestConstruction:
    def test_from_nat_is_exact(self):
        g = from_nat(5)
        assert [g.at(x) for x in range(4)] == [5, 10, 20, 40]
        assert g.hint(30) == 0

    def test_unit_fraction_floors(self):
        g = from_unit_fraction(3)
        assert [g.at(x) for x in range(5)] == [0, 0, 1, 2, 5]

    def test_rejects_bad_arguments(self):
        for build in [
            lambda: from_nat(-1),
            # 1.5 raised AttributeError, and True was read as 1
            lambda: from_nat(1.5),
            lambda: from_nat(True),
            lambda: from_unit_fraction(0),
            # 2.5 built the record (1, 2.5, 1.5, 0)
            lambda: from_unit_fraction(2.5),
            lambda: from_unit_fraction(True),
            lambda: cutover_unit_fraction(0, 0, "c"),
            lambda: cutover_unit_fraction(2.5, 0, "c"),
            lambda: cutover_unit_fraction(True, 0, "c"),
            lambda: cutover_unit_fraction(2, -1, "c"),
            lambda: cutover_unit_fraction(2, 1.0, "c"),
            lambda: cutover_unit_fraction(2, False, "c"),
            lambda: nat_scalar(-2, from_nat(1)),
            # 2.0 built the record (2.0, 1, 0.0, 0)
            lambda: nat_scalar(2.0, from_nat(1)),
            lambda: nat_scalar(True, from_nat(1)),
        ]:
            with pytest.raises(ValueError):
                build()

    def test_stage_arguments_validated(self):
        g = from_nat(1)
        with pytest.raises(ValueError):
            g.at(-1)
        with pytest.raises(ValueError):
            g.hint(-1)

    def test_precision_validation(self):
        for k, horizon, message in [
            (0, 96, "precision k must be at least 1"),
            (24, 0, "horizon must be at least 1"),
            # 24.0 raised TypeError from a shift in the first comparison
            (24.0, 96, "precision k must be an int, got 24.0"),
            (True, 96, "precision k must be an int, got True"),
            (24, 96.5, "horizon must be an int, got 96.5"),
            (24, "96", "horizon must be an int, got '96'"),
        ]:
            with pytest.raises(ValueError) as err:
                Precision(k, horizon)
            assert str(err.value) == message


class TestArithmetic:
    @given(n=small, m=small)
    def test_add_of_naturals_is_pointwise_exact(self, n: int, m: int):
        s = add(from_nat(n), from_nat(m))
        total = from_nat(n + m)
        assert all(s.at(x) == total.at(x) for x in range(16))

    @given(n=small, m=small)
    def test_mul_of_naturals_is_pointwise_exact(self, n: int, m: int):
        p = mul(from_nat(n), from_nat(m))
        prod = from_nat(n * m)
        assert all(p.at(x) == prod.at(x) for x in range(16))

    @given(n=small, q=positive)
    def test_nat_scalar_agrees_with_mul_pointwise(self, n: int, q: int):
        g = from_unit_fraction(q)
        direct = nat_scalar(n, g)
        via_mul = mul(from_nat(n), g)
        assert all(direct.at(x) == via_mul.at(x) for x in range(24))

    def test_fraction_sum(self):
        # 1/2 + 1/3 = 5/6
        s = add(from_unit_fraction(2), from_unit_fraction(3))
        assert eq_at(s, rational(5, 6), Precision(16, 64))

    def test_fraction_product(self):
        # (2/3) * (3/4) = 1/2
        p = mul(rational(2, 3), rational(3, 4))
        assert eq_at(p, from_unit_fraction(2), Precision(16, 64))

    @given(p1=small, q1=positive, p2=small, q2=positive)
    def test_sums_match_exact_rationals(self, p1, q1, p2, q2):
        s = add(rational(p1, q1), rational(p2, q2))
        total = Fraction(p1, q1) + Fraction(p2, q2)
        expect = rational(total.numerator, total.denominator)
        assert eq_at(s, expect, Precision(10, 48))


class TestComparisons:
    @given(p1=small, q1=positive, p2=small, q2=positive)
    def test_lt_matches_exact_rationals(self, p1, q1, p2, q2):
        a, b = rational(p1, q1), rational(p2, q2)
        expect = Fraction(p1, q1) < Fraction(p2, q2)
        assert lt_at(a, b, Precision(8, 48)) is expect

    @given(p=small, q=positive)
    def test_no_self_apartness_witness(self, p, q):
        g = rational(p, q)
        assert not apart_at(g, g, Precision(8, 48))

    def test_eq_false_for_distinct_values(self):
        assert not eq_at(from_unit_fraction(2), from_unit_fraction(3),
                         Precision(8, 48))

    def test_false_means_no_witness_not_refutation(self):
        # The same value found two ways: a tiny horizon finds no witness,
        # a larger one does.
        a = from_unit_fraction(3)
        b = add(from_unit_fraction(6), from_unit_fraction(6))
        assert not eq_at(a, b, Precision(30, 4))
        assert eq_at(a, b, Precision(8, 64))

    @given(p1=small, q1=positive, p2=small, q2=positive,
           k=st.integers(min_value=1, max_value=12),
           horizon=st.integers(min_value=1, max_value=20))
    def test_eq_matches_naive_reference(self, p1, q1, p2, q2, k, horizon):
        a = rational(p1, q1)
        b = add(rational(p2, q2), from_unit_fraction(q1))
        prec = Precision(k, horizon)
        assert eq_at(a, b, prec) is naive_eq_at(a, b, prec)

    @given(p1=small, q1=positive, p2=small, q2=positive,
           k=st.integers(min_value=1, max_value=12),
           horizon=st.integers(min_value=1, max_value=20))
    def test_lt_matches_naive_reference(self, p1, q1, p2, q2, k, horizon):
        a = mul(rational(p1, q1), from_unit_fraction(q2))
        b = rational(p2, q1)
        prec = Precision(k, horizon)
        assert lt_at(a, b, prec) is naive_lt_at(a, b, prec)


def faulty(stage, hint, name: str = "faulty") -> RealGen:
    """A generator whose stage rule and hint no library constructor
    builds, for the modulus checks and the searches.  Its record
    (1, 1, 1, 0) has err >= den, so check_certified scans it as
    check_modulus does; eq_at and lt_at read no record."""
    return RealGen(stage, hint, name, (1, 1, 1, 0))


class TestModulus:
    @pytest.mark.parametrize("g", [
        from_nat(0),
        from_nat(7),
        from_unit_fraction(1),
        from_unit_fraction(7),
        add(from_unit_fraction(3), from_nat(2)),
        mul(from_unit_fraction(3), from_unit_fraction(5)),
        mul(add(from_nat(1), from_unit_fraction(2)), rational(7, 3)),
        nat_scalar(9, from_unit_fraction(7)),
    ])
    def test_library_generators_honor_their_hints(self, g: RealGen):
        assert check_modulus(g, Precision(16, 64))

    def test_oscillating_generator_is_caught(self):
        bad = faulty(lambda x: 0 if x % 2 else 1 << x, lambda k: 0,
                     "oscillator")
        assert check_modulus(bad, Precision(4, 16)) is False

    def test_dishonest_hint_is_caught(self):
        # Converges to 0 but far slower than the hint promises.
        slow = faulty(lambda x: 1 << (x // 2), lambda k: k, "slow")
        assert check_modulus(slow, Precision(8, 32)) is False

    def test_hint_beyond_horizon_raises(self):
        lazy = faulty(lambda x: 0, lambda k: 1000, "lazy")
        with pytest.raises(InsufficientHorizon):
            check_modulus(lazy, Precision(4, 16))


# Precisions for the differential tests: every horizon 1..20, with k from
# 1 up to well past the horizon, so early stages i < k are in every window.
REFERENCE_PRECISIONS = [Precision(k, horizon) for horizon in range(1, 21)
                        for k in (1, 2, 5, 12, 24, 40)]


# Stage rules and hints that break or test the modulus promise, each
# with a precision that exercises it.
FAULTY_RULES = [
    # oscillating
    (lambda x: 0 if x % 2 else 1 << x, lambda k: 0, Precision(4, 16)),
    # dishonest hint: converges far slower than promised
    (lambda x: 1 << (x // 2), lambda k: k, Precision(8, 32)),
    # lazy hint beyond the horizon
    (lambda x: 0, lambda k: 1000, Precision(4, 16)),
    # a late counterexample: exact up to stage 14, then 2^-6 off
    (lambda x: (5 << x) + (1 << x >> 6 if x > 14 else 0), lambda k: k // 2,
     Precision(10, 16)),
    # a hint that steps back and forth over the same stages
    (lambda x: (1 << x) // 3, lambda k: (k % 3) + 2, Precision(9, 10)),
]


def encoder_pairs() -> list[tuple[RealGen, RealGen]]:
    """(n * v, u) for the quotient pairs of a few encodings, n near the
    member and at 0."""
    pairs = []
    for moment, value in [(1, 1), (2, 3), (4, 2), (3, 7), (9, 5), (17, 12)]:
        enc = encode_stabilized(moment, value)
        for n in (0, value - 1, value, value + 1, 2 * value):
            pairs.append((nat_scalar(n, enc.v), enc.u))
    return pairs


class TestAgainstReferences:
    def test_corpus_pairs_match_the_deque_searches(self):
        corpus = generator_corpus()
        pairs = list(itertools.product(corpus, repeat=2)) + encoder_pairs()
        for j, (a, b) in enumerate(pairs):
            for t in range(4):
                prec = REFERENCE_PRECISIONS[(j + 31 * t) % len(REFERENCE_PRECISIONS)]
                assert eq_at(a, b, prec) is deque_eq_at(a, b, prec)
                assert lt_at(a, b, prec) is deque_lt_at(a, b, prec)
                assert lt_at(b, a, prec) is deque_lt_at(b, a, prec)

    def test_encoder_pairs_match_at_every_reference_precision(self):
        for a, b in encoder_pairs():
            for prec in REFERENCE_PRECISIONS:
                assert eq_at(a, b, prec) is deque_eq_at(a, b, prec)
                assert lt_at(a, b, prec) is deque_lt_at(a, b, prec)
                assert lt_at(b, a, prec) is deque_lt_at(b, a, prec)

    def test_modulus_checks_match_the_per_k_loop(self):
        gens = generator_corpus()
        for u, v in encoder_pairs()[::5]:
            gens += [u, v]
        for g in gens:
            for prec in REFERENCE_PRECISIONS:
                assert (outcome(check_modulus, g, prec)
                        == outcome(per_k_check_modulus, g, prec))

    @pytest.mark.parametrize("stage, hint, prec", FAULTY_RULES)
    def test_faulty_rules_match_the_per_k_loop(self, stage, hint, prec):
        g = faulty(stage, hint)
        assert outcome(check_modulus, g, prec) == outcome(
            per_k_check_modulus, g, prec)
        wrapped = add(g, from_nat(0))
        assert outcome(check_modulus, wrapped, prec) == outcome(
            per_k_check_modulus, wrapped, prec)


def twins(make, monkeypatch) -> tuple[list, list]:
    """make() as the library builds it, and again with the frozen
    constructors wherever generator_corpus, encode_stabilized and this
    module's builders look theirs up, so both lists have one shape."""
    new = make()
    with monkeypatch.context() as m:
        for module in (selftest, encoder, sys.modules[__name__]):
            for name, frozen in FROZEN.items():
                if hasattr(module, name):
                    m.setattr(module, name, frozen)
        old = make()
    return new, old


def blueprints(depth: int):
    """The trees of tree(depth), each as a function that builds it from
    the constructors it is given by name."""
    leaves = st.builds(
        lambda kind, value, start: lambda lib: (
            lib["from_nat"](value) if kind == 0
            else lib["from_unit_fraction"](value + 1) if kind == 1
            else lib["cutover_unit_fraction"](value + 1, start, "cut")),
        st.integers(0, 2), st.integers(0, 58), st.integers(0, 11))
    if depth == 0:
        return leaves
    sub = blueprints(depth - 1)
    return st.one_of(
        leaves,
        st.builds(lambda x, y: lambda lib: lib["add"](x(lib), y(lib)),
                  sub, sub),
        st.builds(lambda x, y: lambda lib: lib["mul"](x(lib), y(lib)),
                  sub, sub),
        st.builds(lambda n, x: lambda lib: lib["nat_scalar"](n, x(lib)),
                  st.integers(0, 12), sub))


def assert_same_generator(g: RealGen, frozen: FrozenGen,
                          precisions: list[Precision]) -> None:
    """Names, reprs, records, stages 0..40, hints 0..24 and both modulus
    checks of g equal the frozen reference's."""
    assert (g.name, repr(g), g._exact) == (
        frozen.name, repr(frozen), frozen._exact)
    for prec in precisions:
        for check, reference in CHECKS:
            assert outcome(check, g, prec) == outcome(reference, frozen, prec), (
                g, prec, check)
    assert [g.at(x) for x in range(41)] == [frozen.at(x) for x in range(41)]
    assert [g.hint(k) for k in range(25)] == [frozen.hint(k)
                                              for k in range(25)]


def assert_same_verdicts(a: RealGen, b: RealGen, fa: FrozenGen,
                         fb: FrozenGen, precisions: list[Precision]) -> None:
    """eq_at, lt_at each way and order_at on a and b give the frozen
    reference's verdicts."""
    for prec in precisions:
        for search, reference in PAIR_SEARCHES:
            assert outcome(search, a, b, prec) == outcome(
                reference, fa, fb, prec), (a, b, prec, search)
        assert outcome(lt_at, b, a, prec) == outcome(frozen_lt_at, fb, fa,
                                                     prec)


class TestAgainstFrozenGenerators:
    """Each generator states its stage rule once; the frozen copy of the
    generators that stated it twice, as a rule and as a stage vector, is
    the reference for every value, record, verdict and error."""

    def test_corpus_and_encoder_generators(self, monkeypatch):
        new, old = twins(lambda: generator_corpus() + [
            g for pair in encoder_pairs() for g in pair], monkeypatch)
        assert len(new) == len(old) == 90
        for g, frozen in zip(new, old):
            assert type(frozen) is FrozenGen
            assert_same_generator(g, frozen, REFERENCE_PRECISIONS)

    def test_corpus_pairs(self, monkeypatch):
        new, old = twins(generator_corpus, monkeypatch)
        for (a, b), (fa, fb) in zip(itertools.product(new, repeat=2),
                                    itertools.product(old, repeat=2)):
            assert_same_verdicts(a, b, fa, fb, REFERENCE_PRECISIONS)

    def test_encoder_pairs(self, monkeypatch):
        new, old = twins(encoder_pairs, monkeypatch)
        for (a, b), (fa, fb) in zip(new, old):
            assert_same_verdicts(a, b, fa, fb, REFERENCE_PRECISIONS)

    @settings(max_examples=200)
    @given(plan_a=blueprints(3), plan_b=blueprints(3),
           j=st.integers(0, len(REFERENCE_PRECISIONS) - 1))
    def test_trees(self, plan_a, plan_b, j):
        a, b = plan_a(LIBRARY), plan_b(LIBRARY)
        fa, fb = plan_a(FROZEN), plan_b(FROZEN)
        precisions = REFERENCE_PRECISIONS[j::17]
        assert_same_generator(a, fa, precisions)
        assert_same_verdicts(a, b, fa, fb, precisions)


def certified_generators() -> list[RealGen]:
    """Every generator whose record has err < den, the ones
    check_certified does not scan: the corpus's, unit fractions, and the
    encoder's cutover unit fractions over small runs."""
    gens = [g for g in generator_corpus() if g._exact[2] < g._exact[1]]
    gens += [from_unit_fraction(q) for q in (1, 2, 3, 6, 7, 12, 255, 1000)]
    for moment in range(1, 7):
        for value in range(1, 7):
            enc = encode_stabilized(moment, value)
            gens += [enc.u, enc.v]
    return gens


def slack_floor(g: RealGen, x: int) -> float:
    """The slack floor of stage x that g's record proves (see the reals
    module docstring)."""
    _, den, err, start = g._exact
    return (-math.inf if x < start else math.inf if err == 0
            else x - (err // den).bit_length())


class TestCertificate:
    """The slack floor is a proven lower bound on the scanned slack, and
    check_certified, which relies on it, agrees with check_modulus."""

    def test_every_library_kind_is_covered(self):
        names = [g.name for g in certified_generators()]
        assert "0" in names and "7" in names
        assert "1/3" in names and "u[m=6]" in names
        assert "v[m=6,k=6]" in names
        assert "(2+1/5)" in names and "(0*1/7)" in names
        scanned = [g for g in generator_corpus() if g._exact[2] >= g._exact[1]]
        assert len(scanned) == len(generator_corpus()) - 16

    def test_floor_is_at_most_the_slack_at_every_stage(self):
        horizons = sorted({prec.horizon for prec in REFERENCE_PRECISIONS})
        for g in certified_generators() + generator_corpus():
            for horizon in horizons:
                for x in range(horizon + 1):
                    # k = -inf: the scan is never cut short
                    exact = _slack(g, x, horizon, -math.inf)
                    assert slack_floor(g, x) <= exact, (g, x, horizon)

    def test_floor_reaches_k_at_every_promised_stage(self):
        for g in certified_generators():
            for k in range(41):
                assert slack_floor(g, g.hint(k)) >= k

    def test_verdicts_match_the_scan(self):
        gens = certified_generators() + generator_corpus()
        for g in gens:
            for prec in REFERENCE_PRECISIONS:
                assert (outcome(check_certified, g, prec)
                        == outcome(check_modulus, g, prec))

    @pytest.mark.parametrize("stage, hint, prec", FAULTY_RULES)
    def test_records_with_err_at_least_den_are_scanned(self, stage, hint,
                                                       prec):
        g = faulty(stage, hint)
        assert outcome(check_certified, g, prec) == outcome(
            check_modulus, g, prec)
        wrapped = nat_scalar(2, add(g, from_nat(0)))
        assert outcome(check_certified, wrapped, prec) == outcome(
            check_modulus, wrapped, prec)

    def test_a_lazy_library_hint_raises_the_same_error(self):
        u = encode_stabilized(30, 1).u
        with pytest.raises(InsufficientHorizon) as certified:
            check_certified(u, Precision(4, 29))
        with pytest.raises(InsufficientHorizon) as scanned:
            check_modulus(u, Precision(4, 29))
        assert str(certified.value) == str(scanned.value) == (
            "u[m=30]: hint(0) = 30 exceeds horizon 29")

    def test_library_generators_are_not_scanned(self, monkeypatch):
        calls = []
        monkeypatch.setattr("ringterp.reals._slack",
                            lambda *args: calls.append(args) or math.inf)
        for g in certified_generators():
            assert check_certified(g, Precision(24, 96))
        assert calls == []
        assert check_certified(add(from_unit_fraction(2),
                                   from_unit_fraction(3)), Precision(24, 96))
        assert calls

    def test_a_certified_hint_is_asked_once(self):
        hints = []
        g = from_nat(5)
        g._hint = lambda k: hints.append(k) or 0
        assert check_certified(g, Precision(24, 96))
        assert hints == [24]


class TestWork:
    """Time-free guard: a pair of records is read in memory that does not
    grow with the horizon."""

    def test_a_long_scan_of_two_records_keeps_no_stage_lists(self):
        # 1/10 against 1/11 at k = 3: the records leave it to the scan,
        # which witnesses equality; stage lists of 2h + 1 values of up
        # to 2h bits would peak at over 30 MiB
        a, b = encode_stabilized(1, 10).v, encode_stabilized(1, 11).v
        prec = Precision(3, 8000)
        tracemalloc.start()
        try:
            assert order_at(a, b, prec) == 0
            assert eq_at(a, b, prec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def product_tree(shape: str, mul, from_unit_fraction, from_nat):
    """A product tree of one of three shapes over small leaves: squares
    nested 7 deep over 1/3, a balanced tree of depth 4 with distinct
    nodes, or a left-deep chain of 7 products."""
    leaves = [from_unit_fraction(3), from_nat(2), from_unit_fraction(5),
              from_unit_fraction(7)]
    if shape == "squares":
        g = leaves[0]
        for _ in range(7):
            g = mul(g, g)
        return g
    if shape == "balanced":
        level = [leaves[i % 4] for i in range(16)]
        while len(level) > 1:
            level = [mul(a, b) for a, b in zip(level[::2], level[1::2])]
        return level[0]
    g = leaves[0]
    for i in range(7):
        g = mul(g, leaves[(i + 1) % 4])
    return g


class TestProductHints:
    """mul finds the part of its hint that does not depend on k once per
    product, so a tree of products no longer asks about 4^d hints."""

    @pytest.mark.parametrize("shape", ["squares", "balanced", "left-deep"])
    def test_hints_match_the_frozen_rule(self, shape):
        g = product_tree(shape, mul, from_unit_fraction, from_nat)
        frozen = product_tree(shape, frozen_mul, frozen_from_unit_fraction,
                              frozen_from_nat)
        assert [g.hint(k) for k in range(65)] == [frozen.hint(k)
                                                  for k in range(65)]

    def test_building_a_product_asks_no_hint(self, monkeypatch):
        calls = []
        monkeypatch.setattr(RealGen, "hint", lambda g, k: calls.append(k))
        product_tree("squares", mul, from_unit_fraction, from_nat)
        assert calls == []

    def test_a_depth_7_tree_of_squares_asks_few_hints(self, monkeypatch):
        # The rule that asked each factor for hint(1) and hint(finer) on
        # every call made 21,845 calls here.
        g = product_tree("squares", mul, from_unit_fraction, from_nat)
        calls = 0
        hint = RealGen.hint

        def counted(self, k):
            nonlocal calls
            calls += 1
            return hint(self, k)

        monkeypatch.setattr(RealGen, "hint", counted)
        g.hint(24)
        assert calls <= 2 ** (7 + 2)


def listed(values: list, name: str) -> RealGen:
    """A generator reading its stages from a list (0 past its end)."""
    return faulty(lambda x: values[x] if x < len(values) else 0,
                  lambda k: 0, name)


# The stage offsets b - a that the stage lists draw from, before a
# per-list scale: equal stages, small differences that pass eq_at's test
# from some stage on, and large ones that pass lt_at's.
OFFSETS = (0, 0, 0, 1, 2, 3, 7, -1, -3, 1 << 5, 1 << 9, -(1 << 9))


@st.composite
def stage_lists(draw):
    """A precision with horizon 1..8 and k 1..12, and two stage lists
    over 0 .. 2 * horizon."""
    horizon = draw(st.integers(min_value=1, max_value=8))
    k = draw(st.integers(min_value=1, max_value=12))
    top = 2 * horizon
    a = draw(st.lists(st.integers(min_value=0, max_value=1 << 10),
                      min_size=top + 1, max_size=top + 1))
    scale = draw(st.sampled_from((1, 1 << 6, 1 << 12)))
    offsets = draw(st.lists(st.sampled_from(OFFSETS),
                            min_size=top + 1, max_size=top + 1))
    b = [abs(u + d * scale) for u, d in zip(a, offsets)]
    return Precision(k, horizon), a, b


def pattern(text: str):
    """Stage i passes when text[i] is "1"."""
    return lambda i: text[i] == "1"


class TestSearchFromStageHorizon:
    """_has_run tests stage horizon first and measures the run through
    it; the run counter it replaced is the reference."""

    @given(stage_lists())
    def test_stage_lists_match_the_run_counter(self, case):
        prec, a, b = case
        for search, reference in ((eq_at, counter_eq_at),
                                  (lt_at, counter_lt_at)):
            for first, second in ((a, b), (b, a)):
                ga, gb = listed(first, "a"), listed(second, "b")
                assert search(ga, gb, prec) is reference(ga, gb, prec)

    @pytest.mark.parametrize("horizon", range(1, 7))
    def test_every_pass_pattern_matches_the_run_counter(self, horizon):
        for bits in itertools.product("01", repeat=2 * horizon + 1):
            text = "".join(bits)
            assert _has_run(pattern(text), horizon) is counter_has_run(
                (c == "1" for c in text), horizon), text

    @pytest.mark.parametrize("text, expect", [
        ("111110101", True),   # the only run is [0, h]
        ("010011111", True),   # the only run is [h, 2h]
        ("011110110", False),  # a run of exactly h stages, [1, h]
        ("000011110", False),  # a run of exactly h stages, [h, 2h - 1]
        ("111011111", True),   # broken at h - 1: [h, 2h] remains
        ("111110111", True),   # broken at h + 1: [0, h] remains
        ("111010111", False),  # broken at h - 1 and at h + 1
        ("111011110", False),  # broken at h - 1 and at 2h
        ("011110111", False),  # broken at 0 and at h + 1
        ("111101111", False),  # broken at h alone
        ("111111111", True),
    ])
    def test_hand_made_patterns(self, text, expect):
        horizon = 4
        assert _has_run(pattern(text), horizon) is expect
        assert counter_has_run((c == "1" for c in text), horizon) is expect


naturals = st.integers(min_value=0, max_value=64)


class TestNatRelation:
    """exact_relation gives the scanning path's verdict for two naturals,
    whose records (a, 1, 0) prove it at every precision."""

    @given(n=naturals, a=naturals, b=naturals,
           k=st.integers(min_value=1, max_value=12),
           horizon=st.integers(min_value=1, max_value=8))
    def test_closed_form_matches_the_scanning_path(self, n, a, b, k, horizon):
        prec = Precision(k, horizon)
        scaled, other = nat_scalar(n, from_nat(a)), from_nat(b)
        equal = eq_at(scaled, other, prec)
        below, above = lt_at(scaled, other, prec), lt_at(other, scaled, prec)
        # never undetermined: exactly one of the three is witnessed
        assert [equal, below, above].count(True) == 1
        assert exact_relation(n, from_nat(a), other, prec) is equal is (
            n * a == b)


def atom(kind: int, value: int, start: int) -> RealGen:
    """A library atom: from_nat(value), from_unit_fraction(value + 1), or
    cutover_unit_fraction 1/(value + 1) from stage start."""
    if kind == 0:
        return from_nat(value)
    if kind == 1:
        return from_unit_fraction(value + 1)
    return cutover_unit_fraction(value + 1, start, "cut")


atoms = st.builds(atom, st.integers(0, 2), st.integers(0, 58),
                  st.integers(0, 11))


class TestExactRelation:
    """A verdict exact_relation gives is the one the searches find and
    the exact one; it gives none before both cutovers, and it leaves
    pairs to the scan."""

    @settings(max_examples=600)
    @given(n=st.integers(0, 60), scaled=atoms, other=atoms,
           k=st.integers(1, 19), horizon=st.integers(1, 39))
    def test_certified_verdicts_match_the_scan(self, n, scaled, other, k,
                                               horizon):
        prec = Precision(k, horizon)
        left = nat_scalar(n, scaled)
        verdict = exact_relation(n, scaled, other, prec)
        if horizon < max(scaled._exact[3], other._exact[3]):
            assert verdict is None
        if verdict is None:
            return
        equal = eq_at(left, other, prec)
        apart = lt_at(left, other, prec) or lt_at(other, left, prec)
        assert (equal, apart) == (verdict, not verdict)
        assert verdict is (exact_sign(left._exact, other._exact) == 0)
        # exact_relation is exact_order on nat_scalar's record
        order = exact_order(left._exact, other._exact, prec)
        assert verdict is (None if order is None else order == 0)

    def test_both_regions_are_reached(self):
        """The grid of the property: most triples are certified, but
        short horizons and wide errors leave some to the scan."""
        prec = Precision(6, 8)
        certified = [exact_relation(n, atom(2, 8, 1), atom(2, 0, 1), prec)
                     for n in range(13)]
        # 9 * (1/9) = 1, but 9 * floor(2^x / 9) may fall 8 short of 2^x
        assert certified[9] is None
        assert certified[0] is certified[12] is False
        assert exact_relation(9, atom(2, 8, 1), atom(2, 0, 1),
                              Precision(6, 12)) is True
        assert exact_relation(1, atom(2, 8, 9), atom(2, 8, 9), prec) is None

    def test_exact_sign(self):
        ninth, third = from_unit_fraction(9), from_unit_fraction(3)
        assert exact_sign(nat_scalar(3, ninth)._exact, third._exact) == 0
        assert exact_sign(nat_scalar(2, ninth)._exact, third._exact) == -1
        assert exact_sign(third._exact, nat_scalar(2, ninth)._exact) == 1
        assert exact_sign(nat_scalar(0, third)._exact, from_nat(0)._exact) == 0


def tree(depth: int):
    """add, mul and nat_scalar trees up to the given depth over library
    atoms, each with a record."""
    if depth == 0:
        return atoms
    sub = tree(depth - 1)
    return st.one_of(atoms, st.builds(add, sub, sub), st.builds(mul, sub, sub),
                     st.builds(nat_scalar, st.integers(0, 12), sub))


trees = tree(3)


class TestRecords:
    """Records carried through add, mul and nat_scalar bound every stage,
    and the verdicts exact_order and check_certified read from them are
    the scans'."""

    @settings(max_examples=300)
    @given(g=trees, horizon=st.integers(1, 40))
    def test_every_stage_from_start_is_within_the_record(self, g, horizon):
        num, den, err, start = g._exact
        for x in range(start, 2 * horizon + 1):
            assert (num << x) - err <= den * g.at(x) <= num << x, (g, x)

    @settings(max_examples=600)
    @given(a=trees, b=trees, k=st.integers(1, 20), horizon=st.integers(1, 40))
    def test_pair_decisions_match_the_scan(self, a, b, k, horizon):
        prec = Precision(k, horizon)
        verdict = exact_order(a._exact, b._exact, prec)
        if horizon < max(a._exact[3], b._exact[3]):
            assert verdict is None
        scanned = [eq_at(a, b, prec), lt_at(a, b, prec), lt_at(b, a, prec)]
        assert scanned.count(True) <= 1
        witnessed = ([0, -1, 1][scanned.index(True)] if True in scanned
                     else None)
        assert order_at(a, b, prec) == witnessed
        if verdict is not None:
            assert verdict == witnessed == exact_sign(a._exact, b._exact)

    def test_both_regions_are_reached(self):
        """Over a fixed grid of trees, most pairs are certified, but short
        horizons and low k leave some to the scan."""
        gens = [from_nat(3), from_unit_fraction(3),
                nat_scalar(9, from_unit_fraction(9)),
                add(from_unit_fraction(2), from_unit_fraction(3)),
                mul(from_unit_fraction(10), cutover_unit_fraction(11, 4, "c")),
                mul(from_nat(5), encode_stabilized(3, 5).v)]
        verdicts = [exact_order(a._exact, b._exact, prec)
                    for a in gens for b in gens
                    for prec in (Precision(3, 4), Precision(12, 20))]
        assert 0 < verdicts.count(None) < len(verdicts) // 4
        assert {0, -1, 1} <= set(verdicts)

    def test_the_bound_is_tight(self):
        # 0 against 1/2 at k = 2, h = 1: the bound meets the search's
        # threshold exactly, as stage x of 1/2 is 2^(x - 1)
        half, zero = from_unit_fraction(2), from_nat(0)
        prec = Precision(2, 1)
        assert exact_order(zero._exact, half._exact, prec) == -1
        assert lt_at(zero, half, prec)

    def test_the_scan_decides_what_the_records_leave(self):
        # 1/10 against 1/11 at k = 6: equality is witnessed, and
        # exact_order, which never gives a verdict against the exact
        # values, leaves it to the scan
        a, b = from_unit_fraction(10), from_unit_fraction(11)
        prec = Precision(6, 18)
        assert exact_order(a._exact, b._exact, prec) is None
        assert order_at(a, b, prec) == 0
        assert exact_sign(a._exact, b._exact) == 1

    @settings(max_examples=300)
    @given(g=trees, k=st.integers(1, 20), horizon=st.integers(1, 40))
    def test_certificates_match_the_scan(self, g, k, horizon):
        prec = Precision(k, horizon)
        assert (outcome(check_certified, g, prec)
                == outcome(check_modulus, g, prec))

    @pytest.mark.parametrize("g", [
        from_nat(0), from_nat(9), from_unit_fraction(1), from_unit_fraction(6),
        cutover_unit_fraction(5, 11, "c"), encode_stabilized(7, 3).v])
    def test_atom_certificates_match_the_scan(self, g):
        for horizon in range(1, 41):
            for k in range(1, 21):
                prec = Precision(k, horizon)
                assert (outcome(check_certified, g, prec)
                        == outcome(check_modulus, g, prec)), (g, prec)


def frozen_relation(n, scaled, other, prec):
    """Reference implementation: the decision of
    FiniteStructure.relation_holds as it was before reals.relation_at,
    without its memo: the verdict, or the text its error named."""
    verdict = exact_relation(n, scaled, other, prec)
    if verdict is not None:
        return verdict
    left = nat_scalar(n, scaled)
    order = order_at(left, other, prec)
    if order is None or exact_sign(left._exact, other._exact) \
            in ((0,) if order else (-1, 1)):
        return ("undetermined" if order is None
                else "witnessed against its exact value")
    return order == 0


class TestRelation:
    """relation_at gives the verdicts and faults of the frozen decision."""

    @settings(max_examples=300)
    @given(scaled=trees, other=trees, k=st.integers(1, 8),
           horizon=st.integers(1, 13))
    def test_trees_match_the_frozen_decision(self, scaled, other, k,
                                             horizon):
        prec = Precision(k, horizon)
        for n in range(13):
            got = relation_at(n, scaled, other, prec)
            want = frozen_relation(n, scaled, other, prec)
            assert (type(got), got) == (type(want), want), (n, prec)

    def test_each_fault(self):
        # 1/4 against 1/5 at k = 4: neither equality nor order holds on
        # 7 consecutive stages of 0..12
        quarter, fifth = from_unit_fraction(4), from_unit_fraction(5)
        assert relation_at(1, quarter, fifth, Precision(4, 6)) == UNDETERMINED
        # 9 * floor(2^x / 9) falls short of 2^x, and 1/10 meets 1/11
        enc = encode_stabilized(1, 9)
        assert relation_at(9, enc.v, enc.u, Precision(6, 8)) == AGAINST
        assert relation_at(1, from_unit_fraction(10), from_unit_fraction(11),
                           Precision(6, 18)) == AGAINST

    def test_a_wrong_order_of_unequal_values_is_a_verdict(self):
        # The scan sees 4 * floor(2^x / 3) below 2^x at horizon 1: the
        # order is against the exact values, but inequality is right.
        third, prec = from_unit_fraction(3), Precision(1, 1)
        assert order_at(nat_scalar(4, third), from_nat(1), prec) == -1
        assert exact_sign(nat_scalar(4, third)._exact, (1, 1, 0, 0)) == 1
        assert relation_at(4, third, from_nat(1), prec) is False


def frozen_exact_order(a, b, prec):
    """Reference implementation: exact_order as it was when it shifted
    den, |delta| and the errors by the horizon."""
    h = prec.horizon
    if h < a[3] or h < b[3]:
        return None
    na, da, ea, _ = a
    nb, db, eb, _ = b
    delta, den = nb * da - na * db, da * db
    if delta == 0:
        return 0 if max(ea * db, eb * da) << prec.k < den << h else None
    err = eb * da if delta > 0 else ea * db
    if ((abs(delta) << h) - err) << prec.k >= den << h:
        return -1 if delta > 0 else 1
    return None


records = st.tuples(
    st.one_of(st.just(0), st.integers(0, 40), st.integers(0, 1 << 70)),
    st.one_of(st.just(1), st.integers(1, 40), st.integers(1, 1 << 60)),
    st.one_of(st.just(0), st.integers(0, 40), st.integers(0, 1 << 90)),
    st.one_of(st.just(0), st.integers(0, 130)))


class TestExactOrderWithoutHorizonShifts:
    """exact_order decides its two bounds without numbers that grow with
    the horizon, and gives the frozen verdicts."""

    @settings(max_examples=1000)
    @given(a=records, b=records, k=st.integers(1, 80),
           horizon=st.integers(1, 120), scale=st.integers(1, 5))
    def test_against_the_frozen_order(self, a, b, k, horizon, scale):
        prec = Precision(k, horizon)
        assert exact_order(a, b, prec) == frozen_exact_order(a, b, prec)
        # an equal value under another denominator and error
        same = (a[0] * scale, a[1] * scale, b[2], b[3])
        assert exact_order(a, same, prec) == frozen_exact_order(a, same, prec)

    @pytest.mark.parametrize("a, b, k, horizon", [
        # no error: the equality bound's left side is 0
        ((0, 1, 0, 0), (0, 7, 0, 0), 1, 1),
        ((3, 4, 0, 2), (6, 8, 0, 0), 80, 2),
        ((0, 1, 0, 0), (0, 1, 0, 5), 3, 4),
        # |delta| * 2^k = den: the order bound's margin is 0
        ((0, 1, 0, 0), (1, 4, 0, 0), 2, 9),
        ((0, 1, 0, 0), (1, 4, 1, 0), 2, 9),
        ((1, 4, 0, 0), (0, 1, 0, 0), 2, 9),
        ((1, 4, 3, 0), (0, 1, 0, 0), 2, 9),
        ((0, 3, 0, 0), (1, 12, 0, 0), 2, 1),
    ])
    def test_zero_operands(self, a, b, k, horizon):
        prec = Precision(k, horizon)
        assert exact_order(a, b, prec) == frozen_exact_order(a, b, prec)

    def test_horizons_up_to_a_billion(self):
        third, half, close, zero = (g._exact for g in (
            from_unit_fraction(3), from_unit_fraction(2),
            from_unit_fraction(1 << 40), from_nat(0)))
        for horizon in (10 ** 5, 10 ** 6):
            prec = Precision(24, horizon)
            for a, b in itertools.permutations([third, half, close, zero], 2):
                assert exact_order(a, b, prec) \
                    == frozen_exact_order(a, b, prec)
        prec = Precision(24, 10 ** 9)
        assert exact_order(third, half, prec) == -1
        assert exact_order(half, third, prec) == 1
        assert exact_order(third, nat_scalar(2, from_unit_fraction(6))._exact,
                           prec) == 0
        # 0 and 2^-40 differ, by less than 2^-24: no verdict at k = 24
        assert exact_order(zero, close, prec) is None
        assert exact_order(zero, close, Precision(41, 10 ** 9)) == -1
        assert exact_order(zero, zero, prec) == 0

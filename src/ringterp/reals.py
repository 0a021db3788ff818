"""Exact dyadic generators for nonnegative real numbers.

A generator is a function xi from stages to naturals together with a
modulus hint; the represented value is the limit of xi(x) / 2^x.  The
modulus hint promises that from stage hint(k) on, the dyadic
approximations stay within 2^-k of each other:

    for all x >= hint(k) and all p >= 0:
        2^k * |2^p * xi(x) - xi(x + p)| < 2^(x + p)

All arithmetic is exact integer arithmetic; no floating point is used.
Comparisons are bounded searches for witnesses: eq_at and lt_at answer
True only when the approximation streams exhibit positive evidence
within the configured horizon, and False otherwise.  False never means
"provably not"; it means no witness was found at this precision.
check_modulus is the opposite way around: it tests the universally
quantified modulus promise on a finite range, so a False is a genuine
counterexample while True only covers the range inspected.

Every generator is a rational that a library constructor below builds
with one stage rule, made of library rules alone and natural by
construction, and one exact record (num, den, err, start): for every
stage x >= start, num * 2^x - err <= den * xi(x) <= num * 2^x.
from_nat(n) records (n, 1, 0, 0), a cutover unit fraction (1, q, q - 1,
start); add, mul and nat_scalar carry their operands' records.
exact_order reads two records to give the searches' verdict where the
errors prove it, and the searches serve what the records leave: they
call the rules for just the stages they test, as eq_at and lt_at test
stage horizon first, which every witness window holds.  relation_at
decides n * scaled = other from the records, or by a scan checked
against them.  A record also proves a slack floor: past start, the
least x + j - bits(|2^j * xi(x) - xi(x + j)|) over nonzero differences
is at least x - bits(err // den), as the two differ by at most
err * 2^j / den: x where err < den, as for every library atom, and
infinite where err = 0.
check_certified relies on it there and scans the rest, such as the sum
1/2 + 1/3; check_modulus always scans, each distinct promised stage
once, the reference.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Union

from .frozen import frozen


Record = tuple[int, int, int, int]

# The faults of relation_at.
UNDETERMINED = "undetermined"
AGAINST = "witnessed against its exact value"


class InsufficientHorizon(Exception):
    """A modulus hint points beyond the stages the horizon allows."""


@frozen
class Precision:
    """Search bounds for witnessed comparisons.

    k is the number of binary digits of agreement or separation demanded,
    horizon the length of the stage windows inspected: stages 0 through
    2 * horizon are inspected and a witness must hold on horizon + 1
    consecutive stages.
    """

    k: int = 24
    horizon: int = 96

    def __post_init__(self) -> None:
        if type(self.k) is not int:
            raise ValueError(f"precision k must be an int, got {self.k!r}")
        if type(self.horizon) is not int:
            raise ValueError(f"horizon must be an int, got {self.horizon!r}")
        if self.k < 1:
            raise ValueError("precision k must be at least 1")
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")

    def __str__(self) -> str:
        return f"k={self.k}, horizon={self.horizon}"


class RealGen:
    """A nonnegative rational given by its stage rule, modulus hint and
    exact record.

    at(x) is the stage-x numerator: the value is approximated by
    at(x) / 2^x.  hint(k) is a stage from which approximations are
    promised to vary by less than 2^-k (see the module docstring for the
    exact inequality).  Each checks its argument and calls the rule; the
    searches and the library rules call _stage, the rule itself, for
    arguments they know are stages.  _exact is the record (see the
    module docstring).  Generators come from the library constructors
    below: the constructor is not public API, as it cannot check that a
    rule and a record fit.
    """

    __slots__ = ("_stage", "_hint", "name", "_exact")

    def __init__(self, stage: Callable[[int], int],
                 hint: Callable[[int], int], name: str,
                 record: Record) -> None:
        self._stage = stage
        self._hint = hint
        self.name = name
        self._exact = record

    def at(self, x: int) -> int:
        if not isinstance(x, int) or x < 0:
            raise ValueError(f"stage must be a nonnegative integer, got {x!r}")
        return self._stage(x)

    def hint(self, k: int) -> int:
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"precision must be a nonnegative integer, got {k!r}")
        return self._hint(k)

    def __repr__(self) -> str:
        return f"RealGen({self.name or '?'})"


def from_nat(n: int) -> RealGen:
    """The natural number n: stage value n * 2^x, exact, by n's bound
    __lshift__ and a shared hint, so no closure is made per natural."""
    if type(n) is not int or n < 0:
        raise ValueError("from_nat takes a natural number")
    return RealGen(n.__lshift__, _from_stage_0, str(n), (n, 1, 0, 0))


def _from_stage_0(k: int) -> int:
    return 0


def from_unit_fraction(q: int) -> RealGen:
    """The rational 1/q for q >= 1: stage value floor(2^x / q)."""
    if type(q) is not int or q < 1:
        raise ValueError("from_unit_fraction takes a positive denominator")
    return cutover_unit_fraction(q, 0, f"1/{q}")


def cutover_unit_fraction(q: int, start: int, name: str) -> RealGen:
    """1/q that reports 0 before stage start (an encoding's generators
    carry no information before their run fires).  From start on it is
    the unit fraction's approximant, whose hint k + 2 works once it is
    also pushed past start."""
    if type(q) is not int or q < 1 or type(start) is not int or start < 0:
        raise ValueError("cutover_unit_fraction takes a positive "
                         "denominator and a natural start")
    return RealGen(lambda x: 0 if x < start else (1 << x) // q,
                   lambda k: max(k + 2, start), name, (1, q, q - 1, start))


def add(a: RealGen, b: RealGen) -> RealGen:
    """Pointwise sum; each summand is asked for one extra digit."""
    (na, da, ea, sa), (nb, db, eb, sb) = a._exact, b._exact
    record = (na * db + nb * da, da * db, ea * db + eb * da, max(sa, sb))
    return RealGen(lambda x: a._stage(x) + b._stage(x),
                   lambda k: max(a.hint(k + 1), b.hint(k + 1)),
                   f"({a.name}+{b.name})", record)


def mul(a: RealGen, b: RealGen) -> RealGen:
    """Product with stage value floor(a(x) * b(x) / 2^x).

    The modulus hint first bounds both factors: for any stage past
    hint(1) the approximation a.at(h) >> h floors the value, so that
    bound plus 2 strictly dominates every later approximation.  The sum
    of the two bounds dictates how many extra digits of the factors are
    needed, and stages are additionally kept at k + 2 or later so the
    floor error of the product approximant stays below the demanded
    tolerance.  The bounds do not depend on k: a product finds them on
    its first hint (a square asks its one factor once), and building a
    product asks no hint.  The record's err adds na * eb + nb * ea, and
    da * db for the floor of >> x unless a factor is an exact natural.
    """
    bounds: list[int] = []  # ha, hb and shift, once found

    def hint(k: int) -> int:
        if not bounds:
            ha = a.hint(1)
            hb = ha if b is a else b.hint(1)
            bound_a = (a._stage(ha) >> ha) + 2
            bound_b = (b._stage(hb) >> hb) + 2
            bounds[:] = ha, hb, (bound_a + bound_b).bit_length()
        ha, hb, shift = bounds
        finer = k + 1 + shift
        return max(a.hint(finer), b.hint(finer), ha, hb, k + 2)

    (na, da, ea, sa), (nb, db, eb, sb) = a._exact, b._exact
    unit = 0 if (ea, da) == (0, 1) or (eb, db) == (0, 1) else da * db
    record = (na * nb, da * db, na * eb + nb * ea + unit, max(sa, sb))
    return RealGen(lambda x: (a._stage(x) * b._stage(x)) >> x, hint,
                   f"({a.name}*{b.name})", record)


def nat_scalar(n: int, g: RealGen) -> RealGen:
    """n times g with the exact stage value n * g.at(x).

    Pointwise this equals mul(from_nat(n), g): the product approximant
    floor(n * 2^x * g.at(x) / 2^x) suffers no floor loss.  The direct
    form just needs the cheaper hint g.hint(k + bits of n).
    """
    if type(n) is not int or n < 0:
        raise ValueError("nat_scalar takes a natural scale")
    return RealGen(lambda x: n * g._stage(x),
                   lambda k: g.hint(k + n.bit_length()),
                   f"({n}*{g.name})", _scaled(n, g._exact))


def _scaled(n: int, record: Record) -> Record:
    """nat_scalar's record rule: num and err scale by n."""
    return n * record[0], record[1], n * record[2], record[3]


def _has_run(passes: Callable[[int], bool], horizon: int) -> bool:
    """Do horizon + 1 consecutive stages of 0 .. 2 * horizon pass?

    passes(i) tests stage i.  Every such window holds stage horizon, so
    a failure there refutes them all.  Otherwise the run of passing
    stages through it is followed down to its first stage, then up
    until it has horizon + 1 stages or meets a failing one.
    """
    if not passes(horizon):
        return False
    first = horizon
    while first and passes(first - 1):
        first -= 1
    for i in range(horizon + 1, first + horizon + 1):
        if not passes(i):
            return False
    return True


def _search(a: RealGen, b: RealGen, prec: Precision,
            passes: Callable[[int, int, int], bool]) -> bool:
    """_has_run over passes(i, stage i of a, stage i of b), calling the
    rules for just the stages _has_run tests."""
    sa, sb = a._stage, b._stage
    return _has_run(lambda i: passes(i, sa(i), sb(i)), prec.horizon)


def eq_at(a: RealGen, b: RealGen, prec: Precision) -> bool:
    """Bounded witness that a and b denote the same real.

    Stage i agrees to level kmax(i) = i - bits(|a.at(i) - b.at(i)|), all
    levels if the difference is zero.  The witness demanded is a run of
    horizon + 1 consecutive stages within 0 .. 2 * horizon that all agree
    to at least prec.k digits.  True means such a run exists; False means
    none was found, which refutes nothing.
    """
    k = prec.k
    return _search(a, b, prec, lambda i, u, v: u == v
                   or i - abs(u - v).bit_length() >= k)


def lt_at(a: RealGen, b: RealGen, prec: Precision) -> bool:
    """Bounded witness that a is strictly below b.

    Stage i separates the two at level t(i), the least k with
    b.at(i) - a.at(i) >= 2^(i - k); stages where b does not exceed a
    separate at no level.  The witness demanded is a run of horizon + 1
    consecutive stages that all separate at level prec.k or better.
    True means a < b was witnessed with margin 2^-prec.k; False only
    means no witness within the horizon.
    """
    k = prec.k
    return _search(a, b, prec, lambda i, u, v: v > u
                   and i - (v - u).bit_length() < k)


def exact_order(a: Record, b: Record, prec: Precision) -> Optional[int]:
    """The searches' verdict on records a and b where they prove it, else
    None: 0 for eq_at witnessed, -1 for lt_at(a, b), 1 for lt_at(b, a).

    Past both starts, den * (b(x) - a(x)) lies at most eb * da below and
    ea * db above delta * 2^x (den = da * db, delta = nb * da - na * db).
    Each stage passes one search: eq_at if |b(x) - a(x)| * 2^k < 2^x,
    else lt_at the way its sign says.  A bound that puts stage h in one
    puts every later stage there too, so stages h .. 2h witness it and
    stage h refutes the others: equality needs delta = 0 and
    err * 2^k < den * 2^h, order (|delta| * 2^h - err) * 2^k >= den * 2^h,
    tested as (|delta| * 2^k - den) * 2^h >= err * 2^k, so no number
    grows with h.  No verdict contradicts the exact values.
    """
    h, k = prec.horizon, prec.k
    if h < a[3] or h < b[3]:
        return None
    na, da, ea, _ = a
    nb, db, eb, _ = b
    delta, den = nb * da - na * db, da * db
    if delta == 0:
        return 0 if _below(max(ea * db, eb * da), k, den, h) else None
    err = eb * da if delta > 0 else ea * db
    margin = (abs(delta) << k) - den
    if margin >= 0 and not _below(margin, h, err, k):
        return -1 if delta > 0 else 1
    return None


def _below(x: int, i: int, y: int, j: int) -> bool:
    """x * 2^i < y * 2^j for naturals x and y, shifting by |i - j| only
    where the bit lengths tie."""
    if not x or not y:
        return x < y
    bits_x, bits_y = x.bit_length() + i, y.bit_length() + j
    if bits_x != bits_y:
        return bits_x < bits_y
    return x << (i - j) < y if i >= j else x < y << (j - i)


def exact_relation(n: int, scaled: RealGen, other: RealGen,
                   prec: Precision) -> Optional[bool]:
    """exact_order on n * scaled, by nat_scalar's record rule, against
    other: True for eq_at witnessed, False for lt_at witnessed one way,
    None where the records do not prove a verdict."""
    order = exact_order(_scaled(n, scaled._exact), other._exact, prec)
    return None if order is None else order == 0


def exact_sign(a: Record, b: Record) -> int:
    """The sign of a - b from records a and b."""
    diff = a[0] * b[1] - b[0] * a[1]
    return (diff > 0) - (diff < 0)


def order_at(a: RealGen, b: RealGen, prec: Precision) -> Optional[int]:
    """The one search witnessed on a against b (each stage passes one, so
    at most one is), as exact_order gives it; else eq_at and lt_at each
    way are scanned, and None means none is witnessed."""
    order = exact_order(a._exact, b._exact, prec)
    return order if order is not None else 0 if eq_at(a, b, prec) \
        else -1 if lt_at(a, b, prec) else 1 if lt_at(b, a, prec) else None


def relation_at(n: int, scaled: RealGen, other: RealGen,
                prec: Precision) -> Union[bool, str]:
    """Decide n * scaled = other: True for eq_at witnessed, False for
    lt_at witnessed one way, else the fault UNDETERMINED (nothing is
    witnessed) or AGAINST (the witness contradicts the records).  Where
    the records prove it, exact_relation gives the verdict without a
    generator for n * scaled or a search; the rest are scanned by
    order_at.  Only equality is checked against the records: a scan
    that orders two unequal values the wrong way gives the right
    verdict."""
    verdict = exact_relation(n, scaled, other, prec)
    if verdict is not None:
        return verdict
    left = nat_scalar(n, scaled)
    order = order_at(left, other, prec)
    if order is None:
        return UNDETERMINED
    if exact_sign(left._exact, other._exact) in ((0,) if order else (-1, 1)):
        return AGAINST
    return order == 0


def undecided_run(scaled: RealGen, other: RealGen, top: int,
                  prec: Precision) -> range:
    """The candidates 0..top whose relation n * scaled = other the
    records leave to relation_at's scan.  n * scaled = other exactly at
    n = p / q alone (nowhere if q = 0 alone, everywhere if p = q = 0).
    exact_order certifies a prefix of the candidates below p / q, where
    its error term is fixed, and a suffix of those above, where the
    distance less the error grows linearly in n; what is left is one run
    through p / q.  A skipped candidate is a
    non-member relation_at gives without a search or a fault.
    """
    a, b = scaled._exact, other._exact
    if a[0] == b[0] == 0:
        return range(top + 1)
    p, q = b[0] * a[1], a[0] * b[1]
    lo = min(-(-p // q), top + 1) if q else top + 1
    hi = min(p // q + 1, top + 1) if q else top + 1

    def undecided(n: int) -> bool:
        return exact_relation(n, scaled, other, prec) is None
    while lo and undecided(lo - 1):
        lo -= 1
    while hi <= top and undecided(hi):
        hi += 1
    return range(lo, hi)


def apart_at(a: RealGen, b: RealGen, prec: Precision) -> bool:
    """Bounded witness that a and b are apart (one exceeds the other)."""
    return lt_at(a, b, prec) or lt_at(b, a, prec)


def check_modulus(g: RealGen, prec: Precision) -> bool:
    """Test g's modulus promise for every precision up to prec.k.

    For each k the promised stage x = g.hint(k) must fall within the
    horizon (else InsufficientHorizon is raised) and the displacement
    inequality 2^k * |2^p * g.at(x) - g.at(x+p)| < 2^(x+p) must hold for
    every p up to the horizon.  False reports a genuine counterexample
    to the promise; True covers only the range inspected.

    The inequality holds for k exactly when k is at most the slack of x,
    the least x + p - bits(|2^p * g.at(x) - g.at(x+p)|) over nonzero
    differences; each distinct x is scanned once, stopping at the first
    p that breaks the current k, as a check of each (k, p) would.
    """
    slack: dict[int, float] = {}
    for k in range(prec.k + 1):
        x = g.hint(k)
        if x > prec.horizon:
            raise InsufficientHorizon(
                f"{g.name or 'generator'}: hint({k}) = {x} exceeds "
                f"horizon {prec.horizon}"
            )
        s = slack.get(x)
        if s is None:
            s = slack[x] = _slack(g, x, prec.horizon, k)
        if s < k:
            return False
    return True


def check_certified(g: RealGen, prec: Precision) -> bool:
    """check_modulus, with the slack floor g's record proves in place of
    the scan: where err < den it is at least x from start on, and library
    hints never decrease in k, stay at or past start and reach k where
    err > 0, so every k passes once hint(prec.k) is within the horizon.
    Otherwise g is scanned as check_modulus scans it, which raises
    InsufficientHorizon at the same k with the same message.
    """
    _, den, err, _ = g._exact
    if err < den and g.hint(prec.k) <= prec.horizon:
        return True
    return check_modulus(g, prec)


def _slack(g: RealGen, x: int, horizon: int, k: int) -> float:
    """Slack of stage x over p = 0 .. horizon, cut short once below k."""
    values = map(g._stage, range(x, x + horizon + 1))
    base = next(values)
    least = math.inf
    for p, value in enumerate(values, 1):
        d = abs((base << p) - value)
        if d:
            least = min(least, x + p - d.bit_length())
            if least < k:
                break
    return least

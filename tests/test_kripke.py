"""Tests for choice sequence streams, schedules, simulation and traces."""

import hashlib
import random
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from math import isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ringterp import kripke
from ringterp.kripke import (
    MAX_HORIZON, MAX_STREAM_BITS, ChoiceSeq, ConjunctStatus, Draw, RunResult, Schedule,
    ScheduleKind, TraceError, check_conjuncts, format_trace, parse_alpha_spec,
    parse_schedule_spec, parse_trace, run_total, simulate,
)
from ringterp.pairing import pair, parse_natural, unpair

member_lists = st.lists(
    st.tuples(st.integers(min_value=1, max_value=12),
              st.integers(min_value=0, max_value=8)),
    max_size=5,
    unique_by=lambda kp: kp[0],
)


# Streams with short periodic tails: every first witness lies well
# inside the brute scan below.
prefixes = st.lists(st.integers(0, 1), max_size=40).map(tuple)
defaults = st.lists(st.integers(0, 1), min_size=1, max_size=6).map(tuple)


def brute_first_witness(alpha: ChoiceSeq, k: int,
                        scan: int = 4000) -> "int | None":
    return next((p for p in range(scan) if alpha.at(pair(p, k)) == 1), None)


def brute_is_member(alpha: ChoiceSeq, k: int, scan: int = 4000) -> bool:
    return brute_first_witness(alpha, k, scan) is not None


def past_the_prefix(alpha: ChoiceSeq) -> int:
    """Least candidate whose stage-0 code already clears the prefix."""
    k = 0
    while pair(0, k) < len(alpha.prefix):
        k += 1
    return k


class TestChoiceSeq:
    def test_constant_streams(self):
        assert ChoiceSeq.zero().at(17) == 0
        assert ChoiceSeq.one().at(17) == 1
        assert not ChoiceSeq.zero().is_member(3)
        assert ChoiceSeq.one().is_member(3)
        assert ChoiceSeq.one().is_total()
        assert not ChoiceSeq.zero().is_total()

    def test_from_members_places_witnesses(self):
        alpha = ChoiceSeq.from_members([(2, 0), (5, 3)])
        assert alpha.at(pair(0, 2)) == 1
        assert alpha.at(pair(3, 5)) == 1
        assert alpha.is_member(2)
        assert alpha.is_member(5)
        assert not alpha.is_member(3)
        assert alpha.first_witness(5) == 3
        assert alpha.first_witness(3) is None

    def test_from_members_validation(self):
        with pytest.raises(ValueError):
            ChoiceSeq.from_members([(0, 0)])
        with pytest.raises(ValueError):
            ChoiceSeq.from_members([(1, -1)])
        with pytest.raises(ValueError):
            ChoiceSeq.from_members([(1, 0), (1, 2)])

    def test_bit_validation(self):
        with pytest.raises(ValueError):
            ChoiceSeq((2,), (0,))
        with pytest.raises(ValueError):
            ChoiceSeq((), ())

    @given(members=member_lists, k=st.integers(min_value=0, max_value=15))
    def test_is_member_matches_brute_scan(self, members, k):
        alpha = ChoiceSeq.from_members(members)
        assert alpha.is_member(k) is brute_is_member(alpha, k)
        assert alpha.first_witness(k) == dict(members).get(k)

    @given(prefix=prefixes, default=defaults,
           k=st.integers(min_value=0, max_value=60))
    def test_periodic_membership_matches_brute_scan(self, prefix, default, k):
        alpha = ChoiceSeq(prefix, default)
        expect = brute_first_witness(alpha, k)
        assert alpha.first_witness(k) == expect
        assert alpha.is_member(k) is (expect is not None)

    @given(members=member_lists, top=st.integers(min_value=0, max_value=14))
    def test_has_member_upto_matches_brute_scan(self, members, top):
        alpha = ChoiceSeq.from_members(members)
        assert alpha.has_member_upto(top) is any(
            brute_is_member(alpha, k, scan=20) for k in range(1, top + 1))

    @given(prefix=prefixes, default=defaults,
           top=st.integers(min_value=0, max_value=40))
    def test_has_member_upto_matches_the_is_member_scan(self, prefix,
                                                        default, top):
        alpha = ChoiceSeq(prefix, default)
        assert alpha.has_member_upto(top) is any(
            alpha.is_member(k) for k in range(1, top + 1))

    @given(prefix=st.lists(st.integers(0, 1), max_size=10),
           default=st.lists(st.integers(0, 1), min_size=1, max_size=4))
    def test_is_total_matches_brute_scan(self, prefix, default):
        alpha = ChoiceSeq(tuple(prefix), tuple(default))
        brute = all(brute_is_member(alpha, k) for k in range(1, 40))
        assert alpha.is_total() is brute

    @given(prefix=prefixes, default=defaults)
    def test_first_witness_at_the_edges(self, prefix, default):
        alpha = ChoiceSeq(prefix, default)
        for k in (0, past_the_prefix(alpha), past_the_prefix(alpha) + 1):
            assert alpha.first_witness(k) == brute_first_witness(alpha, k)

    def test_index_is_not_part_of_the_value(self):
        alpha = ChoiceSeq.from_members([(2, 1)])
        fresh = ChoiceSeq.from_members([(2, 1)])
        assert alpha.is_member(2)
        assert alpha == fresh
        assert hash(alpha) == hash(fresh)
        assert repr(alpha) == repr(fresh)

    @given(members=member_lists)
    def test_spec_round_trip(self, members):
        alpha = ChoiceSeq.from_members(members)
        assert parse_alpha_spec(alpha.canonical_spec()) == alpha

    @given(prefix=prefixes, default=defaults)
    def test_canonical_spec_spells_the_bits(self, prefix, default):
        alpha = ChoiceSeq(prefix, default)
        spec = alpha.canonical_spec()
        assert spec == ("prefix:" + "".join(map(str, prefix))
                        + ";default:" + "".join(map(str, default)))
        assert parse_alpha_spec(spec) == alpha

    def test_bits_equal_to_0_or_1_are_bits(self):
        alpha = ChoiceSeq((0, 1, True), (False,))
        assert alpha.first_witness(1) == 0
        assert alpha.first_witness(0) == 1
        assert alpha.canonical_spec() == "prefix:011;default:0"
        assert alpha == ChoiceSeq(b"\x00\x01\x01", b"\x00")
        with pytest.raises(ValueError, match=r"got 1\.0$"):
            ChoiceSeq((0, 1.0), (0,))

    def test_fields_are_bytes(self):
        for alpha in (ChoiceSeq((0, 1), [1]), ChoiceSeq.zero(),
                      ChoiceSeq.from_members([(2, 1)]),
                      parse_alpha_spec("prefix:01;default:1")):
            assert type(alpha.prefix) is bytes
            assert type(alpha.default) is bytes

    def test_bit_errors_name_the_first_bad_entry(self):
        with pytest.raises(ValueError, match="got 2$"):
            ChoiceSeq((0, 1, 2, 3), (0,))
        with pytest.raises(ValueError, match="got 'x'$"):
            ChoiceSeq((0,), (1, "x"))
        with pytest.raises(ValueError, match=r"got \[1\]$"):
            ChoiceSeq(([1],), (0,))
        with pytest.raises(ValueError, match="got 256$"):
            ChoiceSeq((0, 1), (256, 2))
        with pytest.raises(ValueError, match="got 2$"):
            ChoiceSeq(b"\x00\x02", b"\x00")

    def test_errors_keep_their_order(self, monkeypatch):
        monkeypatch.setattr(kripke, "MAX_STREAM_BITS", 16)
        with pytest.raises(ValueError, match="default pattern must be"):
            ChoiceSeq((2,), ())
        with pytest.raises(ValueError, match="the stream needs 17"):
            ChoiceSeq((2,) * 16, (0,))


# The tuple-backed stream that ChoiceSeq replaced, frozen as the
# reference of the differential test below: its fields were tuples of
# ints, converted to bytes for every index build and every spec.
_REF_BITS = frozenset((0, 1))
_REF_BITS_TO_TEXT = bytes.maketrans(b"\x00\x01", b"01")
_REF_TEXT_TO_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _ref_bit_bytes(bits: tuple) -> bytes:
    try:
        return bytes(bits)
    except TypeError:
        return bytes(map(int, bits))


def _ref_least_root(n: int) -> int:
    if n <= 0:
        return 0
    s = (isqrt(8 * n + 1) - 1) // 2
    return s if s * (s + 1) // 2 == n else s + 1


@dataclass(frozen=True)
class ReferenceChoiceSeq:
    prefix: tuple
    default: tuple

    def __post_init__(self) -> None:
        if not self.default:
            raise ValueError("default pattern must be nonempty")
        bits = self.prefix + self.default
        if not _REF_BITS.issuperset(bits):
            bit = next(b for b in bits if b not in (0, 1))
            raise ValueError(f"stream bits must be 0 or 1, got {bit!r}")

    @classmethod
    def from_members(cls, members) -> "ReferenceChoiceSeq":
        positions = [pair(p, k) for k, p in members]
        if not positions:
            return cls((), (0,))
        prefix = bytearray(max(positions) + 1)
        for pos in positions:
            prefix[pos] = 1
        return cls(tuple(prefix), (0,))

    @classmethod
    def from_spec(cls, spec: str) -> "ReferenceChoiceSeq":
        prefix_text, default_text = (
            part.split(":")[1] for part in spec.split(";"))
        return cls(*(tuple(text.encode("ascii").translate(_REF_TEXT_TO_BITS))
                     for text in (prefix_text, default_text)))

    def at(self, i: int) -> int:
        if i < len(self.prefix):
            return self.prefix[i]
        return self.default[(i - len(self.prefix)) % len(self.default)]

    @cached_property
    def _prefix_witnesses(self) -> dict:
        table: dict = {}
        bits = _ref_bit_bytes(self.prefix)
        i = bits.find(1)
        while i >= 0:
            p, k = unpair(i)
            table.setdefault(k, p)
            i = bits.find(1, i + 1)
        return table

    def first_witness(self, k: int):
        p = self._prefix_witnesses.get(k)
        if p is not None:
            return p
        if 1 not in self.default:
            return None
        size, period = len(self.prefix), len(self.default)
        p0 = max(_ref_least_root(size - k) - k, 0)
        if 0 not in self.default:
            return p0
        for p in range(p0, p0 + 2 * period):
            if self.default[(pair(p, k) - size) % period] == 1:
                return p
        return None

    def is_member(self, k: int) -> bool:
        return self.first_witness(k) is not None

    def is_total(self) -> bool:
        period = 2 * len(self.default)
        k0 = max(_ref_least_root(len(self.prefix) + 1) - 1, 1)
        return all(self.is_member(k) for k in range(1, k0 + period))

    def canonical_spec(self) -> str:
        prefix, default = (_ref_bit_bytes(bits).translate(_REF_BITS_TO_TEXT)
                           .decode() for bits in (self.prefix, self.default))
        return f"prefix:{prefix};default:{default}"


def assert_streams_agree(alpha: ChoiceSeq, ref: ReferenceChoiceSeq) -> None:
    assert alpha.prefix == bytes(ref.prefix)
    assert alpha.default == bytes(ref.default)
    for i in range(len(ref.prefix) + 2 * len(ref.default) + 2):
        assert alpha.at(i) == ref.at(i)
    for k in range(61):
        assert alpha.first_witness(k) == ref.first_witness(k)
        assert alpha.is_member(k) is ref.is_member(k)
    assert alpha.is_total() is ref.is_total()
    spec = alpha.canonical_spec()
    assert spec == ref.canonical_spec()
    assert parse_alpha_spec(spec) == alpha
    assert ReferenceChoiceSeq.from_spec(spec) == ref


class TestBytesAgainstTuples:
    @given(prefix=st.lists(st.sampled_from([0, 1, False, True]), max_size=40),
           default=st.lists(st.sampled_from([0, 1, False, True]),
                            min_size=1, max_size=6))
    def test_periodic_streams_agree(self, prefix, default):
        assert_streams_agree(ChoiceSeq(prefix, default),
                             ReferenceChoiceSeq(tuple(prefix), tuple(default)))

    @given(members=member_lists)
    def test_member_streams_agree(self, members):
        assert_streams_agree(ChoiceSeq.from_members(members),
                             ReferenceChoiceSeq.from_members(members))


class TestStreamLimit:
    def test_largest_benchmark_stream_is_accepted(self):
        alpha = parse_alpha_spec("members:999@5")
        assert len(alpha.prefix) + len(alpha.default) <= MAX_STREAM_BITS
        assert alpha.first_witness(999) == 5

    def test_huge_candidate_is_refused_before_allocating(self):
        with pytest.raises(ValueError, match="candidate 100000000 at stage 0"):
            parse_alpha_spec("members:100000000")

    def test_every_constructor_checks_the_limit(self, monkeypatch):
        monkeypatch.setattr(kripke, "MAX_STREAM_BITS", 16)
        assert len(ChoiceSeq.from_members([(4, 0)]).prefix) == 15
        with pytest.raises(ValueError, match="limit of 16"):
            ChoiceSeq.from_members([(4, 1)])
        assert parse_alpha_spec("prefix:" + "0" * 15 + ";default:1")
        with pytest.raises(ValueError, match="the prefix needs 17"):
            parse_alpha_spec("prefix:" + "0" * 17 + ";default:1")
        with pytest.raises(ValueError, match="the stream needs 17"):
            parse_alpha_spec("prefix:" + "0" * 16 + ";default:1")
        with pytest.raises(ValueError, match="the stream needs 17"):
            ChoiceSeq((), (0,) * 17)


class TestSpecs:
    @pytest.mark.parametrize("spec, expect", [
        ("zero", ChoiceSeq.zero()),
        ("one", ChoiceSeq.one()),
        ("total", ChoiceSeq.one()),
        ("members:3", ChoiceSeq.from_members([(3, 0)])),
        ("members:3@2,7", ChoiceSeq.from_members([(3, 2), (7, 0)])),
        ("prefix:0101;default:10", ChoiceSeq((0, 1, 0, 1), (1, 0))),
    ])
    def test_alpha_specs(self, spec, expect):
        assert parse_alpha_spec(spec) == expect

    @pytest.mark.parametrize("spec", [
        "", "wibble", "members:", "members:x", "prefix:01", "prefix:2;default:0",
        "prefix:\u0661;default:0", "prefix:\x01;default:0",
    ])
    def test_bad_alpha_specs(self, spec):
        with pytest.raises(ValueError):
            parse_alpha_spec(spec)

    @pytest.mark.parametrize("part, bits", [
        ("prefix", "012"), ("prefix", "0\u0661"), ("prefix", "\x01"),
        ("prefix", "0?1"), ("prefix", "1 "), ("default", "10\xff"),
        ("default", ""),
    ])
    def test_bit_strings_hold_only_0_and_1(self, part, bits):
        spec = {"prefix": f"prefix:{bits};default:1",
                "default": f"prefix:01;default:{bits}"}[part]
        with pytest.raises(ValueError) as err:
            parse_alpha_spec(spec)
        assert str(err.value) == (
            f"{part} must be a string of 0s and 1s, got {bits!r}"
            if bits else "default pattern must be nonempty")

    @pytest.mark.parametrize("member", [
        "\u0663", "+3", "1_0", "-1", "3 @2", "3@\u0662", "3@+2", "3@-2",
    ])
    def test_members_are_ascii_digits(self, member):
        spec = f"members:1,{member}"
        with pytest.raises(ValueError) as err:
            parse_alpha_spec(spec)
        assert str(err.value) == f"bad member {member!r} in {spec!r}"

    @pytest.mark.parametrize("spec, expect", [
        ("never", Schedule.never()),
        ("phi:0", Schedule.phi_proved(0)),
        ("phi:12", Schedule.phi_proved(12)),
        ("notphi:3", Schedule.not_phi_proved(3)),
    ])
    def test_schedule_specs(self, spec, expect):
        assert parse_schedule_spec(spec) == expect
        assert expect.canonical_spec() == spec

    @pytest.mark.parametrize("spec", ["", "phi", "phi:x", "soon:3", "never:1"])
    def test_bad_schedule_specs(self, spec):
        with pytest.raises(ValueError):
            parse_schedule_spec(spec)

    @pytest.mark.parametrize("spec", [
        "phi:\u0662", "phi:1_0", "phi:+2", "phi:-1", "notphi: 3", "phi:",
    ])
    def test_proof_moments_are_ascii_digits(self, spec):
        with pytest.raises(ValueError) as err:
            parse_schedule_spec(spec)
        assert str(err.value) == f"bad proof moment in {spec!r}"

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            Schedule(ScheduleKind.NEVER, 3)
        with pytest.raises(ValueError):
            Schedule(ScheduleKind.PHI_PROVED, None)
        with pytest.raises(ValueError):
            Schedule(ScheduleKind.PHI_PROVED, -1)


def reference_simulate(alpha, schedule, horizon, seed):
    """simulate as it was when it visited every moment through the
    horizon, after stabilization too: the reference for beta and draws."""
    rng = random.Random(seed)
    beta, draws, stabilized = [], [], None
    drawing = schedule.kind is ScheduleKind.PHI_PROVED
    start = max(schedule.moment, 1) if drawing else None
    for n in range(horizon + 1):
        if stabilized is not None:
            beta.append(stabilized[1])
            continue
        if drawing and n >= start:
            k = rng.randint(1, n)
            w = alpha.first_witness(k)
            witnessed = w is not None and w <= n
            draws.append(Draw(n, k, witnessed))
            if witnessed:
                stabilized = (n, k)
                beta.append(k)
                continue
        beta.append(0)
    return RunResult(alpha, schedule, horizon, seed, tuple(beta),
                     tuple(draws), stabilized)


class TestSimulate:
    def test_never_schedule_stays_silent(self):
        run = simulate(ChoiceSeq.one(), Schedule.never(), 50, seed=3)
        assert run.beta == (0,) * 51
        assert not run.fired
        assert run.draws == ()

    def test_negative_schedule_stays_silent(self):
        run = simulate(ChoiceSeq.one(), Schedule.not_phi_proved(2), 50, seed=3)
        assert run.beta == (0,) * 51
        assert not run.fired

    def test_no_draws_before_the_proof_moment(self):
        run = simulate(ChoiceSeq.one(), Schedule.phi_proved(9), 30, seed=1)
        assert all(d.moment >= 9 for d in run.draws)
        assert run.beta[:9] == (0,) * 9

    def test_moment_zero_waits_for_first_candidate(self):
        run = simulate(ChoiceSeq.one(), Schedule.phi_proved(0), 10, seed=1)
        assert run.stabilized == (1, 1)

    @given(t=st.integers(min_value=0, max_value=12),
           seed=st.integers(min_value=0, max_value=50))
    def test_total_species_stabilizes_at_the_proof_moment(self, t, seed):
        run = run_total(Schedule.phi_proved(t), 40, seed)
        assert run.stabilized == (max(t, 1), run.beta[-1])
        assert run.beta[-1] >= 1

    @given(seed=st.integers(min_value=0, max_value=200))
    def test_deterministic_in_the_seed(self, seed):
        alpha = ChoiceSeq.from_members([(1, 0), (4, 2)])
        a = simulate(alpha, Schedule.phi_proved(2), 60, seed)
        b = simulate(alpha, Schedule.phi_proved(2), 60, seed)
        assert a == b

    @given(members=member_lists,
           t=st.integers(min_value=0, max_value=10),
           seed=st.integers(min_value=0, max_value=30))
    def test_stabilized_values_are_members(self, members, t, seed):
        alpha = ChoiceSeq.from_members(members)
        run = simulate(alpha, Schedule.phi_proved(t), 80, seed)
        if run.fired:
            moment, value = run.stabilized
            assert alpha.is_member(value)
            assert run.beta[moment:] == (value,) * (run.horizon + 1 - moment)
            assert all(b == 0 for b in run.beta[:moment])

    @given(prefix=prefixes, default=defaults,
           t=st.integers(min_value=0, max_value=10),
           seed=st.integers(min_value=0, max_value=30))
    def test_draws_match_brute_scan(self, prefix, default, t, seed):
        alpha = ChoiceSeq(prefix, default)
        run = simulate(alpha, Schedule.phi_proved(t), 60, seed)
        for d in run.draws:
            scanned = brute_first_witness(alpha, d.candidate, d.moment + 1)
            assert d.witnessed is (scanned is not None)

    def test_horizon_validation(self):
        with pytest.raises(ValueError):
            simulate(ChoiceSeq.one(), Schedule.never(), 0, seed=1)

    def test_a_run_lasts_up_to_the_horizon_limit(self):
        run = simulate(ChoiceSeq.zero(), Schedule.never(), MAX_HORIZON, 1)
        assert len(run.beta) == MAX_HORIZON + 1

    def test_a_horizon_past_the_limit_is_refused_before_allocating(
            self, monkeypatch):
        # The check comes before the random generator, and so before
        # beta, is made.
        def refuse(seed):
            raise AssertionError("the run started")

        monkeypatch.setattr(kripke, "random", type("Stub", (), {
            "Random": staticmethod(refuse)}))
        with pytest.raises(ValueError) as caught:
            simulate(ChoiceSeq.zero(), Schedule.never(), MAX_HORIZON + 1, 1)
        assert str(caught.value) == (
            f"horizon {MAX_HORIZON + 1} is more than the limit of "
            f"{MAX_HORIZON}")

    @given(prefix=prefixes, default=defaults, schedule=st.sampled_from(
               ["never", "phi:0", "phi:3", "phi:40", "notphi:2"]),
           horizon=st.integers(min_value=1, max_value=60),
           seed=st.integers(min_value=0, max_value=30))
    def test_matches_the_moment_by_moment_loop(self, prefix, default,
                                               schedule, horizon, seed):
        alpha = ChoiceSeq(prefix, default)
        schedule = parse_schedule_spec(schedule)
        assert simulate(alpha, schedule, horizon, seed) == reference_simulate(
            alpha, schedule, horizon, seed)


def reference_c5(beta) -> ConjunctStatus:
    """C5 as the moment-by-moment loop decided it: once beta is nonzero
    it keeps that value."""
    locked = None
    for value in beta:
        if locked is None:
            if value != 0:
                locked = value
        elif value != locked:
            return ConjunctStatus.VIOLATED
    return ConjunctStatus.HOLDS


class TestConjuncts:
    def test_fired_run_is_clean(self):
        run = run_total(Schedule.phi_proved(3), 40, seed=2)
        report = check_conjuncts(run)
        assert report.c1 is ConjunctStatus.HOLDS
        assert report.c5 is ConjunctStatus.HOLDS
        assert report.aggregate is ConjunctStatus.HOLDS

    def test_never_schedule_is_undetermined(self):
        run = simulate(ChoiceSeq.zero(), Schedule.never(), 20, seed=2)
        report = check_conjuncts(run)
        assert report.c1 is ConjunctStatus.VACUOUS
        assert report.c3 is ConjunctStatus.UNDETERMINED
        assert report.aggregate is ConjunctStatus.UNDETERMINED

    def test_refuted_total_run_holds_silently(self):
        run = run_total(Schedule.not_phi_proved(5), 20, seed=2)
        report = check_conjuncts(run)
        assert report.c2 is ConjunctStatus.HOLDS
        assert report.c5 is ConjunctStatus.HOLDS

    def test_premature_firing_is_violated(self):
        good = run_total(Schedule.phi_proved(4), 20, seed=2)
        forged = type(good)(
            good.alpha, good.schedule, good.horizon, good.seed,
            (0,) * 2 + good.beta[4:] + (good.beta[-1],) * 2,
            good.draws, (2, good.stabilized[1]),
        )
        assert check_conjuncts(forged).c1 is ConjunctStatus.VIOLATED

    def test_unstable_beta_is_violated(self):
        good = run_total(Schedule.phi_proved(2), 10, seed=2)
        wobble = list(good.beta)
        wobble[-1] = wobble[-1] + 1
        forged = type(good)(
            good.alpha, good.schedule, good.horizon, good.seed,
            tuple(wobble), good.draws, good.stabilized,
        )
        assert check_conjuncts(forged).c5 is ConjunctStatus.VIOLATED

    @pytest.mark.parametrize("horizon, schedule, expect", [
        (4, Schedule.phi_proved(1), ConjunctStatus.VACUOUS),
        (5, Schedule.phi_proved(1), ConjunctStatus.HOLDS),
        (5, Schedule.never(), ConjunctStatus.UNDETERMINED),
    ])
    def test_members_up_to_the_horizon_decide_c4(self, horizon, schedule,
                                                 expect):
        # The only member is candidate 5, so C4 sees it from horizon 5 on.
        run = simulate(parse_alpha_spec("members:5@0"), schedule, horizon,
                       seed=1)
        assert check_conjuncts(run).c4 is expect

    def test_report_dict_shape(self):
        run = run_total(Schedule.phi_proved(1), 10, seed=0)
        d = check_conjuncts(run).as_dict()
        assert sorted(d) == ["C1", "C2", "C3", "C4", "C5", "aggregate"]

    @pytest.mark.parametrize("beta", [
        (0, 0, 0, 0),  # all zero
        (0,),
        (),
        (2, 2, 2),  # locked at moment 0
        (3, 3, 1),
        (0, 0, 3, 3, 4),  # a value change after locking
        (0, 1, 1, 0),  # a return to 0 after locking
        (1, 0, 1),
        [0, 0, 5, 5],  # a list in place of a tuple
        [0, 5, 0],
    ])
    def test_c5_matches_the_moment_loop(self, beta):
        run = RunResult(ChoiceSeq.zero(), Schedule.phi_proved(1),
                        max(len(beta) - 1, 1), 3, beta, (), None)
        assert check_conjuncts(run).c5 is reference_c5(beta)


class TestTraces:
    @given(t=st.integers(min_value=0, max_value=8),
           seed=st.integers(min_value=0, max_value=40))
    def test_round_trip(self, t, seed):
        alpha = ChoiceSeq.from_members([(2, 1), (5, 0)])
        run = simulate(alpha, Schedule.phi_proved(t), 30, seed)
        assert parse_trace(format_trace(run)) == run

    def test_round_trip_ignores_appended_comments(self):
        run = run_total(Schedule.phi_proved(2), 12, seed=9)
        text = format_trace(run) + "# manifest v1\n# tool: something\n"
        assert parse_trace(text) == run

    def test_tampered_moment_line_is_rejected(self):
        run = run_total(Schedule.phi_proved(2), 12, seed=9)
        text = format_trace(run)
        lines = text.splitlines()
        lines[3] = lines[3].replace(" ", "  ", 1)
        tampered = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        lines[tampered] = "0 9 - -"
        with pytest.raises(TraceError) as caught:
            parse_trace("\n".join(lines) + "\n")
        assert str(caught.value) == (
            "trace does not match its own parameters: "
            "got '0 9 - -', expected '0 0 - -'")

    def test_tampered_summary_is_rejected(self):
        run = run_total(Schedule.phi_proved(2), 12, seed=9)
        text = format_trace(run).replace("seed=9", "seed=10")
        with pytest.raises(TraceError):
            parse_trace(text)

    def test_missing_header_is_rejected(self):
        with pytest.raises(TraceError):
            parse_trace("0 0 - -\n")

    def test_missing_summary_is_rejected(self):
        run = run_total(Schedule.phi_proved(2), 12, seed=9)
        text = format_trace(run).split("# summary")[0]
        with pytest.raises(TraceError):
            parse_trace(text)


BLOCK = "members:" + ",".join(f"{k}@2" for k in range(300, 341))
PINNED_RUNS = (
    [("members:999@5", "phi:1", 1000, 0)]
    + [(BLOCK, "phi:250", 600, seed) for seed in range(4)]
    + [(alpha, schedule, 256, seed)
       for alpha in ("zero", "total", "members:1@3,4@0",
                     "prefix:0110100;default:01")
       for schedule in ("never", "phi:0", "phi:3", "notphi:2")
       for seed in range(3)]
)


class TestTraceBytes:
    def test_traces_print_byte_for_byte_as_pinned(self):
        digest = hashlib.sha256()
        for alpha, schedule, horizon, seed in PINNED_RUNS:
            run = simulate(parse_alpha_spec(alpha),
                           parse_schedule_spec(schedule), horizon, seed)
            digest.update(format_trace(run).encode())
        assert len(PINNED_RUNS) == 53
        assert digest.hexdigest() == (
            "0eae3bfa0e776bd8800f11c493e342a2a0376ed4648422706d6de517b8a35c83")

    @pytest.mark.parametrize("tail", [(0,), (0, 1)])
    def test_sparse_round_trip_is_linear_in_the_horizon(self, monkeypatch,
                                                        tail):
        # Counts pairing calls instead of timing.  Rescanning stages 0..n
        # per draw and the prefix per query made 3,033,023 calls on the
        # members:999@5 run; the witness index needs none for its
        # constant tail and at most 2 * len(default) per query otherwise.
        calls = 0

        def counted(p, k):
            nonlocal calls
            calls += 1
            return pair(p, k)

        alpha = ChoiceSeq(parse_alpha_spec("members:999@5").prefix, tail)
        monkeypatch.setattr(kripke, "pair", counted)
        run = simulate(alpha, parse_schedule_spec("phi:1"), 1000, 0)
        assert parse_trace(format_trace(run)) == run
        assert calls < 50_000

    def test_a_round_trip_does_each_piece_of_work_once(self, monkeypatch):
        # Counts calls instead of timing: one parse re-runs the simulation
        # and formats the re-run once each.  An exact trace, alone or
        # followed by a manifest, is accepted by one comparison of texts
        # without normalizing its lines; a CRLF or tampered text is
        # normalized and compared against the same re-run.  The silent
        # members:999@5 run decides C2 and C4 from the witness index
        # without a membership query.
        run = simulate(parse_alpha_spec("members:999@5"),
                       parse_schedule_spec("phi:1"), 1000, 0)
        assert not run.fired
        text = format_trace(run)
        calls = Counter()

        def counted(name, function):
            def wrapper(*args):
                calls[name] += 1
                return function(*args)
            return wrapper

        for name in ("_normalize", "simulate", "format_trace"):
            monkeypatch.setattr(kripke, name,
                                counted(name, getattr(kripke, name)))
        once = {"simulate": 1, "format_trace": 1}
        for variant, work in [
            (text, once),
            (text + "# manifest v1\n# tool: something\n", once),
            (text.replace("\n", "\r\n"), {"_normalize": 1, **once}),
        ]:
            calls.clear()
            assert parse_trace(variant) == run
            assert calls == work
        calls.clear()
        with pytest.raises(TraceError, match="got '3 0 2 no'"):
            parse_trace(text.replace("\n3 0 1 no\n", "\n3 0 2 no\n"))
        assert calls == {"_normalize": 1, **once}
        short = format_trace(run_total(Schedule.phi_proved(2), 3, seed=9))
        calls.clear()
        with pytest.raises(TraceError, match="19 lines recorded"):
            parse_trace(short.replace("horizon=3\n",
                                      f"horizon={MAX_HORIZON}\n"))
        assert calls == {"_normalize": 1}

        calls.clear()
        monkeypatch.setattr(ChoiceSeq, "is_member",
                            counted("is_member", ChoiceSeq.is_member))
        check_conjuncts(run)
        assert calls == {}


def reference_format_trace(run: RunResult) -> str:
    """format_trace as it was when it printed one f-string per moment:
    the reference for every byte of every trace."""
    report = check_conjuncts(run)
    lines = [kripke.TRACE_HEADER, "# moments"]
    draw_at = {d.moment: d for d in run.draws}
    for n, value in enumerate(run.beta):
        d = draw_at.get(n)
        if d is None:
            lines.append(f"{n} {value} - -")
        else:
            lines.append(
                f"{n} {value} {d.candidate} {'yes' if d.witnessed else 'no'}"
            )
    lines.append("# conjuncts")
    for key, status in report.as_dict().items():
        lines.append(f"{key}={status}")
    lines.append("# summary")
    lines.append(f"horizon={run.horizon}")
    lines.append(f"seed={run.seed}")
    lines.append(f"alpha={run.alpha.canonical_spec()}")
    lines.append(f"schedule={run.schedule.canonical_spec()}")
    if run.stabilized is None:
        lines.append("stabilized=none")
    else:
        lines.append(f"stabilized={run.stabilized[0]}:{run.stabilized[1]}")
    return "\n".join(lines) + "\n"


def hand_built(beta, draws, horizon=None, stabilized=None):
    """A RunResult no simulation made: draws are (moment, candidate,
    witnessed) triples, kept in the order given."""
    return RunResult(ChoiceSeq.from_members([(2, 1), (5, 0)]),
                     Schedule.phi_proved(1),
                     len(beta) - 1 if horizon is None else horizon, 3,
                     tuple(beta), tuple(Draw(*d) for d in draws), stabilized)


@st.composite
def hand_built_runs(draw):
    beta = draw(st.lists(st.integers(0, 3), min_size=1, max_size=30))
    draws = draw(st.lists(st.tuples(st.integers(-3, 34), st.integers(1, 9),
                                    st.booleans()), max_size=12))
    stabilized = draw(st.none() | st.tuples(st.integers(0, 30),
                                            st.integers(1, 3)))
    return hand_built(beta, draws, draw(st.integers(1, 40)), stabilized)


@given(hand_built_runs())
def test_c5_matches_the_moment_loop_on_hand_built_runs(run):
    assert check_conjuncts(run).c5 is reference_c5(run.beta)


class TestFormatAgainstTheMomentLoop:
    """format_trace prints each stretch of undrawn moments with one join;
    the loop that printed one line per moment is the reference."""

    @given(prefix=prefixes, default=defaults, schedule=st.sampled_from(
               ["never", "phi:0", "phi:2", "phi:30", "notphi:3"]),
           horizon=st.integers(min_value=1, max_value=80),
           seed=st.integers(min_value=0, max_value=40))
    def test_simulated_runs(self, prefix, default, schedule, horizon, seed):
        run = simulate(ChoiceSeq(prefix, default),
                       parse_schedule_spec(schedule), horizon, seed)
        assert format_trace(run) == reference_format_trace(run)

    @pytest.mark.parametrize("beta, draws", [
        # a beta that is not constant between draws
        ([0, 3, 0, 3, 3, 1, 0, 2, 2, 2], []),
        ([0, 3, 0, 3, 3, 1, 0, 2, 2, 2], [(4, 2, False)]),
        # duplicate moments: the last draw of a moment wins
        ([0, 0, 5, 5], [(2, 5, False), (2, 4, True), (1, 1, False)]),
        # moments before 0 and from len(beta) on are not printed
        ([0, 0, 2], [(-1, 7, True), (3, 2, True), (40, 1, False),
                     (1, 2, False)]),
        # draws out of order
        ([0, 0, 0, 4, 4, 4], [(5, 1, False), (1, 2, False), (3, 4, True)]),
        # a draw at every moment, and at none
        ([1, 2, 3], [(0, 1, True), (1, 2, True), (2, 3, True)]),
        ([7], []),
    ])
    def test_hand_built_runs(self, beta, draws):
        run = hand_built(beta, draws)
        assert format_trace(run) == reference_format_trace(run)

    @given(run=hand_built_runs())
    def test_random_hand_built_runs(self, run):
        assert format_trace(run) == reference_format_trace(run)


class TestTraceText:
    """What parse_trace accepts besides a trace as printed (a manifest
    alone: test_round_trip_ignores_appended_comments), and the exact text
    of its errors."""

    RUN = run_total(Schedule.phi_proved(2), 12, seed=9)

    @pytest.mark.parametrize("edit", [
        lambda text: text.replace("\n", "\r\n"),
        lambda text: text.replace("\n", " \t\n"),
        lambda text: text + "\n \n\t\n",
        lambda text: text.replace("\n", "  \r\n") + "\r\n# manifest v1\r\n",
    ], ids=["crlf", "trailing-space-and-tab", "blank-lines-at-the-end",
            "with-a-manifest"])
    def test_accepted_variants(self, edit):
        assert parse_trace(edit(format_trace(self.RUN))) == self.RUN

    @staticmethod
    def error_of(text: str) -> str:
        with pytest.raises(TraceError) as caught:
            parse_trace(text)
        return str(caught.value)

    def test_short_trace(self):
        run = run_total(Schedule.phi_proved(2), 3, seed=9)
        text = format_trace(run).replace("horizon=3\n", "horizon=5\n")
        assert len(text.splitlines()) == 19
        assert self.error_of(text) == (
            "trace does not match its own parameters: "
            "19 lines recorded, 21 expected")

    def test_horizon_zero(self):
        # 16 lines fit horizon=0, so only the summary check refuses it.
        assert self.error_of(horizon_zero_trace()) == (
            "bad summary value: horizon must be at least 1")

    def test_horizon_zero_after_another_bad_value(self):
        text = horizon_zero_trace().replace("seed=9\n", "seed=x\n")
        assert self.error_of(text) == (
            "bad summary value: expected digits 0-9, got 'x'")


def test_a_trace_past_the_horizon_limit_is_refused(monkeypatch):
    # Its line count fits, so the re-run refuses it.
    text = format_trace(run_total(Schedule.phi_proved(2), 13, seed=9))
    monkeypatch.setattr(kripke, "MAX_HORIZON", 12)
    with pytest.raises(ValueError) as caught:
        parse_trace(text)
    assert str(caught.value) == "horizon 13 is more than the limit of 12"
    # The checks before the re-run keep their order.
    with pytest.raises(TraceError, match="missing trace header"):
        parse_trace(text.replace("run-trace v1", "run-trace v2"))


def horizon_zero_trace() -> str:
    """The trace of a horizon-1 run with its last moment line removed
    and its horizon= line claiming 0: 16 lines."""
    lines = format_trace(run_total(Schedule.phi_proved(2), 1, seed=9)
                         ).splitlines()
    del lines[3]
    text = "\n".join(lines).replace("horizon=1\n", "horizon=0\n") + "\n"
    assert len(lines) == 16 and "horizon=0\n" in text
    return text


def reference_parse_trace(text: str) -> RunResult:
    """parse_trace as it was when it stripped every line of its input and
    compared the lines with the re-run's: the reference for what it
    accepts and for the text of its errors."""
    lines = list(map(str.rstrip, text.splitlines()))
    if "# manifest" in text:
        for i, line in enumerate(lines):
            if line.startswith("# manifest"):
                lines = lines[:i]
                break
    while lines and not lines[-1]:
        lines.pop()
    if not lines or lines[0] != kripke.TRACE_HEADER:
        raise TraceError(f"missing trace header {kripke.TRACE_HEADER!r}")
    summary: dict[str, str] = {}
    try:
        at = lines.index("# summary")
    except ValueError:
        raise TraceError("missing # summary section") from None
    for line in lines[at + 1:]:
        key, sep, value = line.partition("=")
        if not sep:
            raise TraceError(f"bad summary line {line!r}")
        summary[key] = value
    for key in ("horizon", "seed", "alpha", "schedule", "stabilized"):
        if key not in summary:
            raise TraceError(f"summary is missing {key!r}")
    try:
        horizon = parse_natural(summary["horizon"])
        seed = parse_natural(summary["seed"])
        alpha = parse_alpha_spec(summary["alpha"])
        schedule = parse_schedule_spec(summary["schedule"])
        if horizon < 1:
            raise ValueError("horizon must be at least 1")
    except ValueError as exc:
        raise TraceError(f"bad summary value: {exc}") from None
    if len(lines) != horizon + 16:
        raise TraceError(
            f"trace does not match its own parameters: "
            f"{len(lines)} lines recorded, {horizon + 16} expected"
        )
    run = simulate(alpha, schedule, horizon, seed)
    expected = format_trace(run).splitlines()
    if lines != expected:
        got, want = next(p for p in zip(lines, expected) if p[0] != p[1])
        raise TraceError(
            f"trace does not match its own parameters: "
            f"got {got!r}, expected {want!r}"
        )
    return run


MANIFEST = "# manifest v1\n# tool: ringterp 0.1.0\n# subcommand: simulate\n"
SUMMARY_KEYS = ("horizon=", "seed=", "alpha=", "schedule=", "stabilized=")


def line_edit(edit):
    """A mutation that edits the list of the text's lines in place; the
    last entry is what follows the final newline."""
    def mutate(text: str, rng: random.Random) -> str:
        lines = text.split("\n")
        edit(lines, rng)
        return "\n".join(lines)
    return mutate


def at_random_line(lines: list, rng: random.Random, where=None) -> int:
    """Index of a random line, of those that start with one of where."""
    return rng.choice([i for i, line in enumerate(lines[:-1])
                       if where is None or line.startswith(where)])


def trailing(space: str):
    def edit(lines, rng):
        lines[at_random_line(lines, rng)] += space
    return line_edit(edit)


def line_break(char: str):
    """A line break that str.splitlines honours, inserted mid-line."""
    def edit(lines, rng):
        i = at_random_line(lines, rng)
        cut = rng.randrange(1, max(len(lines[i]), 2))
        lines[i] = lines[i][:cut] + char + lines[i][cut:]
    return line_edit(edit)


def summary_edit(edit):
    def on_lines(lines, rng):
        at = lines.index("# summary")
        edit(lines, at + 1 + rng.randrange(5), rng)
    return line_edit(on_lines)


def swap_with_a_neighbour(lines, i: int, rng: random.Random) -> None:
    """Swap summary line i with the key line before it, or after it if
    it is the first."""
    j = i + 1 if lines[i - 1] == "# summary" else i - 1
    lines[i], lines[j] = lines[j], lines[i]


def tamper(lines, i: int, rng: random.Random) -> None:
    """Change one field of line i to another value of its kind."""
    line = lines[i]
    if line.startswith("C") or line.startswith("aggregate="):
        key, _, status = line.partition("=")
        others = [s.value for s in ConjunctStatus if s.value != status]
        lines[i] = f"{key}={rng.choice(others)}"
    else:
        fields = line.split(" ")
        j = rng.randrange(len(fields))
        swap = {"-": "1", "yes": "no", "no": "yes"}
        fields[j] = (swap[fields[j]] if fields[j] in swap
                     else str(int(fields[j]) + rng.randint(1, 3)))
        lines[i] = " ".join(fields)


MOMENT = tuple("0123456789")
MUTATIONS = {
    "crlf": lambda text, rng: text.replace("\n", "\r\n"),
    "trailing-space": trailing(" "),
    "trailing-tab": trailing("\t"),
    "trailing-nbsp": trailing("\xa0"),
    "trailing-whitespace-everywhere":
        lambda text, rng: text.replace("\n", " \t\xa0\n"),
    **{f"break-{char!r}": line_break(char)
       for char in ("\x0b", "\x0c", "\x1c", "\x85", "\u2028")},
    "no-final-newline": lambda text, rng: text[:-1],
    "blank-lines-at-the-end": lambda text, rng: text + "\n \n\t\n",
    "manifest": lambda text, rng: text + MANIFEST,
    "manifest-crlf": lambda text, rng: (text + MANIFEST).replace("\n", "\r\n"),
    "manifest-after-a-blank-line": lambda text, rng: text + "\n" + MANIFEST,
    "manifest-mid-trace": line_edit(lambda lines, rng: lines.insert(
        at_random_line(lines, rng), MANIFEST.rstrip("\n"))),
    "manifest-without-a-newline-before": lambda text, rng: (
        text[:-1] + MANIFEST),
    "duplicated-summary-key": summary_edit(
        lambda lines, i, rng: lines.insert(i, lines[i])),
    "duplicated-summary-key-at-the-end": summary_edit(
        lambda lines, i, rng: lines.insert(-1, lines[i])),
    "missing-summary-key": summary_edit(lambda lines, i, rng: lines.pop(i)),
    "reordered-summary": summary_edit(swap_with_a_neighbour),
    "second-summary-line": line_edit(lambda lines, rng: lines.insert(
        at_random_line(lines, rng, ("# summary", "horizon=", "seed=")),
        "# summary")),
    "summary-line-moved-up": line_edit(lambda lines, rng: lines.insert(
        at_random_line(lines, rng, MOMENT),
        lines.pop(at_random_line(lines, rng, SUMMARY_KEYS)))),
    "tampered-moment": line_edit(lambda lines, rng: tamper(
        lines, at_random_line(lines, rng, MOMENT), rng)),
    "tampered-conjunct": line_edit(lambda lines, rng: tamper(
        lines, at_random_line(lines, rng, ("C", "aggregate=")), rng)),
    "tampered-seed": lambda text, rng: text.replace(
        "\nseed=", f"\nseed={rng.randint(1, 9)}"),
    "tampered-horizon": lambda text, rng: text.replace(
        "\nhorizon=", f"\nhorizon={rng.randint(1, 9)}"),
    "dropped-line": line_edit(
        lambda lines, rng: lines.pop(at_random_line(lines, rng))),
    "truncated": lambda text, rng: text[:rng.randrange(len(text))],
    "truncated-at-a-line": lambda text, rng: text[
        :text.rfind("\n", 0, rng.randrange(len(text))) + 1],
}


class TestParseAgainstTheLineParser:
    """parse_trace against reference_parse_trace: the same run, or the
    same error type and message, on every pinned trace and on seeded
    mutations; and at most one re-run and one formatted trace per text."""

    @staticmethod
    def outcome(parse, text: str):
        try:
            return parse(text)
        except ValueError as exc:
            return type(exc), str(exc)

    def check(self, monkeypatch, text: str) -> None:
        expect = self.outcome(reference_parse_trace, text)
        calls = Counter()

        def counted(name, function):
            def wrapper(*args):
                calls[name] += 1
                return function(*args)
            return wrapper

        with monkeypatch.context() as patch:
            for name in ("simulate", "format_trace"):
                patch.setattr(kripke, name,
                              counted(name, getattr(kripke, name)))
            assert self.outcome(parse_trace, text) == expect, repr(text[:200])
        assert calls["simulate"] <= 1 and calls["format_trace"] <= 1

    @staticmethod
    def pinned_text(index: int) -> str:
        alpha, schedule, horizon, seed = PINNED_RUNS[index]
        return format_trace(simulate(parse_alpha_spec(alpha),
                                     parse_schedule_spec(schedule),
                                     horizon, seed))

    def test_every_pinned_trace(self, monkeypatch):
        for index in range(len(PINNED_RUNS)):
            self.check(monkeypatch, self.pinned_text(index))

    # The sparse run, a block run, and a seeded choice of the 256-moment
    # runs that covers each stream of the grid.
    @pytest.mark.parametrize("index", [0, 2, 5, 11, 24, 30, 41, 52])
    def test_mutations(self, monkeypatch, index):
        text = self.pinned_text(index)
        rng = random.Random(f"parse_trace:{index}")
        for name, mutate in MUTATIONS.items():
            mutant = mutate(text, rng)
            assert mutant != text, name
            self.check(monkeypatch, mutant)

"""Tests for encoding finished runs as quotient pairs of reals."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ringterp.encoder import (
    MembershipStatus, SpeciesEncoding, adaptive_precision, encode_run,
    encode_silent, encode_stabilized, membership_profile, quotient_status,
)
from ringterp.kripke import ChoiceSeq, Schedule, run_total, simulate
from ringterp.reals import (
    Precision, check_modulus, eq_at, from_nat, from_unit_fraction, lt_at,
    nat_scalar,
)

moments = st.integers(min_value=1, max_value=40)
values = st.integers(min_value=1, max_value=12)


def scanning_status(enc: SpeciesEncoding, n: int,
                    prec: Precision) -> MembershipStatus:
    """Reference implementation: quotient_status with every candidate
    searched, as before pairs of naturals were decided in closed form,
    and a witness that the exact values refute reported undetermined."""
    if enc.stabilized is not None and prec.horizon < enc.stabilized[0]:
        return MembershipStatus.UNDETERMINED
    scaled = nat_scalar(n, enc.v)
    if eq_at(scaled, enc.u, prec):
        witnessed = True
    elif lt_at(scaled, enc.u, prec) or lt_at(enc.u, scaled, prec):
        witnessed = False
    else:
        return MembershipStatus.UNDETERMINED
    if witnessed is not (n * exact_value(enc.v) == exact_value(enc.u)):
        return MembershipStatus.UNDETERMINED
    return (MembershipStatus.CONFIRMED if witnessed
            else MembershipStatus.EXCLUDED)


def exact_value(g) -> Fraction:
    """The rational a library generator denotes, from its record."""
    return Fraction(*g._exact[:2])


encodings = st.one_of(
    st.just(encode_silent()),
    st.builds(encode_stabilized, st.integers(min_value=1, max_value=6),
              values),
    # a pair of naturals other than the silent one: v = a, u = a * value
    st.builds(lambda a, value, moment: SpeciesEncoding(
        from_nat(a * value), from_nat(a), (moment, value)),
        st.integers(min_value=0, max_value=5), values,
        st.integers(min_value=1, max_value=6)),
)


class TestClosedForms:
    def test_stage_values_before_and_after_the_cutover(self):
        enc = encode_stabilized(4, 2)
        # u ~ 1/4: zero before stage 4, floor(2^x / 4) after.
        assert [enc.u.at(x) for x in range(7)] == [0, 0, 0, 0, 4, 8, 16]
        # v ~ 1/8: zero before stage 4, floor(2^x / 8) after.
        assert [enc.v.at(x) for x in range(7)] == [0, 0, 0, 0, 2, 4, 8]

    def test_generators_denote_the_unit_fractions(self):
        enc = encode_stabilized(3, 5)
        prec = adaptive_precision(enc)
        assert eq_at(enc.u, from_unit_fraction(3), prec)
        assert eq_at(enc.v, from_unit_fraction(15), prec)

    @given(m=moments, k=values)
    def test_moduli_hold_despite_the_cutover(self, m, k):
        enc = encode_stabilized(m, k)
        prec = Precision(k=12, horizon=m + 48)
        assert check_modulus(enc.u, prec)
        assert check_modulus(enc.v, prec)

    def test_silent_run_encodes_zero_pair(self):
        enc = encode_silent()
        assert enc.kind == "full"
        assert enc.u.at(10) == 0
        assert enc.v.at(10) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            encode_stabilized(0, 1)
        with pytest.raises(ValueError):
            encode_stabilized(1, 0)


class TestQuotientStatus:
    @given(m=moments, k=values)
    def test_singleton_membership(self, m, k):
        enc = encode_stabilized(m, k)
        prec = adaptive_precision(enc)
        assert quotient_status(enc, k, prec) is MembershipStatus.CONFIRMED
        for n in (0, k - 1, k + 1, 2 * k):
            if n != k and n >= 0:
                assert quotient_status(enc, n, prec) is MembershipStatus.EXCLUDED

    def test_full_species_confirms_everything(self):
        enc = encode_silent()
        prec = adaptive_precision(enc)
        profile = membership_profile(enc, 10, prec)
        assert set(profile.values()) == {MembershipStatus.CONFIRMED}

    def test_undetermined_when_the_horizon_is_too_short(self):
        # Before the cutover both generators report 0, so a window that
        # fits inside the silent prefix must not count as a witness: a
        # non-member would be "confirmed" by the flat prefix otherwise.
        enc = encode_stabilized(30, 2)
        tight = Precision(k=16, horizon=8)
        assert quotient_status(enc, 2, tight) is MembershipStatus.UNDETERMINED
        assert quotient_status(enc, 7, tight) is MembershipStatus.UNDETERMINED

    @given(enc=encodings, k=values, horizon=st.integers(min_value=1,
                                                          max_value=30))
    def test_statuses_match_the_scanning_path(self, enc, k, horizon):
        prec = Precision(k, horizon)
        for n in range(13):
            assert quotient_status(enc, n, prec) is scanning_status(
                enc, n, prec)

    def test_no_status_is_refuted_by_the_exact_value(self):
        # Over library encodings at every small precision, a confirmed
        # or excluded row is the exact verdict; a witness against it
        # reads undetermined.
        encodings = [encode_silent()] + [
            encode_stabilized(m, value) for m in (1, 2, 3)
            for value in range(1, 11)]
        for enc in encodings:
            for k in range(1, 9):
                for horizon in range(1, 14):
                    prec = Precision(k, horizon)
                    profile = membership_profile(enc, 12, prec)
                    for n, status in profile.items():
                        assert status is quotient_status(enc, n, prec)
                        member = (enc.stabilized is None
                                  or n == enc.stabilized[1])
                        if status is not MembershipStatus.UNDETERMINED:
                            assert (status is MembershipStatus.CONFIRMED) \
                                is member, (enc.stabilized, n, prec)

    def test_the_misjudged_member_reads_undetermined(self):
        # At a short horizon 9 * floor(2^x / 9) falls short of 2^x, so
        # the scan sees 9 * v below u for the member 9.
        enc, prec = encode_stabilized(1, 9), Precision(6, 8)
        assert quotient_status(enc, 9, prec) is MembershipStatus.UNDETERMINED
        assert membership_profile(enc, 9, prec)[9] is \
            MembershipStatus.UNDETERMINED
        assert lt_at(nat_scalar(9, enc.v), enc.u, prec)

    def test_candidates_are_nonnegative(self):
        with pytest.raises(ValueError):
            quotient_status(encode_silent(), -1, Precision())

    @pytest.mark.parametrize("n, message", [
        (1.5, "^candidates are ints, got 1.5$"),
        ("3", "^candidates are ints, got '3'$"),
        (True, "^candidates are ints, got True$"),
        (-1, "^candidates are nonnegative$"),
    ])
    def test_candidates_are_checked_before_any_search(self, n, message):
        for enc in (encode_stabilized(2, 3), encode_silent()):
            with pytest.raises(ValueError, match=message):
                quotient_status(enc, n, Precision(8, 20))

    def test_profile_keys(self):
        enc = encode_stabilized(2, 1)
        profile = membership_profile(enc, 5, adaptive_precision(enc))
        assert sorted(profile) == [0, 1, 2, 3, 4, 5]


class TestEncodeRun:
    @given(t=st.integers(min_value=1, max_value=10),
           seed=st.integers(min_value=0, max_value=30))
    def test_fired_runs_encode_their_stabilization(self, t, seed):
        run = run_total(Schedule.phi_proved(t), 40, seed)
        enc = encode_run(run)
        assert enc.stabilized == run.stabilized
        prec = adaptive_precision(enc)
        status = quotient_status(enc, run.stabilized[1], prec)
        assert status is MembershipStatus.CONFIRMED

    def test_silent_runs_encode_the_full_species(self):
        run = simulate(ChoiceSeq.zero(), Schedule.never(), 20, seed=1)
        assert encode_run(run).kind == "full"


class TestAdaptivePrecision:
    def test_horizon_tracks_the_cutover(self):
        assert adaptive_precision(encode_stabilized(25, 3)).horizon == 73
        assert adaptive_precision(encode_silent()).horizon == 48

    def test_precision_k_is_configurable(self):
        assert adaptive_precision(encode_silent(), k=24).k == 24

    def test_small_encodings_keep_the_k_asked_for(self):
        assert adaptive_precision(encode_silent()).k == 16
        assert adaptive_precision(encode_stabilized(40, 12)).k == 16
        assert adaptive_precision(encode_stabilized(40, 12), k=24).k == 24

    def test_k_resolves_the_encodings_gap(self):
        # m * value = 90000 has 17 bits.
        assert adaptive_precision(encode_stabilized(300, 300)).k == 19
        assert adaptive_precision(encode_stabilized(300, 300), k=24).k == 24

    @pytest.mark.parametrize("m, value", [(300, 300), (2, 40000)])
    def test_neighbours_of_a_large_value_are_excluded(self, m, value):
        enc = encode_stabilized(m, value)
        prec = adaptive_precision(enc)
        assert quotient_status(enc, value, prec) is MembershipStatus.CONFIRMED
        for n in (value - 1, value + 1):
            assert quotient_status(enc, n, prec) is MembershipStatus.EXCLUDED

    @given(m=st.integers(min_value=1, max_value=700),
           value=st.integers(min_value=1, max_value=50_000),
           offset=st.integers(min_value=-3, max_value=3))
    def test_witnessed_verdicts_agree_with_the_value(self, m, value, offset):
        n = max(value + offset, 0)
        enc = encode_stabilized(m, value)
        status = quotient_status(enc, n, adaptive_precision(enc))
        if status is MembershipStatus.CONFIRMED:
            assert n == value
        if status is MembershipStatus.EXCLUDED:
            assert n != value

    def test_audit_rows_of_traced_runs_are_decided(self):
        # A run stabilizes at moment m on a candidate drawn from 1..m, so
        # the encode audit (candidates 0..20 at adaptive_precision) needs
        # no second precision for any such pair.
        for m in range(1, 41):
            for value in range(1, m + 1):
                enc = encode_stabilized(m, value)
                profile = membership_profile(enc, 20, adaptive_precision(enc))
                assert MembershipStatus.UNDETERMINED not in profile.values()
                confirmed = [n for n, status in profile.items()
                             if status is MembershipStatus.CONFIRMED]
                assert confirmed == ([value] if value <= 20 else [])

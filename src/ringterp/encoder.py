"""Encoding of a finished choice-sequence run as a quotient of reals.

A run that stabilized at moment m with value k is turned into the pair
of generators u ~ 1/m and v ~ 1/(m * k), both of which report 0 before
stage m (the approximations carry no information until the run has
fired).  Membership of a natural n in the encoded species is the
relation n * v = u, which holds exactly for n = k, so a stabilized run
encodes the singleton species {k}.

A run that never fired is encoded as the degenerate pair u = v = 0.
The quotient relation n * 0 = 0 holds for every n, so read classically
a silent run encodes the full species; quotient_status confirms every
candidate against that pair.

quotient_status decides membership by bounded witness search, or by
the verdict that search would find where exact values prove it.
Confirmed and excluded both rest on a witness the exact values do not
contradict; undetermined means the precision or horizon was too small
to produce one, not that the answer is unknown in principle.
"""

from __future__ import annotations

import enum
from typing import Optional, Union

from .frozen import frozen
from .kripke import RunResult
from .reals import UNDETERMINED, Precision, RealGen, cutover_unit_fraction, \
    from_nat, relation_at


class MembershipStatus(enum.Enum):
    CONFIRMED = "confirmed"
    EXCLUDED = "excluded"
    UNDETERMINED = UNDETERMINED


@frozen
class SpeciesEncoding:
    """Pair of generators whose quotient codes a species of naturals.

    stabilized is the (moment, value) pair of the run that produced the
    encoding, or None for a silent run (the full species).
    """

    u: RealGen
    v: RealGen
    stabilized: Optional[tuple[int, int]]

    @property
    def kind(self) -> str:
        return "full" if self.stabilized is None else "singleton"


def encode_stabilized(moment: int, value: int) -> SpeciesEncoding:
    """Encoding of the singleton species {value} from a run that fired
    at the given moment."""
    if moment < 1:
        raise ValueError("runs fire at moment 1 or later")
    if value < 1:
        raise ValueError("stabilized values are positive")
    u = cutover_unit_fraction(moment, moment, f"u[m={moment}]")
    v = cutover_unit_fraction(moment * value, moment,
                              f"v[m={moment},k={value}]")
    return SpeciesEncoding(u, v, (moment, value))


def encode_silent() -> SpeciesEncoding:
    """Encoding of a run that never fired: the degenerate pair (0, 0)."""
    return SpeciesEncoding(from_nat(0), from_nat(0), None)


def encode_run(run: RunResult) -> SpeciesEncoding:
    if run.stabilized is None:
        return encode_silent()
    moment, value = run.stabilized
    return encode_stabilized(moment, value)


def membership_at(enc: SpeciesEncoding, n: int,
                  prec: Precision) -> Union[bool, str]:
    """reals.relation_at on n * v = u, or UNDETERMINED at a horizon
    shorter than the encoding's cutover moment: every window it could
    inspect fits inside the silent prefix where both generators are
    still 0, which would pass as an equality witness for any candidate.
    """
    if enc.stabilized is not None and prec.horizon < enc.stabilized[0]:
        return UNDETERMINED
    return relation_at(n, enc.v, enc.u, prec)


def quotient_status(enc: SpeciesEncoding, n: int,
                    prec: Precision) -> MembershipStatus:
    """Bounded membership check of n against the encoded species:
    confirmed when n * v = u is witnessed, excluded when the two sides
    are witnessed apart, undetermined where membership_at gives a fault
    (no witness, or one the exact values contradict)."""
    if type(n) is not int:
        raise ValueError(f"candidates are ints, got {n!r}")
    if n < 0:
        raise ValueError("candidates are nonnegative")
    verdict = membership_at(enc, n, prec)
    return (MembershipStatus.UNDETERMINED if isinstance(verdict, str)
            else MembershipStatus.CONFIRMED if verdict
            else MembershipStatus.EXCLUDED)


def adaptive_precision(enc: SpeciesEncoding, k: int = 16) -> Precision:
    """Precision whose horizon clears the encoding's silent stages and
    whose digits resolve the encoding's own gap.

    The generators of an encoding that fired at moment m report 0 before
    stage m, so witness windows must start at stage m or later; a
    horizon of m + 48 leaves room for them.

    For the singleton {value}, a candidate n != value misses the
    relation by |n * v - u| = |value - n| / (m * value) >= 1 / (m * value),
    so agreement to k digits confirms a non-member once
    2^k < m * value.  k is therefore raised to bits(m * value) + 2,
    where even the nearest non-member stays 4 * 2^-k apart.  Silent
    encodings keep the k asked for, and so does every singleton with
    bits(m * value) + 2 <= k (for k = 16: m * value < 2^14).
    """
    if enc.stabilized is None:
        return Precision(k=k, horizon=48)
    return Precision(k=max(k, gap_digits(enc)), horizon=enc.stabilized[0] + 48)


def gap_digits(enc: SpeciesEncoding) -> int:
    """Digits of agreement that tell the encoded member from its nearest
    non-member: bits(m * value) + 2 for a singleton (see
    adaptive_precision), 0 for a silent encoding, which has no gap."""
    if enc.stabilized is None:
        return 0
    moment, value = enc.stabilized
    return (moment * value).bit_length() + 2


def membership_profile(enc: SpeciesEncoding, n_max: int,
                       prec: Precision) -> dict[int, MembershipStatus]:
    """quotient_status for every candidate 0..n_max."""
    return {n: quotient_status(enc, n, prec) for n in range(n_max + 1)}

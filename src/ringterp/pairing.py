"""Cantor pairing on the naturals.

The diagonal enumeration pair(p, k) = (p+k)(p+k+1)/2 + k is a bijection
between pairs of naturals and naturals.  It is used to flatten a
two-argument membership sequence alpha(p, k) into a one-argument 0/1
sequence: stage p comes first, candidate value k second.
"""

from __future__ import annotations

from math import isqrt


def parse_natural(text: str) -> int:
    """A natural number written in ASCII digits, as structure files and
    simulator specs write them; int() alone would also read other
    Unicode digits, signs, spaces and underscores."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"expected digits 0-9, got {text!r}")
    return int(text)


def pair(p: int, k: int) -> int:
    """Diagonal code of (p, k); pair(0, 0) = 0, pair(1, 2) = 8."""
    if p < 0 or k < 0:
        raise ValueError(f"pair needs nonnegative arguments, got ({p}, {k})")
    s = p + k
    return s * (s + 1) // 2 + k


def unpair(z: int) -> tuple[int, int]:
    """Inverse of pair: unpair(pair(p, k)) == (p, k)."""
    if z < 0:
        raise ValueError(f"unpair needs a nonnegative argument, got {z}")
    s = (isqrt(8 * z + 1) - 1) // 2
    k = z - s * (s + 1) // 2
    return s - k, k


# Bound on the bit length of the value of a source term.  Source terms
# are computed exactly and each level of pairing doubles the length, so
# a formula of a few hundred bytes could otherwise spell a number of
# millions of bits.
MAX_TERM_BITS = 4096


def bounded_op(op: str, a: int, b: int) -> int:
    """a * b for op "*" and pair(a, b) for op "pair"; raises
    OverflowError, before computing, when the result could have more
    than MAX_TERM_BITS bits."""
    if op == "*":
        bits = a.bit_length() + b.bit_length()
    else:
        bits = 2 * (a + b + 1).bit_length()
    if bits > MAX_TERM_BITS:
        raise OverflowError(
            f"({op} a b) of {a.bit_length()} and {b.bit_length()} bits "
            f"could exceed the {MAX_TERM_BITS}-bit bound on term values"
        )
    return a * b if op == "*" else pair(a, b)

"""The frozen classes against the frozen dataclasses they replaced.

Each reference class below is the package's class as it was declared
with @dataclass(frozen=True), validation included, under the same name.
Built from the same fields, an instance of either must print, compare
and hash alike, reject the same fields with the same ValueError, and
refuse assignment and deletion with an AttributeError.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import import_module
from types import SimpleNamespace
from typing import Optional

import pytest

from ringterp import kripke, reals
from ringterp.frozen import Frozen, frozen
from ringterp.kripke import ConjunctStatus, ScheduleKind, _check_stream_size
from ringterp.reals import from_nat, from_unit_fraction
from ringterp.translate import Expansion, Orientation


@dataclass(frozen=True)
class FreeVars:
    nat: frozenset[str]
    species: frozenset[int]
    real: frozenset[str]


@dataclass(frozen=True)
class TranslationConfig:
    expansion: Expansion = Expansion.MACRO
    orientation: Orientation = Orientation.AS_WRITTEN


@dataclass(frozen=True)
class Precision:
    k: int = 24
    horizon: int = 96

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("precision k must be at least 1")
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")


@dataclass(frozen=True)
class SpeciesEncoding:
    u: reals.RealGen
    v: reals.RealGen
    stabilized: Optional[tuple[int, int]]


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ChoiceSeq:
    prefix: bytes
    default: bytes

    def __post_init__(self) -> None:
        if not self.default:
            raise ValueError("default pattern must be nonempty")
        _check_stream_size(len(self.prefix) + len(self.default), "the stream")
        try:
            prefix, default = bytes(self.prefix), bytes(self.default)
            ok = not (prefix.translate(None, b"\x00\x01")
                      or default.translate(None, b"\x00\x01"))
        except (TypeError, ValueError):  # an entry is not even a byte
            ok = False
        if not ok:
            bit = next(b for b in (*self.prefix, *self.default)
                       if not (isinstance(b, int) and b in (0, 1)))
            raise ValueError(f"stream bits must be 0 or 1, got {bit!r}")
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "default", default)


@dataclass(frozen=True)
class Schedule:
    kind: ScheduleKind
    moment: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind is ScheduleKind.NEVER:
            if self.moment is not None:
                raise ValueError("a never schedule has no moment")
        else:
            if self.moment is None or self.moment < 0:
                raise ValueError("proof moments are nonnegative integers")


@dataclass(frozen=True)
class Draw:
    moment: int
    candidate: int
    witnessed: bool


@dataclass(frozen=True)
class RunResult:
    alpha: ChoiceSeq
    schedule: Schedule
    horizon: int
    seed: int
    beta: tuple[int, ...]
    draws: tuple[Draw, ...]
    stabilized: Optional[tuple[int, int]]


@dataclass(frozen=True)
class ConjunctReport:
    c1: ConjunctStatus
    c2: ConjunctStatus
    c3: ConjunctStatus
    c4: ConjunctStatus
    c5: ConjunctStatus


REFERENCE = SimpleNamespace(**{cls.__name__: cls for cls in (
    FreeVars, TranslationConfig, Precision, SpeciesEncoding, CriterionResult,
    ChoiceSeq, Schedule, Draw, RunResult, ConjunctReport)})
PACKAGE = SimpleNamespace(**{
    name: getattr(import_module(f"ringterp.{module}"), name)
    for module, name in (
        ("syntax", "FreeVars"), ("translate", "TranslationConfig"),
        ("reals", "Precision"), ("encoder", "SpeciesEncoding"),
        ("selftest", "CriterionResult"), ("kripke", "ChoiceSeq"),
        ("kripke", "Schedule"), ("kripke", "Draw"), ("kripke", "RunResult"),
        ("kripke", "ConjunctReport"))})

# Shared by both sides: generators hash and compare by identity.
U, V = from_unit_fraction(3), from_nat(2)
HOLDS, VIOLATED = ConjunctStatus.HOLDS, ConjunctStatus.VIOLATED


def samples(c: SimpleNamespace) -> list:
    """Instances of every class, built from the classes in c; equal
    fields at equal positions on both sides, and some pairs equal."""
    alpha = c.ChoiceSeq([0, 1, True], b"\x00")
    phi = c.Schedule(ScheduleKind.PHI_PROVED, 2)
    draws = (c.Draw(2, 1, False), c.Draw(3, 2, True))
    return [
        c.FreeVars(frozenset({"x"}), frozenset(), frozenset({"y", "u"})),
        c.FreeVars(frozenset({"x"}), frozenset(), frozenset({"u", "y"})),
        c.TranslationConfig(),
        c.TranslationConfig(orientation=Orientation.QUOTIENT_NORMALIZED),
        c.TranslationConfig(Expansion.FULL, Orientation.AS_WRITTEN),
        c.Precision(), c.Precision(24, 96), c.Precision(k=6, horizon=8),
        c.Precision(horizon=8),
        c.SpeciesEncoding(U, V, (2, 3)), c.SpeciesEncoding(U, V, None),
        c.SpeciesEncoding(V, U, None),
        c.CriterionResult(1, "translation goldens", True, "6/6"),
        c.CriterionResult(1, "translation goldens", False, "6/6"),
        alpha, c.ChoiceSeq(b"\x00\x01\x01", [0]), c.ChoiceSeq(b"", b"\x01"),
        phi, c.Schedule(ScheduleKind.NEVER),
        c.Schedule(ScheduleKind.NEVER, None),
        c.Schedule(ScheduleKind.NOT_PHI_PROVED, 2), *draws,
        c.RunResult(alpha, phi, 3, 7, (0, 0, 0, 2), draws, (3, 2)),
        c.RunResult(alpha, phi, 3, 8, (0, 0, 0, 2), draws, (3, 2)),
        c.ConjunctReport(HOLDS, HOLDS, HOLDS, HOLDS, VIOLATED),
        c.ConjunctReport(VIOLATED, HOLDS, HOLDS, HOLDS, HOLDS),
    ]


NEW, OLD = samples(PACKAGE), samples(REFERENCE)


def test_the_samples_cover_every_class():
    assert {type(x).__name__ for x in NEW} == set(vars(PACKAGE))
    assert all(issubclass(cls, Frozen) for cls in vars(PACKAGE).values())


@pytest.mark.parametrize("new, old", zip(NEW, OLD),
                         ids=[type(x).__name__ for x in NEW])
def test_repr_and_hash_are_the_dataclass_ones(new, old):
    assert type(new).__name__ == type(old).__name__
    assert repr(new) == repr(old)
    assert hash(new) == hash(old)


def test_equality_is_the_dataclass_one():
    for i, (new, old) in enumerate(zip(NEW, OLD)):
        for other_new, other_old in zip(NEW, OLD):
            assert (new == other_new) == (old == other_old)
            assert (new != other_new) == (old != other_old)
        assert new != old and old != new
        # Unlike a named tuple, no record equals the tuple of its fields.
        fields = tuple(getattr(new, name) for name in type(new).__slots__
                       if name != "__dict__")
        assert new != fields and fields != new, i


@pytest.mark.parametrize("new", NEW, ids=[type(x).__name__ for x in NEW])
def test_fields_are_frozen(new):
    name = type(new).__slots__[-1]
    with pytest.raises(AttributeError, match=f"assign to field '{name}'"):
        setattr(new, name, None)
    with pytest.raises(AttributeError, match=f"delete field '{name}'"):
        delattr(new, name)
    with pytest.raises(AttributeError):
        new.unknown = 1


@pytest.mark.parametrize("name, args", [
    ("Precision", (0, 5)), ("Precision", (3, 0)), ("Precision", (-1, -1)),
    ("ChoiceSeq", ([], [])), ("ChoiceSeq", ([2], [0])),
    ("ChoiceSeq", ([0], [1, "1"])), ("ChoiceSeq", (b"", bytes(2**22 + 1))),
    ("Schedule", (ScheduleKind.NEVER, 3)),
    ("Schedule", (ScheduleKind.PHI_PROVED, None)),
    ("Schedule", (ScheduleKind.NOT_PHI_PROVED, -1)),
])
def test_validation_raises_the_same_error(name, args):
    with pytest.raises(ValueError) as old:
        getattr(REFERENCE, name)(*args)
    with pytest.raises(ValueError) as new:
        getattr(PACKAGE, name)(*args)
    assert str(new.value) == str(old.value)


def test_stream_fields_are_stored_as_bytes_and_the_index_is_no_field():
    seq = kripke.ChoiceSeq(bytearray(b"\x00\x00\x01"), [0])
    assert type(seq.prefix) is type(seq.default) is bytes
    assert seq.first_witness(1) == 0  # bit pair(0, 1) = 2
    assert vars(seq) == {"_prefix_witnesses": {1: 0}}
    fresh = kripke.ChoiceSeq(b"\x00\x00\x01", b"\x00")
    assert seq == fresh and hash(seq) == hash(fresh)
    assert repr(seq) == repr(fresh) == (
        "ChoiceSeq(prefix=b'\\x00\\x00\\x01', default=b'\\x00')")


def test_the_decorator_takes_defaults_and_post_init():
    @frozen
    class Span:
        """A closed interval."""
        low: int
        high: int = 10

        def __post_init__(self) -> None:
            if self.low > self.high:
                raise ValueError("empty span")

        @property
        def width(self) -> int:
            return self.high - self.low

    assert Span(3).width == 7 and Span(high=4, low=1) == Span(1, 4)
    assert Span.__doc__ == "A closed interval." and Span.__slots__ == (
        "low", "high")
    with pytest.raises(ValueError, match="empty span"):
        Span(11)
    with pytest.raises(TypeError):
        Span()
    assert not hasattr(Span(1), "__dict__")


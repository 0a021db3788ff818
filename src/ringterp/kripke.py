"""Simulation of a proof-event-driven choice sequence.

The simulator follows the creative-subject picture: a binary evidence
stream alpha codes a species A of naturals (k belongs to A when some
stage p has alpha(pair(p, k)) = 1), and a second sequence beta starts at
zero and may jump, once, to a member of A.  Jumping is allowed only
after an external schedule says the tracked statement has been proved;
from that moment on the subject repeatedly draws a candidate k at
random, checks the evidence available so far (stages p up to the
current moment), and locks beta onto the first candidate that checks
out.  If the schedule never proves the statement, or proves its
negation instead, beta stays zero forever.

The evidence streams used here are eventually periodic (a finite prefix
followed by a repeating pattern), which makes membership and totality
of A genuinely decidable: pair(p, k) modulo the pattern length is
periodic in each argument with period twice the pattern length, so a
finite scan settles the existential.  A stream keeps its prefix and
its pattern as bytes, one 0 or 1 per position, the form in which specs
are read and printed.  Each stream answers membership from a witness
index built once, on first use: one pass over the set bits of the
prefix, found by bytes.find and each unpaired into its (stage,
candidate) pair, gives every candidate witnessed inside the prefix its
least stage; any other candidate is settled by at most 2 * len(default)
stages of the repeating pattern.  A membership query therefore costs
O(len(default)) after an O(len(prefix)) set-up, and a run, its conjunct
check and its trace round trip are linear in the horizon.  On a stream
whose pattern holds no 1 the members are exactly the candidates of the
index, so C4 (below) and totality are decided from it without a query.
Streams spell out at most MAX_STREAM_BITS bits.

check_conjuncts classifies a finished run against the five clauses that
the jump discipline is meant to satisfy, reporting each as holds,
violated, vacuous, or undetermined (the horizon was too short to tell).
Traces serialize a run to text; parsing a trace re-runs the simulation
from the recorded parameters and refuses to accept a trace that does
not match the re-run, so a trace doubles as an integrity check.  A
round trip does each piece of work once.  simulate makes one draw, an
O(len(default)) query, per moment up to stabilization and fills beta's
constant tail in one step.  format_trace prints each draw's line with
an f-string and each stretch of undrawn moments, over which a simulated
beta is constant, with one join.  parse_trace reads the summary from the
five lines that end the trace, checks the line count, re-runs and
formats the run once, and accepts a text that is exactly that trace, or
that trace followed by a manifest block, by one comparison.  Any other
text is normalized line by line and compared against the same re-run,
so the variants it tolerates and the first-differing-line error are
those of a line-by-line parser.  Runs last at most MAX_HORIZON moments.
"""

from __future__ import annotations

import enum
import random
from functools import cached_property
from math import isqrt
from typing import Iterable, Optional

from .frozen import frozen
from .pairing import pair, parse_natural, unpair


class TraceError(ValueError):
    """A run trace is malformed or inconsistent with its own parameters."""


# ---------------------------------------------------------------------------
# Evidence streams

# Bits a stream may spell out, prefix and default pattern together.  A
# members: spec asks for pair(p, k) + 1 prefix bits, which grows with
# the square of k; the limit turns a huge candidate into an error
# instead of an allocation of gigabytes.
MAX_STREAM_BITS = 2**22

_BITS_TO_TEXT = bytes.maketrans(b"\x00\x01", b"01")
# Spec text to bits: "0" and "1" to 0 and 1, any other byte to 2.
_TEXT_TO_BITS = bytes({48: 0, 49: 1}.get(b, 2) for b in range(256))


def _check_stream_size(bits: int, what: str) -> None:
    if bits > MAX_STREAM_BITS:
        raise ValueError(
            f"{what} needs {bits} stream bits, more than the limit of "
            f"{MAX_STREAM_BITS}"
        )


def _least_root(n: int) -> int:
    """Least s >= 0 with s * (s + 1) / 2 >= n."""
    if n <= 0:
        return 0
    s = (isqrt(8 * n + 1) - 1) // 2
    return s if s * (s + 1) // 2 == n else s + 1


@frozen
class ChoiceSeq:
    """Eventually periodic binary stream: prefix bits, then a repeating
    default pattern.

    Both fields are bytes holding one bit, 0 or 1, per position.  The
    constructor also takes any sequence of the ints 0 and 1 (bools
    count) and converts it once.
    """

    __slots__ = ("__dict__",)  # holds the cached witness index
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

    @classmethod
    def zero(cls) -> "ChoiceSeq":
        return cls(b"", b"\x00")

    @classmethod
    def one(cls) -> "ChoiceSeq":
        return cls(b"", b"\x01")

    @classmethod
    def from_members(cls, members: Iterable[tuple[int, int]]) -> "ChoiceSeq":
        """Stream coding a finite species from (candidate, witness stage)
        pairs: alpha(pair(p, k)) = 1 exactly for the listed (k, p)."""
        pairs = list(members)
        seen: set[int] = set()
        positions: list[int] = []
        for k, p in pairs:
            if k < 1:
                raise ValueError(f"candidates must be positive, got {k}")
            if p < 0:
                raise ValueError(f"witness stages are nonnegative, got {p}")
            if k in seen:
                raise ValueError(f"duplicate candidate {k}")
            seen.add(k)
            positions.append(pair(p, k))
        if not positions:
            return cls.zero()
        last = max(positions)
        k, p = pairs[positions.index(last)]
        # The prefix up to the last witness plus the one-bit default.
        _check_stream_size(last + 2, f"candidate {k} at stage {p}")
        prefix = bytearray(last + 1)
        for pos in positions:
            prefix[pos] = 1
        return cls(prefix, b"\x00")

    def at(self, i: int) -> int:
        if i < 0:
            raise ValueError("stream index must be nonnegative")
        if i < len(self.prefix):
            return self.prefix[i]
        return self.default[(i - len(self.prefix)) % len(self.default)]

    @cached_property
    def _prefix_witnesses(self) -> dict[int, int]:
        """Least witnessing stage of every candidate witnessed inside the
        prefix, from one pass over the prefix's set bits.

        Not a field, so equality, hashing and repr ignore it.
        Bits are visited in increasing position, and pair(p, k) grows
        with p, so the first bit seen for k carries its least stage.
        """
        table: dict[int, int] = {}
        i = self.prefix.find(1)
        while i >= 0:
            p, k = unpair(i)
            table.setdefault(k, p)
            i = self.prefix.find(1, i + 1)
        return table

    def first_witness(self, k: int) -> Optional[int]:
        """Least stage p with alpha(pair(p, k)) = 1, or None when k is not
        a member.

        A candidate witnessed inside the prefix is answered from the
        witness index.  Otherwise the first stage p0 whose code
        pair(p0, k) clears the prefix comes in closed form, and past the
        prefix the stream has period L = len(default) while
        pair(p, k) mod L is periodic in p with period 2L, so the 2L
        stages from p0 on decide the existential; a constant pattern
        decides it without a scan.  Cost: O(L) after the index is built,
        which takes one pass over the prefix.
        """
        if k < 0:
            raise ValueError("candidates are nonnegative")
        p = self._prefix_witnesses.get(k)
        if p is not None:
            return p
        if 1 not in self.default:
            return None
        size, period = len(self.prefix), len(self.default)
        # pair(p, k) = s(s+1)/2 + k with s = p + k.
        p0 = max(_least_root(size - k) - k, 0)
        if 0 not in self.default:
            return p0
        for p in range(p0, p0 + 2 * period):
            if self.default[(pair(p, k) - size) % period] == 1:
                return p
        return None

    def is_member(self, k: int) -> bool:
        """Does some stage p witness k, i.e. alpha(pair(p, k)) = 1?

        Decided by first_witness: O(len(default)) per query once the
        witness index is built.
        """
        return self.first_witness(k) is not None

    def has_member_upto(self, top: int) -> bool:
        """Is some candidate in 1..top a member?  Where the pattern holds
        no 1, the members are the witness index's candidates: no scan."""
        if 1 not in self.default:
            return any(1 <= k <= top for k in self._prefix_witnesses)
        return any(self.is_member(k) for k in range(1, top + 1))

    def is_total(self) -> bool:
        """Is every positive candidate a member?

        For k large enough that pair(0, k) clears the prefix, membership
        of k depends only on the repeating pattern and is periodic in k
        with period 2 * len(default); a finite scan decides totality.
        The least such k0 comes in closed form, so the scan makes
        k0 + 2 * len(default) membership queries, with k0 about the
        square root of twice the prefix length.  A pattern holding no 1
        leaves finitely many members, so the answer is no at once.
        """
        if 1 not in self.default:
            return False
        period = 2 * len(self.default)
        # pair(0, k) = (k+1)(k+2)/2 - 1.
        k0 = max(_least_root(len(self.prefix) + 1) - 1, 1)
        return all(self.is_member(k) for k in range(1, k0 + period))

    def canonical_spec(self) -> str:
        prefix, default = (bits.translate(_BITS_TO_TEXT).decode()
                           for bits in (self.prefix, self.default))
        return f"prefix:{prefix};default:{default}"


def _parse_bits(text: str, what: str) -> bytes:
    _check_stream_size(len(text), f"the {what}")
    bits = text.encode("ascii", "replace").translate(_TEXT_TO_BITS)
    if 2 in bits:  # some character is neither 0 nor 1
        raise ValueError(f"{what} must be a string of 0s and 1s, got {text!r}")
    return bits


def parse_alpha_spec(spec: str) -> ChoiceSeq:
    """Evidence stream from its textual form.

    Accepted: "zero", "one", "total", "members:k[@p],..." (witness stage
    p defaults to 0), and the canonical "prefix:<bits>;default:<bits>".
    """
    spec = spec.strip()
    if spec == "zero":
        return ChoiceSeq.zero()
    if spec in ("one", "total"):
        return ChoiceSeq.one()
    if spec.startswith("members:"):
        body = spec[len("members:"):]
        members: list[tuple[int, int]] = []
        for part in body.split(","):
            part = part.strip()
            if not part:
                raise ValueError(f"empty member in {spec!r}")
            k_text, _, p_text = part.partition("@")
            try:
                k = parse_natural(k_text)
                p = parse_natural(p_text) if p_text else 0
            except ValueError:
                raise ValueError(f"bad member {part!r} in {spec!r}") from None
            members.append((k, p))
        return ChoiceSeq.from_members(members)
    if spec.startswith("prefix:"):
        body = spec[len("prefix:"):]
        prefix_text, sep, rest = body.partition(";")
        if not sep or not rest.startswith("default:"):
            raise ValueError(
                f"expected prefix:<bits>;default:<bits>, got {spec!r}"
            )
        default_text = rest[len("default:"):]
        return ChoiceSeq(
            _parse_bits(prefix_text, "prefix"),
            _parse_bits(default_text, "default"),
        )
    raise ValueError(f"unrecognized evidence stream spec {spec!r}")


# ---------------------------------------------------------------------------
# Schedules


class ScheduleKind(enum.Enum):
    NEVER = "never"
    PHI_PROVED = "phi"
    NOT_PHI_PROVED = "notphi"


@frozen
class Schedule:
    """When, if ever, the tracked statement or its negation gets proved."""

    kind: ScheduleKind
    moment: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind is ScheduleKind.NEVER:
            if self.moment is not None:
                raise ValueError("a never schedule has no moment")
        else:
            if self.moment is None or self.moment < 0:
                raise ValueError("proof moments are nonnegative integers")

    @classmethod
    def never(cls) -> "Schedule":
        return cls(ScheduleKind.NEVER)

    @classmethod
    def phi_proved(cls, t: int) -> "Schedule":
        return cls(ScheduleKind.PHI_PROVED, t)

    @classmethod
    def not_phi_proved(cls, t: int) -> "Schedule":
        return cls(ScheduleKind.NOT_PHI_PROVED, t)

    def canonical_spec(self) -> str:
        if self.kind is ScheduleKind.NEVER:
            return "never"
        return f"{self.kind.value}:{self.moment}"


def parse_schedule_spec(spec: str) -> Schedule:
    """Schedule from "never", "phi:<t>" or "notphi:<t>"."""
    spec = spec.strip()
    if spec == "never":
        return Schedule.never()
    head, sep, t_text = spec.partition(":")
    if sep and head in ("phi", "notphi"):
        try:
            t = parse_natural(t_text)
        except ValueError:
            raise ValueError(f"bad proof moment in {spec!r}") from None
        return Schedule(ScheduleKind(head), t)
    raise ValueError(f"unrecognized schedule spec {spec!r}")


# ---------------------------------------------------------------------------
# Simulation

# The largest horizon a run may have.  A run and its trace round trip
# at the limit take about 0.4 s and 70 MiB; a larger horizon is an
# error instead of an allocation that grows with it.
MAX_HORIZON = 100_000


@frozen
class Draw:
    moment: int
    candidate: int
    witnessed: bool


@frozen
class RunResult:
    alpha: ChoiceSeq
    schedule: Schedule
    horizon: int
    seed: int
    beta: tuple[int, ...]
    draws: tuple[Draw, ...]
    stabilized: Optional[tuple[int, int]]

    @property
    def fired(self) -> bool:
        return self.stabilized is not None


def check_horizon(horizon: int) -> int:
    """The horizon, if simulate accepts it: from 1 to MAX_HORIZON."""
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if horizon > MAX_HORIZON:
        raise ValueError(
            f"horizon {horizon} is more than the limit of {MAX_HORIZON}")
    return horizon


def simulate(alpha: ChoiceSeq, schedule: Schedule, horizon: int,
             seed: int) -> RunResult:
    """Run the choice sequence for moments 0 through horizon.

    Before the scheduled proof moment (and on schedules that never prove
    the statement) beta is zero.  From moment max(t, 1) on, one candidate
    k in 1..n is drawn per moment n; the draw succeeds when some stage
    p <= n already witnesses k, and beta then stays at k forever.  Draws
    are deterministic in the seed.
    """
    check_horizon(horizon)
    rng = random.Random(seed)
    beta = [0] * (horizon + 1)
    draws: list[Draw] = []
    stabilized: Optional[tuple[int, int]] = None
    if schedule.kind is ScheduleKind.PHI_PROVED:
        for n in range(max(schedule.moment, 1), horizon + 1):
            k = rng.randint(1, n)
            w = alpha.first_witness(k)
            witnessed = w is not None and w <= n
            draws.append(Draw(n, k, witnessed))
            if witnessed:
                stabilized = (n, k)
                beta[n:] = [k] * (horizon + 1 - n)
                break
    return RunResult(alpha, schedule, horizon, seed, tuple(beta),
                     tuple(draws), stabilized)


def run_total(schedule: Schedule, horizon: int, seed: int) -> RunResult:
    """Run against the full species, ChoiceSeq.one(): every candidate
    is a member, witnessed at every stage, so every draw finds it.

    On a schedule proving the statement at t this stabilizes at exactly
    max(t, 1), the first moment a draw is permitted.
    """
    return simulate(ChoiceSeq.one(), schedule, horizon, seed)


# ---------------------------------------------------------------------------
# Conjunct checking


class ConjunctStatus(enum.Enum):
    HOLDS = "holds"
    VIOLATED = "violated"
    VACUOUS = "vacuous"
    UNDETERMINED = "undetermined"


_SEVERITY = {
    ConjunctStatus.VIOLATED: 3,
    ConjunctStatus.UNDETERMINED: 2,
    ConjunctStatus.HOLDS: 1,
    ConjunctStatus.VACUOUS: 0,
}


@frozen
class ConjunctReport:
    c1: ConjunctStatus
    c2: ConjunctStatus
    c3: ConjunctStatus
    c4: ConjunctStatus
    c5: ConjunctStatus

    @property
    def aggregate(self) -> ConjunctStatus:
        return max((self.c1, self.c2, self.c3, self.c4, self.c5),
                   key=_SEVERITY.__getitem__)

    def as_dict(self) -> dict[str, str]:
        out = {f"C{i}": s.value for i, s in enumerate(
            [self.c1, self.c2, self.c3, self.c4, self.c5], start=1)}
        out["aggregate"] = self.aggregate.value
        return out


def check_conjuncts(run: RunResult) -> ConjunctReport:
    """Classify a finished run against the five clauses of the jump
    discipline.

    C1 (a jump is sound): if beta fired, the statement had been proved
        by the firing moment; a silent run satisfies it vacuously.
    C2 (silence under a total species refutes): if every candidate is a
        member and beta never fired, the statement must be refutable.
        Holds when the schedule proved the negation; with a proof still
        scheduled or never arriving, a bounded run cannot tell.
    C3 (the proof event is not undecided forever): for each candidate it
        is absurd that the statement is neither provable nor refutable.
        Settled schedules settle it; on a never schedule the horizon
        cannot.
    C4 (members get acknowledged): each member of the species is
        eventually drawn and confirmed or the proof event resolves the
        obligation; every member in 1..horizon gets the same verdict.
    C5 (the sequence stabilizes): once beta is nonzero it keeps that
        value ever after.
    """
    kind = run.schedule.kind
    decided = kind is not ScheduleKind.NEVER

    if run.fired:
        moment = run.stabilized[0]
        if kind is ScheduleKind.PHI_PROVED and run.schedule.moment <= moment:
            c1 = ConjunctStatus.HOLDS
        else:
            c1 = ConjunctStatus.VIOLATED
    else:
        c1 = ConjunctStatus.VACUOUS

    if run.fired or not run.alpha.is_total():
        c2 = ConjunctStatus.VACUOUS
    elif kind is ScheduleKind.NOT_PHI_PROVED:
        c2 = ConjunctStatus.HOLDS
    else:
        c2 = ConjunctStatus.UNDETERMINED

    c3 = ConjunctStatus.HOLDS if decided else ConjunctStatus.UNDETERMINED

    if not run.alpha.has_member_upto(run.horizon):
        c4 = ConjunctStatus.VACUOUS
    elif run.fired or decided:
        c4 = ConjunctStatus.HOLDS
    else:
        c4 = ConjunctStatus.UNDETERMINED

    beta = run.beta
    locked = next(filter(None, beta), 0)  # the first nonzero value
    tail = beta[beta.index(locked):] if locked else ()
    c5 = (ConjunctStatus.HOLDS if tail.count(locked) == len(tail)
          else ConjunctStatus.VIOLATED)

    return ConjunctReport(c1, c2, c3, c4, c5)


# ---------------------------------------------------------------------------
# Traces


TRACE_HEADER = "# ringterp run-trace v1"


def format_trace(run: RunResult) -> str:
    """Serialize a run, its conjunct report and its parameters."""
    report = check_conjuncts(run)
    lines = [TRACE_HEADER, "# moments"]
    beta, size = run.beta, len(run.beta)
    draw_at = {d.moment: d for d in run.draws}  # the last draw of a moment
    n = 0  # the first moment not yet printed; size ends the last stretch
    for m in sorted(m for m in draw_at if 0 <= m < size) + [size]:
        if n < m:  # undrawn moments, over which a simulated beta is constant
            part = beta[n:m]
            if part.count(part[0]) == len(part):
                tail = f" {part[0]} - -"
                lines.append(f"{tail}\n".join(map(str, range(n, m))) + tail)
            else:
                lines += [f"{i} {v} - -" for i, v in enumerate(part, n)]
        if m < size:
            d = draw_at[m]
            lines.append(
                f"{m} {beta[m]} {d.candidate} {'yes' if d.witnessed else 'no'}"
            )
        n = m + 1
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


_SUMMARY_KEYS = ("horizon", "seed", "alpha", "schedule", "stabilized")


def _normalize(text: str) -> list[str]:
    lines = list(map(str.rstrip, text.splitlines()))
    if "# manifest" in text:
        for i, line in enumerate(lines):
            if line.startswith("# manifest"):
                lines = lines[:i]
                break
    while lines and not lines[-1]:
        lines.pop()
    return lines


def _run_parameters(summary: dict[str, str]) -> tuple:
    """simulate's arguments from a trace's summary values."""
    try:
        horizon = parse_natural(summary["horizon"])
        seed = parse_natural(summary["seed"])
        alpha = parse_alpha_spec(summary["alpha"])
        schedule = parse_schedule_spec(summary["schedule"])
        if horizon < 1:
            raise ValueError("horizon must be at least 1")
    except ValueError as exc:
        raise TraceError(f"bad summary value: {exc}") from None
    return alpha, schedule, horizon, seed


def _tail_parameters(head: str) -> Optional[tuple]:
    """simulate's arguments when head ends with a # summary line and the
    five summary lines, each ended by a newline, and has as many lines
    as its horizon asks; None otherwise."""
    parts = head.rsplit("\n", 7)
    if len(parts) < 8 or parts[1] != "# summary" or parts[7]:
        return None
    summary = dict(line.partition("=")[::2] for line in parts[2:7])
    if tuple(summary) != _SUMMARY_KEYS:
        return None
    try:
        params = _run_parameters(summary)
    except TraceError:
        return None
    horizon = params[2]
    if horizon > MAX_HORIZON or parts[0].count("\n") + 7 != horizon + 16:
        return None
    return params


def parse_trace(text: str) -> RunResult:
    """Re-run the simulation a trace describes and verify the trace.

    The recorded parameters (alpha, schedule, horizon, seed) fully
    determine the run, so the moment lines and conjunct lines carry no
    extra information; they are compared against the re-run and any
    disagreement raises TraceError.

    A text that is the re-run's trace, alone or followed by a line that
    starts with "# manifest", is accepted by one comparison.  Any other
    text is checked line by line against the same re-run, unless its
    stripped summary gives other parameters.
    """
    head = text[:text.find("\n# manifest") + 1 or len(text)]
    rerun = _tail_parameters(head)
    if rerun is not None:
        run = simulate(*rerun)
        expected = format_trace(run)
        if head == expected:
            return run
    lines = _normalize(text)
    if not lines or lines[0] != TRACE_HEADER:
        raise TraceError(f"missing trace header {TRACE_HEADER!r}")
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
    for key in _SUMMARY_KEYS:
        if key not in summary:
            raise TraceError(f"summary is missing {key!r}")
    params = _run_parameters(summary)
    horizon = params[2]
    # horizon + 1 moments and 15 other lines, checked before the costly re-run.
    if len(lines) != horizon + 16:
        raise TraceError(
            f"trace does not match its own parameters: "
            f"{len(lines)} lines recorded, {horizon + 16} expected"
        )
    if params != rerun:
        run = simulate(*params)
        expected = format_trace(run)
    expected = expected.splitlines()
    if lines != expected:
        got, want = next(p for p in zip(lines, expected) if p[0] != p[1])
        raise TraceError(
            f"trace does not match its own parameters: "
            f"got {got!r}, expected {want!r}"
        )
    return run

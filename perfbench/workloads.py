"""The benchmark's four workloads: seeded inputs, items and output checks.

Each workload builds its inputs in its constructor from the seed alone
(the set-up that ``setup_s`` times) and exposes ``items``, one round.
``run(item)`` performs one item, ``ops`` operations, through ringterp's
public functions, checks every output against an independent
computation or a property the method must have, and returns how many
of its operations failed.  A check that fails is recorded in
``problems``; the run is then reported as incorrect.  The only
operations counted as failed are wrong ``confirmed`` verdicts of the
quotient audit, the known encoder fault (see README.md).
"""

from __future__ import annotations

import hashlib
import itertools
import os
import random
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from typing import Optional

from ringterp import (
    And, Exists, Expansion, Forall, Implies, Language,
    MembershipStatus, Or, Orientation, ScheduleKind, Sort, TranslationConfig,
    adaptive_precision, alpha_equal, check_conjuncts, encode_run,
    eval_formula, format_formula, format_trace, parse_alpha_spec,
    parse_formula, parse_schedule_spec, parse_structure, parse_trace,
    quotient_status, simulate, translate,
)
from ringterp.corpus import collapse_structure, corpus_formulas
from ringterp.kripke import ConjunctStatus

SOURCE, TARGET = Language.SOURCE, Language.TARGET
CONFIRMED = MembershipStatus.CONFIRMED


class Workload:
    name = ""
    tail_pct = 0  # percentile reported as item_tail_ms, see README.md
    ops = 0  # operations per item

    def __init__(self) -> None:
        self.items: list = []
        self.problems: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)

    def run(self, item) -> int:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Corpus formulas, matched by evaluation size


VISIT_CAP = 256


def size(f) -> tuple[bool, int]:
    """Whether f binds a species, and the atom instances an evaluation of
    its translation visits when no connective short-cuts: 4 per nat
    quantifier (the collapse nat domain), 64 per species quantifier
    (pairs of the 8 collapse reals that code it).  A species binder
    makes a structure decide its species family, the dearest step."""
    if isinstance(f, (Exists, Forall)):
        species, visits = size(f.body)
        if f.sort is Sort.NAT:
            return species, 4 * visits
        return True, 64 * visits
    if isinstance(f, (And, Or, Implies)):
        left, right = size(f.left), size(f.right)
        return left[0] or right[0], left[1] + right[1]
    return False, 1


def capped_corpus(rng: random.Random):
    """Corpus formulas from seeds drawn from rng, skipping those that
    visit more than VISIT_CAP atom instances.  About one formula in five
    is skipped; each such formula can cost a hundred typical ones, so a
    few of them would decide the time of a whole round."""
    while True:
        for f in corpus_formulas(40, seed=rng.randrange(2**31)):
            if size(f)[1] <= VISIT_CAP:
                yield f


def matched_formulas(rng: random.Random, count: int) -> list:
    """count corpus formulas drawn from seeded corpora, slot i taking the
    drawn formula whose size is nearest that of slot i of a fixed
    reference list: the same species flag if any is left, then the
    nearest visits.

    The sizes in a round therefore barely depend on the seed, only the
    formulas filling them do, which keeps the cost of a round steady
    from seed to seed.
    """
    reference = capped_corpus(random.Random("reference"))
    slots = [size(next(reference)) for _ in range(count)]
    pool: dict[tuple[bool, int], list] = defaultdict(list)
    for f in itertools.islice(capped_corpus(rng), 3 * count):
        pool[size(f)].append(f)
    out = []
    for species, visits in slots:
        nearest = min(pool, key=lambda got: (got[0] != species,
                                             abs(got[1] - visits), got))
        out.append(pool[nearest].pop())
        if not pool[nearest]:
            del pool[nearest]
    return out


# ---------------------------------------------------------------------------
# collapse


class Collapse(Workload):
    """Corpus formulas over the shared collapse structures (warm path)."""

    name = "collapse"
    tail_pct = 95
    ops = 7  # a source round trip; per orientation a target round trip,
    #          the collapse comparison and the absorption check
    ROUND = 1200

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__()
        rng = random.Random(f"{self.name}:{seed}")
        self.items = matched_formulas(rng, self.ROUND)
        self.sides = [
            (TranslationConfig(Expansion.MACRO, o),
             collapse_structure(o, sentinel_true=False),
             collapse_structure(o, sentinel_true=True))
            for o in Orientation
        ]

    def run(self, f) -> int:
        back = parse_formula(format_formula(f, SOURCE), SOURCE)
        self.check(alpha_equal(back, f), "source print/parse round trip")
        for config, plain, absorbing in self.sides:
            target = translate(f, config=config)
            again = parse_formula(format_formula(target, TARGET), TARGET)
            self.check(alpha_equal(again, target),
                       "target print/parse round trip")
            self.check(eval_formula(f, plain, SOURCE)
                       == eval_formula(target, plain, TARGET),
                       f"collapse ({config.orientation.value})")
            self.check(eval_formula(target, absorbing, TARGET),
                       f"absorption ({config.orientation.value})")
        return 0


# ---------------------------------------------------------------------------
# fresh-structures


FRESH_K = (12, 16, 20, 24)
FRESH_HORIZON = (lambda k: k + 8, lambda k: k + 24, lambda k: 3 * k)
# (largest element, size) of the nat domain, which always holds 3 so the
# corpus numerals stay in the decided range 0..largest.
FRESH_DOMAIN = tuple((top, count) for top in (3, 4, 5)
                     for count in range(1 if top == 3 else 2, top + 2))


def structure_text(rng: random.Random, slot: int) -> tuple[str, dict]:
    """A seeded structure for the given slot, and what it should hold.

    The slot fixes orientation, precision, the domain's size and its
    largest element; the seed picks the rest of the domain and the
    species' values and moments.
    """
    orientation = ("as-written", "quotient-normalized")[slot % 2]
    k = FRESH_K[(slot // 2) % len(FRESH_K)]
    horizon = FRESH_HORIZON[slot % len(FRESH_HORIZON)](k)
    top, count = FRESH_DOMAIN[slot % len(FRESH_DOMAIN)]
    fixed = {3, top}
    rest = [n for n in range(top) if n not in fixed]
    domain = sorted(fixed | set(rng.sample(rest, count - len(fixed))))
    species = {i: (rng.randint(1, 5), rng.randint(1, 4)) for i in (1, 2)}
    lines = ["# ringterp structure v1",
             "nats: " + " ".join(map(str, domain))]
    lines += [f"species: {i} singleton {value} moment {moment}"
              for i, (value, moment) in species.items()]
    lines += [f"orientation: {orientation}",
              f"precision: k={k} horizon={horizon}"]
    expect = {"domain": tuple(domain), "orientation": Orientation(orientation),
              "members": {i: value for i, (value, _) in species.items()}}
    return "\n".join(lines) + "\n", expect


class FreshStructures(Workload):
    """A new structure per item: the per-call work of ``ringterp eval``."""

    name = "fresh-structures"
    tail_pct = 95
    ops = 4  # structure parse, formula parse, collapse, absorption
    ROUND = 384

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__()
        rng = random.Random(f"{self.name}:{seed}")
        formulas = matched_formulas(rng, self.ROUND)
        for slot, f in enumerate(formulas):
            text, expect = structure_text(rng, slot)
            self.items.append((text, expect, format_formula(f, SOURCE), f))

    def run(self, item) -> int:
        text, expect, formula_text, f = item
        plain = parse_structure(text, sentinel_true=False)
        absorbing = parse_structure(text, sentinel_true=True)
        self.check(plain.nat_domain == expect["domain"]
                   and all(plain.const_extension(i) == {value}
                           for i, value in expect["members"].items()),
                   "parsed structure differs from its text")
        g = parse_formula(formula_text, SOURCE)
        self.check(alpha_equal(g, f), "source print/parse round trip")
        config = TranslationConfig(Expansion.MACRO, expect["orientation"])
        target = translate(g, config=config)
        self.check(eval_formula(g, plain, SOURCE)
                   == eval_formula(target, plain, TARGET), "collapse")
        self.check(eval_formula(target, absorbing, TARGET), "absorption")
        return 0


# ---------------------------------------------------------------------------
# simulate


AUDIT_OPS = 26  # candidates 0..20 plus a five-candidate window


def audit_candidates(value: Optional[int]) -> list[int]:
    """Candidates 0..20 and value-2..value+2 (shifted up to start at 0).

    A silent run takes 21..25 for the window, so every audit makes the
    same number of queries whether or not its run fired.
    """
    start = 21 if value is None else max(value - 2, 0)
    return list(range(21)) + list(range(start, start + 5))


def member_spec(rng: random.Random, size: int) -> tuple[str, dict[int, int]]:
    """A small members: stream over candidates 1..5, witness stages 0..3."""
    members = {k: rng.randint(0, 3) for k in rng.sample(range(1, 6), size)}
    spec = "members:" + ",".join(f"{k}@{p}" for k, p in sorted(members.items()))
    return spec, members


def dense_schedule(rng: random.Random, kind: int) -> str:
    """The four ensemble schedule kinds with seeded moments."""
    return (f"phi:{rng.randint(0, 2)}", f"phi:{rng.randint(2, 6)}",
            f"notphi:{rng.randint(1, 6)}", "never")[kind]


BLOCK = {k: 2 for k in range(300, 341)}
SPARSE = (
    # (stream, members or None for total, schedule, horizon, seed).  The
    # seeds are fixed: these inputs do not depend on --seed, so the
    # encoder fault they hit costs the same number of queries per round.
    ("members:999@5", {999: 5}, "phi:1", 1000, 0),
) + tuple(
    ("members:" + ",".join(f"{k}@{p}" for k, p in BLOCK.items()), BLOCK,
     "phi:250", 600, seed)
    for seed in range(4)
)


class Simulate(Workload):
    """Runs through the simulator, trace round trip and quotient audit."""

    name = "simulate"
    tail_pct = 95
    ops = 1 + AUDIT_OPS  # the trace round trip and the audit queries
    DENSE_PER_CELL = 3  # 4 stream classes x 6 schedules per cell
    # The four schedule kinds, the two phi kinds twice: two thirds of
    # the dense runs fire.  A fired run costs about twice a silent one,
    # so with half of them firing the median item sat on the edge
    # between the two groups and jumped from seed to seed.
    SCHEDULES = (0, 1, 0, 1, 2, 3)

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__()
        rng = random.Random(f"{self.name}:{seed}")
        for _ in range(self.DENSE_PER_CELL):
            for size in range(4):  # 0 is the total stream
                for kind in self.SCHEDULES:
                    if size == 0:
                        spec, members = "total", None
                    else:
                        spec, members = member_spec(rng, size)
                    self.items.append((spec, members, dense_schedule(rng, kind),
                                       256, rng.randrange(2**31)))
        self.items.extend(SPARSE)

    def run(self, item) -> int:
        spec, members, schedule_spec, horizon, seed = item
        schedule = parse_schedule_spec(schedule_spec)
        run = simulate(parse_alpha_spec(spec), schedule, horizon, seed)
        report = check_conjuncts(run)
        self.check(report.c1 in (ConjunctStatus.HOLDS, ConjunctStatus.VACUOUS)
                   and report.c5 is ConjunctStatus.HOLDS, "C1 or C5")
        self.check(parse_trace(format_trace(run)) == run, "trace round trip")
        self.check_firing(run, members, schedule)
        return self.audit(run)

    def check_firing(self, run, members, schedule) -> None:
        beta = run.beta
        self.check(len(beta) == run.horizon + 1, "beta length")
        if run.stabilized is None:
            self.check(not any(beta), "silent run moved beta")
            self.check(not (members is None and schedule.kind
                            is ScheduleKind.PHI_PROVED),
                       "total stream under a proof did not fire")
            return
        moment, value = run.stabilized
        start = max(schedule.moment or 0, 1)
        self.check(schedule.kind is ScheduleKind.PHI_PROVED
                   and moment >= start, "fired without a due proof")
        self.check(not any(beta[:moment])
                   and all(b == value for b in beta[moment:]),
                   "beta is not 0 then constant")
        if members is None:
            self.check(moment == start and 1 <= value <= moment,
                       "total stream did not stabilize at max(t, 1)")
        else:
            self.check(value in members and members[value] <= moment,
                       "fired value is not a witnessed member")

    def audit(self, run) -> int:
        """Query the encoding the way ``ringterp encode`` does; return the
        number of wrong confirmations."""
        enc = encode_run(run)
        value = None if run.stabilized is None else run.stabilized[1]
        first, second = adaptive_precision(enc, k=16), adaptive_precision(enc, k=24)
        wrong = 0
        for n in audit_candidates(value):
            status = quotient_status(enc, n, first)
            if status is MembershipStatus.UNDETERMINED:
                status = quotient_status(enc, n, second)
            member = value is None or n == value
            if status is CONFIRMED and not member:
                wrong += 1
            else:
                self.check((status is CONFIRMED) == member,
                           f"audit of {n} against {run.stabilized}: "
                           f"{status.value}")
        return wrong


# ---------------------------------------------------------------------------
# cli


MANIFEST = "# manifest v1\n"


def manifest_inputs(text: str) -> dict[str, str]:
    """Digests recorded in an output's manifest block."""
    _, _, manifest = text.partition(MANIFEST)
    out = {}
    for line in manifest.splitlines():
        if line.startswith("# input: "):
            name, _, digest = line[len("# input: "):].partition("=sha256:")
            out[name] = digest
    return out


def trace_summaries(text: str) -> list[dict[str, str]]:
    """key=value summary lines of every trace in a simulate output."""
    out = []
    for block in text.split("# summary\n")[1:]:
        fields = {}
        for line in block.splitlines():
            key, sep, value = line.partition("=")
            if not sep or line.startswith("#"):
                break
            fields[key] = value
        out.append(fields)
    return out


def stabilized_of(summary: dict[str, str]) -> Optional[tuple[int, int]]:
    if summary["stabilized"] == "none":
        return None
    moment, value = summary["stabilized"].split(":")
    return int(moment), int(value)


class Cli(Workload):
    """A fixed script of ``python -m ringterp`` calls, one child at a time."""

    name = "cli"
    tail_pct = 75
    ops = 1
    ENSEMBLE = 20

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__()
        rng = random.Random(f"{self.name}:{seed}")
        root = Path(__file__).resolve().parent.parent
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([self.env["PYTHONPATH"]]
                                   if self.env.get("PYTHONPATH") else []))
        self.cwd = root
        self.traced_dir: Optional[Path] = None
        self.children = 0

        formulas = matched_formulas(rng, 4)
        self.items.append(("version", ["--version"], None))
        for (mode, orientation), f in zip(
                [(m, o) for m in Expansion for o in Orientation], formulas):
            expected = translate(f, config=TranslationConfig(mode, orientation))
            self.items.append((
                "translate",
                ["translate", "--mode", mode.value,
                 "--orientation", orientation.value, "--in", "-"],
                (format_formula(f, SOURCE) + "\n", expected)))

        t = rng.randint(1, 8)
        self.run_path = workdir / "run.txt"
        self.items.append(("simulate", [
            "simulate", "--schedule", f"phi:{t}", "--horizon",
            str(rng.randint(16, 64)), "--seed", str(rng.randrange(10**6)),
            "--out", str(self.run_path)], ("single", t)))
        spec, members = member_spec(rng, rng.randint(1, 3))
        t_ensemble = rng.randint(1, 4)
        self.items.append(("simulate", [
            "simulate", "--alpha", spec, "--schedule", f"phi:{t_ensemble}",
            "--horizon", "256", "--seed", str(rng.randrange(10**6)),
            "--seeds", str(self.ENSEMBLE)], ("ensemble", t_ensemble, members)))
        self.items.append(("encode", [
            "encode", "--from-run", str(self.run_path)], None))

        text, expect = structure_text(rng, rng.randrange(24))
        f = matched_formulas(rng, 1)[0]
        target = translate(f, config=TranslationConfig(
            Expansion.MACRO, expect["orientation"]))
        self.structure_path = workdir / "structure.txt"
        self.formula_path = workdir / "formula.txt"
        self.structure_path.write_text(text)
        self.formula_path.write_text(format_formula(target, TARGET) + "\n")
        truth = eval_formula(f, parse_structure(text), SOURCE)
        self.items.append(("eval", [
            "eval", "--structure", str(self.structure_path),
            "--formula", str(self.formula_path)], truth))
        self.items.append(("selftest", ["selftest"], None))
        self.stabilized: Optional[tuple[int, int]] = None

    def command(self, argv: list[str]) -> list[str]:
        """``python -m ringterp``, or its traced equivalent when
        traced_dir is set (the spans of call i go to traced_dir/i.spans)."""
        if self.traced_dir is None:
            return [sys.executable, "-m", "ringterp", *argv]
        self.children += 1
        spans = self.traced_dir / f"{self.children}.spans"
        return [sys.executable, str(Path(__file__).with_name("traced_cli.py")),
                str(spans), *argv]

    def run(self, item) -> int:
        kind, argv, expect = item
        sent = expect[0].encode() if kind == "translate" else b""
        proc = subprocess.run(self.command(argv), input=sent,
                              capture_output=True, cwd=self.cwd, env=self.env,
                              timeout=120)
        if proc.returncode != 0:
            self.problems.append(f"{kind}: exit {proc.returncode}: "
                                 f"{proc.stderr.decode()[-300:]}")
            return 0
        getattr(self, f"check_{kind}")(proc.stdout.decode(), expect)
        return 0

    def check_digests(self, out: str, sent: dict[str, bytes]) -> None:
        want = {name: hashlib.sha256(data).hexdigest()
                for name, data in sent.items()}
        self.check(manifest_inputs(out) == want, "manifest input digests")

    def check_version(self, out: str, expect) -> None:
        self.check(out.startswith("ringterp ") and out.count("\n") == 1,
                   "--version output")

    def check_translate(self, out: str, expect) -> None:
        text, expected = expect
        self.check_digests(out, {"in": text.encode()})
        body = out.partition(MANIFEST)[0]
        self.check(alpha_equal(parse_formula(body, TARGET), expected),
                   "translate output differs from the library translation")

    def check_simulate(self, out: str, expect) -> None:
        if expect[0] == "single":
            t = expect[1]
            out = self.run_path.read_text()
            self.check_digests(out, {})
            summaries = trace_summaries(out)
            self.check(len(summaries) == 1, "single simulate trace count")
            self.stabilized = stabilized_of(summaries[0])
            moment, value = self.stabilized or (None, None)
            self.check(moment == t and 1 <= value <= t,
                       "total stream did not stabilize at max(t, 1)")
            return
        _, t, members = expect
        self.check_digests(out, {})
        summaries = trace_summaries(out)
        self.check(len(summaries) == self.ENSEMBLE, "ensemble trace count")
        for summary in summaries:
            fired = stabilized_of(summary)
            if fired is not None:
                moment, value = fired
                self.check(moment >= t and value in members
                           and members[value] <= moment,
                           "ensemble fired off the member list")

    def check_encode(self, out: str, expect) -> None:
        self.check_digests(out, {"from-run": self.run_path.read_bytes()})
        confirmed = {int(line.split()[0]) for line in out.splitlines()
                     if line.split()[1:2] == ["confirmed"]}
        self.check(self.stabilized is not None
                   and confirmed == {self.stabilized[1]},
                   "encode does not confirm exactly the stabilized value")

    def check_eval(self, out: str, expect) -> None:
        self.check_digests(out, {
            "structure": self.structure_path.read_bytes(),
            "formula": self.formula_path.read_bytes()})
        self.check(out.partition(MANIFEST)[0] == ("true\n" if expect
                                                  else "false\n"),
                   "eval disagrees with source evaluation")

    def check_selftest(self, out: str, expect) -> None:
        self.check("\noverall: pass\n" in out.partition(MANIFEST)[0],
                   "selftest did not pass")


WORKLOADS = {w.name: w for w in (Collapse, FreshStructures, Simulate, Cli)}

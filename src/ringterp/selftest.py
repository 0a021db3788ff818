"""Built-in acceptance checks, runnable as `ringterp selftest`.

Each criterion function returns a CriterionResult; run_all collects all
seven.  The table output contains no timings or other run-varying data,
so repeated selftests are byte-identical (which criterion 7 relies on).
"""

from __future__ import annotations

from functools import cache

from . import goldens
from .corpus import collapse_structure, corpus_formulas
from .encoder import MembershipStatus, encode_stabilized, quotient_status
from .evaluate import eval_formula
from .frozen import frozen
from .kripke import (
    ChoiceSeq, ConjunctStatus, RunResult, Schedule, ScheduleKind,
    check_conjuncts, format_trace, parse_alpha_spec, run_total, simulate,
)
from .manifest import render_manifest
from .reals import (
    Precision, RealGen, add, check_modulus, eq_at, from_nat,
    from_unit_fraction, mul, nat_scalar,
)
from .sexpr import format_formula, parse_formula
from .syntax import In, Language, Sort, SpeciesVar, Var, BOT
from .translate import (
    Expansion, Orientation, TranslationConfig, nat_core_formula,
    nat_predicate, sentinel_formula, translate,
)


@frozen
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str


# ---------------------------------------------------------------------------
# 1. Translation goldens


def check_goldens() -> CriterionResult:
    def show(f):
        return format_formula(f, Language.TARGET)
    membership = In(Var("x", Sort.NAT), SpeciesVar(1))
    normalized = TranslationConfig(orientation=Orientation.QUOTIENT_NORMALIZED)
    cases = [
        (show(sentinel_formula()), goldens.SENTINEL),
        (show(translate(BOT)), goldens.TAU_BOTTOM),
        (show(translate(membership)), goldens.MEMBERSHIP_AS_WRITTEN),
        (show(translate(membership, config=normalized)),
         goldens.MEMBERSHIP_NORMALIZED),
        (show(nat_core_formula()), goldens.NAT_CORE),
        (show(nat_predicate()), goldens.NAT_PREDICATE),
    ]
    hits = sum(1 for got, want in cases if got == want)
    return CriterionResult(
        1, "translation goldens", hits == len(cases),
        f"{hits}/{len(cases)} canonical prints match",
    )


# ---------------------------------------------------------------------------
# 2 and 3. Collapse and absorption oracles


@cache
def _collapse_results(orientation: Orientation) -> tuple[int, int, int]:
    """How many corpus formulas collapse and how many are absorbed, of
    how many, over the collapse structures of orientation."""
    plain = collapse_structure(orientation, sentinel_true=False)
    absorbing = collapse_structure(orientation, sentinel_true=True)
    config = TranslationConfig(Expansion.MACRO, orientation)
    formulas = corpus_formulas()
    agree = absorbed = 0
    for f in formulas:
        translated = translate(f, config=config)
        source_value = eval_formula(f, plain, Language.SOURCE)
        target_value = eval_formula(translated, plain, Language.TARGET)
        if source_value == target_value:
            agree += 1
        if eval_formula(translated, absorbing, Language.TARGET):
            absorbed += 1
    return agree, absorbed, len(formulas)


def _oracle(number: int, name: str, which: int, lead: str) -> CriterionResult:
    """Criterion number, passed when count which of _collapse_results
    (0 collapsed, 1 absorbed) is the whole corpus in every orientation."""
    parts = []
    passed = True
    for orientation in Orientation:
        counts = _collapse_results(orientation)
        parts.append(f"{counts[which]}/{counts[2]} {orientation.value}")
        passed = passed and counts[which] == counts[2]
    return CriterionResult(number, name, passed, lead + ", ".join(parts))


def check_collapse() -> CriterionResult:
    return _oracle(2, "classical collapse", 0,
                   "source and translated evaluations agree: ")


def check_absorption() -> CriterionResult:
    return _oracle(3, "sentinel absorption", 1,
                   "translations evaluate true under a true sentinel: ")


# ---------------------------------------------------------------------------
# 4. Generator identities


def generator_corpus() -> list[RealGen]:
    """Thirty generators exercising every constructor, nested two deep."""
    half = from_unit_fraction(2)
    third = from_unit_fraction(3)
    fifth = from_unit_fraction(5)
    seventh = from_unit_fraction(7)
    tenth = from_unit_fraction(10)
    gens = [from_nat(n) for n in (0, 1, 2, 3, 7)]
    gens += [from_unit_fraction(1), half, third, fifth, seventh, tenth]
    gens += [
        add(half, third),
        add(from_nat(2), fifth),
        add(seventh, seventh),
        add(from_nat(1), from_nat(2)),
        add(tenth, from_nat(0)),
        add(third, tenth),
    ]
    gens += [
        mul(half, third),
        mul(from_nat(2), third),
        mul(fifth, from_nat(3)),
        mul(from_nat(2), from_nat(3)),
        mul(add(half, third), fifth),
        mul(tenth, tenth),
    ]
    gens += [
        nat_scalar(4, third),
        nat_scalar(0, seventh),
        nat_scalar(12, add(half, fifth)),
    ]
    gens += [
        add(mul(half, half), third),
        mul(mul(third, half), from_nat(2)),
        add(add(half, third), seventh),
        nat_scalar(5, mul(half, third)),
    ]
    return gens


def check_generators() -> CriterionResult:
    problems = []
    stages = range(33)
    for n in range(51):
        for m in range(51):
            fn, fm = from_nat(n), from_nat(m)
            total = add(fn, fm)
            product = mul(fn, fm)
            if any(total.at(x) != (n + m) << x for x in stages):
                problems.append(f"add f_{n} f_{m}")
            if any(product.at(x) != (n * m) << x for x in stages):
                problems.append(f"mul f_{n} f_{m}")
    corpus = generator_corpus()
    scalar_prec = Precision(k=16, horizon=64)
    for g in corpus:
        for n in range(21):
            if not eq_at(mul(from_nat(n), g), nat_scalar(n, g), scalar_prec):
                problems.append(f"scalar {n} on {g.name}")
    modulus_prec = Precision(k=20, horizon=64)
    for g in corpus:
        if not check_modulus(g, modulus_prec):
            problems.append(f"modulus of {g.name}")
    detail = (
        f"f_n arithmetic exact through 50, scalar agreement through 20, "
        f"{len(corpus)} generators honor their moduli"
    )
    if problems:
        detail = "failed: " + ", ".join(problems[:5])
    return CriterionResult(4, "generator identities", not problems, detail)


# ---------------------------------------------------------------------------
# 5 and 6. Simulator ensemble and encoder quotients


ENSEMBLE_SCHEDULES = (
    Schedule.phi_proved(1),
    Schedule.phi_proved(2),
    Schedule.not_phi_proved(3),
    Schedule.never(),
)

ENSEMBLE_ALPHAS = (
    "members:1",
    "members:2",
    "members:1,3",
    "members:2,5",
    "members:1,2,3,4,5",
)

ENSEMBLE_SEEDS = tuple(range(100, 125))

ENSEMBLE_HORIZON = 256


@cache
def simulation_ensemble() -> list[RunResult]:
    """All 500 runs of the frozen schedule x alpha x seed grid."""
    alphas = [parse_alpha_spec(spec) for spec in ENSEMBLE_ALPHAS]
    return [simulate(alpha, schedule, ENSEMBLE_HORIZON, seed)
            for schedule in ENSEMBLE_SCHEDULES for alpha in alphas
            for seed in ENSEMBLE_SEEDS]


def check_simulator() -> CriterionResult:
    runs = simulation_ensemble()
    problems = []
    eligible = stabilized_eligible = 0
    for run in runs:
        report = check_conjuncts(run)
        if report.c1 not in (ConjunctStatus.HOLDS, ConjunctStatus.VACUOUS):
            problems.append("C1")
        if report.c5 is not ConjunctStatus.HOLDS:
            problems.append("C5")
        if run.fired and not run.alpha.is_member(run.stabilized[1]):
            problems.append("value outside species")
        proved = run.schedule.kind is ScheduleKind.PHI_PROVED
        if not proved and run.fired:
            problems.append("fired without a proof event")
        if proved:
            eligible += 1
            if run.fired:
                stabilized_eligible += 1
    exact = 0
    total_runs = 0
    for t in range(1, 11):
        for seed in range(200, 210):
            run = run_total(Schedule.phi_proved(t), 64, seed)
            total_runs += 1
            if run.stabilized is not None and run.stabilized[0] == t:
                exact += 1
    rate = stabilized_eligible / eligible if eligible else 0.0
    passed = (not problems) and exact == total_runs and rate >= 0.99
    detail = (
        f"C1/C5 clean on {len(runs)} runs, full-species stabilization "
        f"exact in {exact}/{total_runs}, scheduled-proof stabilization "
        f"rate {stabilized_eligible}/{eligible}"
    )
    if problems:
        detail = "failed: " + ", ".join(sorted(set(problems)))
    return CriterionResult(5, "simulator invariants", passed, detail)


def check_encoder() -> CriterionResult:
    pairs = sorted({
        run.stabilized for run in simulation_ensemble() if run.fired
    })
    bad = []
    for moment, value in pairs:
        confirm_prec = Precision(k=16, horizon=moment + 48)
        exclude_prec = Precision(k=24, horizon=moment + 48)
        enc = encode_stabilized(moment, value)
        if quotient_status(enc, value, confirm_prec) is not \
                MembershipStatus.CONFIRMED:
            bad.append(f"confirm {moment}:{value}")
        for n in range(21):
            if n == value:
                continue
            if quotient_status(enc, n, exclude_prec) is not \
                    MembershipStatus.EXCLUDED:
                bad.append(f"exclude {n} from {moment}:{value}")
    detail = (
        f"{len(pairs)} distinct stabilized encodings confirm their member "
        f"and exclude every other candidate through 20"
    )
    if bad:
        detail = "failed: " + ", ".join(bad[:5])
    return CriterionResult(6, "encoder quotients", not bad, detail)


# ---------------------------------------------------------------------------
# 7. Replay determinism (library level)


def check_replay() -> CriterionResult:
    source_text = "(exists (x Nat) (and (in x (sconst 1)) (not (= x 2))))"
    outputs = []
    for _ in range(2):
        f = parse_formula(source_text, Language.SOURCE)
        printed = format_formula(translate(f), Language.TARGET)
        stamp = render_manifest(
            "ringterp test", "translate",
            {"--mode": "macro", "--orientation": "as-written"},
            {"formula": source_text.encode()},
        )
        outputs.append(printed + "\n" + stamp)
    traces = [
        format_trace(simulate(ChoiceSeq.one(), Schedule.phi_proved(2), 40, 7))
        for _ in range(2)
    ]
    corpora = [[format_formula(f, Language.SOURCE)
                for f in corpus_formulas(count=20)] for _ in range(2)]
    same = all(first == second for first, second in (outputs, traces, corpora))
    return CriterionResult(
        7, "replay determinism", same,
        "translate, simulate, and corpus replays are byte-identical",
    )


def run_all() -> list[CriterionResult]:
    return [
        check_goldens(),
        check_collapse(),
        check_absorption(),
        check_generators(),
        check_simulator(),
        check_encoder(),
        check_replay(),
    ]


def format_table(results) -> str:
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        verdict = "pass" if r.passed else "FAIL"
        lines.append(
            f"criterion {r.number}  {r.name.ljust(width)}  {verdict}  {r.detail}"
        )
    overall = "pass" if all(r.passed for r in results) else "FAIL"
    lines.append(f"overall: {overall}")
    return "\n".join(lines) + "\n"

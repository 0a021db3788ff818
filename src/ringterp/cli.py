"""Command line entry point tying the modules together.

Subcommands: translate, simulate, encode, eval, selftest.  All file
arguments also accept `-` for standard input or output.  Every output
ends with a manifest comment block recording the tool version, the
subcommand, the semantic flag values, and a digest of every input, so
identical invocations on identical inputs are byte-identical.  File
paths are deliberately left out of the manifest; inputs are identified
by role and content digest.

Exit codes: 0 on success, 1 on a domain error (bad input content,
precision insufficiency, inconsistent structure), 2 on a usage error.
"""

from __future__ import annotations

import argparse
import sys
from typing import Mapping, Optional, Sequence

from . import __version__
from .encoder import (
    MembershipStatus, SpeciesEncoding, adaptive_precision, encode_run,
    quotient_status,
)
from .evaluate import (
    EvalError, PrecisionError, StructureError, eval_formula, parse_structure,
)
from .kripke import (
    ChoiceSeq, Schedule, TraceError, format_trace, parse_alpha_spec,
    parse_schedule_spec, parse_trace, simulate,
)
from .manifest import render_manifest
from .reals import InsufficientHorizon, Precision
from .sexpr import ParseError, format_formula, parse_formula
from .selftest import format_table, run_all
from .syntax import Language, SortError
from .translate import (
    ORIENTATION_NAMES, Expansion, TranslationConfig, TranslationError,
    nat_core_formula, nat_predicate, translate,
)

TOOL_NAME = "ringterp"
TOOL = f"{TOOL_NAME} {__version__}"

# OSError covers input files that cannot be read and --out paths that
# cannot be written.
_DOMAIN_ERRORS = (
    ParseError, SortError, TranslationError, TraceError, StructureError,
    EvalError, PrecisionError, InsufficientHorizon, ValueError, OSError,
)


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _finish(args: argparse.Namespace, subcommand: str, body: str,
            flags: Mapping[str, str], inputs: Mapping[str, bytes]) -> int:
    stamp = render_manifest(TOOL, subcommand, flags, inputs)
    _write(args.out, body + stamp)
    return 0


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_translate(args: argparse.Namespace) -> int:
    orientation = ORIENTATION_NAMES[args.orientation]
    flags = {
        "--mode": args.mode,
        "--orientation": orientation.value,
    }
    if args.emit_psi:
        body = format_formula(nat_predicate(), Language.TARGET) + "\n"
        flags["--emit-psi"] = "yes"
        return _finish(args, "translate", body, flags, {})
    if args.emit_phiN:
        body = format_formula(nat_core_formula(), Language.TARGET) + "\n"
        flags["--emit-phiN"] = "yes"
        return _finish(args, "translate", body, flags, {})
    text = _read(getattr(args, "in"))
    formula = parse_formula(text, Language.SOURCE)
    config = TranslationConfig(Expansion(args.mode), orientation)
    out = translate(formula, config=config)
    body = format_formula(out, Language.TARGET) + "\n"
    return _finish(args, "translate", body, flags, {"in": text.encode()})


def _cmd_simulate(args: argparse.Namespace) -> int:
    body = "".join(
        format_trace(simulate(args.alpha, args.schedule, args.horizon, seed))
        for seed in range(args.seed, args.seed + args.seeds)
    )
    flags = {
        "--alpha": args.alpha.canonical_spec(),
        "--schedule": args.schedule.canonical_spec(),
        "--horizon": str(args.horizon),
        "--seed": str(args.seed),
        "--seeds": str(args.seeds),
    }
    return _finish(args, "simulate", body, flags, {})


def _describe_generator(enc: SpeciesEncoding, which: str) -> str:
    if enc.stabilized is None:
        return f"{which}: 0 at every stage"
    moment, value = enc.stabilized
    denom = moment if which == "u" else moment * value
    return (f"{which}: 0 before stage {moment}, "
            f"floor(2^x / {denom}) from stage {moment} on")


def _cmd_encode(args: argparse.Namespace) -> int:
    text = _read(args.from_run)
    run = parse_trace(text)
    enc = encode_run(run)
    confirm_prec = adaptive_precision(enc, k=16)
    escalate_prec = adaptive_precision(enc, k=24)
    lines = ["# ringterp encoding v1", f"kind: {enc.kind}"]
    if enc.stabilized is not None:
        lines.append(f"moment: {enc.stabilized[0]}")
        lines.append(f"value: {enc.stabilized[1]}")
    lines.append(_describe_generator(enc, "u"))
    lines.append(_describe_generator(enc, "v"))
    lines.append("quotient-status:")
    for n in range(21):
        status = quotient_status(enc, n, confirm_prec)
        used = confirm_prec.k
        if status is MembershipStatus.UNDETERMINED:
            status = quotient_status(enc, n, escalate_prec)
            used = escalate_prec.k
        lines.append(f"{n} {status.value} k={used}")
    body = "\n".join(lines) + "\n"
    return _finish(args, "encode", body, {}, {"from-run": text.encode()})


def _cmd_eval(args: argparse.Namespace) -> int:
    structure_text = _read(args.structure)
    formula_text = _read(args.formula)
    structure = parse_structure(structure_text,
                                sentinel_true=args.sentinel == "true")
    language = Language(args.language)
    formula = parse_formula(formula_text, language)
    value = eval_formula(formula, structure, language)
    body = ("true" if value else "false") + "\n"
    flags = {"--sentinel": args.sentinel, "--language": args.language}
    inputs = {
        "structure": structure_text.encode(),
        "formula": formula_text.encode(),
    }
    return _finish(args, "eval", body, flags, inputs)


def _cmd_selftest(args: argparse.Namespace) -> int:
    results = run_all()
    body = format_table(results)
    stamp = render_manifest(TOOL, "selftest", {}, {})
    _write(args.out, body + stamp)
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# Parser


def _alpha(text: str) -> ChoiceSeq:
    return parse_alpha_spec(text)


def _schedule(text: str) -> Schedule:
    return parse_schedule_spec(text)


_alpha.__name__ = "alpha spec"
_schedule.__name__ = "schedule spec"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=TOOL_NAME,
        description=(
            "translate two-sorted arithmetic into ordered-ring formulas, "
            "simulate proof-event choice sequences, encode runs as real "
            "quotients, and evaluate formulas over finite structures"
        ),
    )
    parser.add_argument("--version", action="version", version=TOOL)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("translate", help="translate a source formula")
    p.add_argument("--mode", choices=["macro", "full"], default="macro",
                   help="keep defined quantifiers or expand them")
    p.add_argument("--orientation", choices=sorted(ORIENTATION_NAMES),
                   default="as-written",
                   help="membership atom orientation")
    p.add_argument("--in", default="-", help="formula file or - for stdin")
    p.add_argument("--out", default="-", help="output file or - for stdout")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--emit-psi", action="store_true",
                       help="print the naturals predicate instead")
    group.add_argument("--emit-phiN", action="store_true",
                       help="print its quantifier-free core instead")
    p.set_defaults(func=_cmd_translate)

    p = sub.add_parser("simulate", help="run the choice-sequence simulator")
    p.add_argument("--schedule", type=_schedule, required=True,
                   help="never, phi:<t> or notphi:<t>")
    p.add_argument("--alpha", type=_alpha,
                   default=ChoiceSeq.one(),
                   help="evidence stream spec (default: total)")
    p.add_argument("--horizon", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seeds", type=int, default=1,
                   help="number of consecutive seeds to run")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("encode", help="encode a finished run as a quotient")
    p.add_argument("--from-run", required=True, dest="from_run",
                   help="trace file or - for stdin")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("eval", help="evaluate a formula over a structure")
    p.add_argument("--structure", required=True,
                   help="structure file or - for stdin")
    p.add_argument("--formula", required=True,
                   help="formula file or - for stdin")
    p.add_argument("--sentinel", choices=["true", "false"], default="false",
                   help="how to force atoms mentioning the sentinel")
    p.add_argument("--language", choices=["source", "target"],
                   default="target")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("selftest", help="run the acceptance checks")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _DOMAIN_ERRORS as exc:
        print(f"{TOOL_NAME}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

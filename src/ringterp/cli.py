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
from importlib import import_module
from typing import Callable, Mapping, NoReturn, Optional, Sequence, TypeVar

from . import __version__
from .pairing import parse_natural
from .syntax import Language
from .translate import (
    ORIENTATION_NAMES, Expansion, TranslationConfig, nat_core_formula,
    nat_predicate, translate,
)

T = TypeVar("T")

TOOL_NAME = "ringterp"
TOOL = f"{TOOL_NAME} {__version__}"

# What one simulate call may hold before it writes: each seed's trace
# counts its horizon + 16 lines and the bits its alpha= line spells out.
# One run at kripke.MAX_HORIZON over a stream at kripke.MAX_STREAM_BITS
# fits, and so do 44 seeds at MAX_HORIZON, which take about 9 s, 73 MB
# of output and 230 MiB.  A larger total is a usage error before
# anything runs.
MAX_SIMULATE_SIZE = 4_500_000


def _domain_errors() -> tuple[type[Exception], ...]:
    """The errors main reports in one line, imported only once an
    exception reaches main's except clause.  The other domain errors
    subclass ValueError; OSError covers input files that cannot be read
    and --out paths that cannot be written."""
    from .evaluate import PrecisionError
    from .reals import InsufficientHorizon
    return (PrecisionError, InsufficientHorizon, ValueError, OSError)


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
    from .manifest import render_manifest
    stamp = render_manifest(TOOL, subcommand, flags, inputs)
    _write(args.out, body + stamp)
    return 0


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_translate(args: argparse.Namespace) -> int:
    from .sexpr import format_formula, parse_formula
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
    from .kripke import format_trace, simulate
    alpha = args.alpha
    each = args.horizon + 16 + len(alpha.prefix) + len(alpha.default)
    if args.seeds * each > MAX_SIMULATE_SIZE:
        args.usage_error(
            f"{args.seeds} traces of {each} lines and stream bits each "
            f"hold {args.seeds * each}, more than the limit of "
            f"{MAX_SIMULATE_SIZE}")
    body = "".join(
        format_trace(simulate(alpha, args.schedule, args.horizon, seed))
        for seed in range(args.seed, args.seed + args.seeds)
    )
    flags = {
        "--alpha": alpha.canonical_spec(),
        "--schedule": args.schedule.canonical_spec(),
        "--horizon": str(args.horizon),
        "--seed": str(args.seed),
        "--seeds": str(args.seeds),
    }
    return _finish(args, "simulate", body, flags, {})


def _describe_generator(stabilized: Optional[tuple[int, int]],
                        which: str) -> str:
    if stabilized is None:
        return f"{which}: 0 at every stage"
    moment, value = stabilized
    denom = moment if which == "u" else moment * value
    return (f"{which}: 0 before stage {moment}, "
            f"floor(2^x / {denom}) from stage {moment} on")


def _cmd_encode(args: argparse.Namespace) -> int:
    from .encoder import adaptive_precision, encode_run, membership_profile
    from .kripke import parse_trace
    text = _read(args.from_run)
    run = parse_trace(text)
    enc = encode_run(run)
    prec = adaptive_precision(enc)
    lines = ["# ringterp encoding v1", f"kind: {enc.kind}"]
    if enc.stabilized is not None:
        lines.append(f"moment: {enc.stabilized[0]}")
        lines.append(f"value: {enc.stabilized[1]}")
    lines.append(_describe_generator(enc.stabilized, "u"))
    lines.append(_describe_generator(enc.stabilized, "v"))
    lines.append("quotient-status:")
    for n, status in membership_profile(enc, 20, prec).items():
        lines.append(f"{n} {status.value} k={prec.k}")
    body = "\n".join(lines) + "\n"
    return _finish(args, "encode", body, {}, {"from-run": text.encode()})


def _cmd_eval(args: argparse.Namespace) -> int:
    from .evaluate import eval_formula, parse_structure
    from .sexpr import parse_formula
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
    from .selftest import format_table, run_all
    results = run_all()
    _finish(args, "selftest", format_table(results), {}, {})
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# Parser


def _spec_type(parse: Callable[[str], T]) -> Callable[[str], T]:
    """argparse type from a spec parser: its ValueError becomes the
    usage error, so the exit-2 line states the parser's reason."""

    def convert(text: str) -> T:
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


def _lazy(module: str, name: str) -> Callable[[str], object]:
    """Function name of the package's module, imported on its first call,
    so that building the parser loads no subcommand's modules."""
    return lambda text: getattr(import_module(f"{__package__}.{module}"),
                                name)(text)


def _positive(text: str) -> int:
    if parse_natural(text) == 0:
        raise ValueError(f"expected a number of at least 1, got {text!r}")
    return int(text)


def _horizon(text: str) -> int:
    from .kripke import check_horizon
    return check_horizon(_positive(text))


class _Parser(argparse.ArgumentParser):
    """Usage errors take one stderr line; -h still prints the usage."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.add_argument("--schedule",
                   type=_spec_type(_lazy("kripke", "parse_schedule_spec")),
                   required=True,
                   help="never, phi:<t> or notphi:<t>")
    p.add_argument("--alpha",
                   type=_spec_type(_lazy("kripke", "parse_alpha_spec")),
                   default="total",
                   help="evidence stream spec (default: total)")
    p.add_argument("--horizon", type=_spec_type(_horizon), default=64)
    p.add_argument("--seed", type=_spec_type(parse_natural), default=0)
    p.add_argument("--seeds", type=_spec_type(_positive), default=1,
                   help="number of consecutive seeds to run")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_simulate, usage_error=p.error)

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
    except _domain_errors() as exc:
        print(f"{TOOL_NAME}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

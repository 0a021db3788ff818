"""End-to-end tests of the command line interface."""

import hashlib
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from ringterp import cli
from ringterp.cli import main
from ringterp.evaluate import PrecisionError
from ringterp.goldens import (
    MEMBERSHIP_AS_WRITTEN, MEMBERSHIP_NORMALIZED, NAT_CORE, NAT_PREDICATE,
    SENTINEL,
)
from ringterp.kripke import (
    ChoiceSeq, TraceError, format_trace, parse_schedule_spec, parse_trace,
    simulate,
)
from ringterp.pairing import MAX_TERM_BITS
from ringterp.reals import InsufficientHorizon
from ringterp.sexpr import MAX_NESTING, ParseError


def run_cli(*args: str, stdin: str = "") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "ringterp", *args],
        input=stdin, capture_output=True, text=True, timeout=300,
    )


def body_of(output: str) -> str:
    """Output text with the trailing manifest block removed."""
    lines = output.splitlines()
    for i, line in enumerate(lines):
        if line == "# manifest v1":
            return "\n".join(lines[:i])
    return output.rstrip("\n")


class TestTranslate:
    def test_bottom_becomes_the_sentinel(self):
        proc = run_cli("translate", stdin="(bot)\n")
        assert proc.returncode == 0
        assert body_of(proc.stdout) == SENTINEL

    def test_membership_orientations(self):
        as_written = run_cli("translate", stdin="(in x X1)\n")
        assert body_of(as_written.stdout) == MEMBERSHIP_AS_WRITTEN
        flipped = run_cli("translate", "--orientation", "normalized",
                          stdin="(in x X1)\n")
        assert body_of(flipped.stdout) == MEMBERSHIP_NORMALIZED
        spelled = run_cli("translate", "--orientation", "quotient-normalized",
                          stdin="(in x X1)\n")
        assert body_of(spelled.stdout) == MEMBERSHIP_NORMALIZED

    def test_emit_psi_and_phin(self):
        psi = run_cli("translate", "--emit-psi")
        assert body_of(psi.stdout) == NAT_PREDICATE
        core = run_cli("translate", "--emit-phiN")
        assert body_of(core.stdout) == NAT_CORE

    def test_full_mode_expands_defined_quantifiers(self):
        macro = run_cli("translate", stdin="(exists (n Nat) (= n 0))\n")
        full = run_cli("translate", "--mode", "full",
                       stdin="(exists (n Nat) (= n 0))\n")
        assert body_of(macro.stdout).startswith("(existsN (n)")
        assert body_of(full.stdout).startswith("(exists (n Real)")

    def test_file_arguments(self, tmp_path):
        src = tmp_path / "f.sexp"
        out = tmp_path / "f.out"
        src.write_text("(bot)\n")
        proc = run_cli("translate", "--in", str(src), "--out", str(out))
        assert proc.returncode == 0
        assert proc.stdout == ""
        assert body_of(out.read_text()) == SENTINEL

    def test_unusable_paths_are_domain_errors(self, tmp_path):
        missing = tmp_path / "missing.sexp"
        unwritable = tmp_path / "no-such-dir" / "f.out"
        for args in (("--in", str(missing)), ("--out", str(unwritable))):
            proc = run_cli("translate", *args, stdin="(bot)\n")
            assert proc.returncode == 1
            assert proc.stderr.startswith("ringterp: error: ")
            assert proc.stderr.count("\n") == 1
            assert "Traceback" not in proc.stderr

    def test_malformed_formula_is_a_domain_error(self):
        proc = run_cli("translate", stdin="(frob)\n")
        assert proc.returncode == 1
        assert "error" in proc.stderr

    def test_nesting_limit_is_a_one_line_domain_error(self):
        deep = "(not " * 3000 + "(bot)" + ")" * 3000
        proc = run_cli("translate", stdin=deep + "\n")
        assert proc.returncode == 1
        assert proc.stderr == (f"ringterp: error: line 1, column "
                               f"{5 * MAX_NESTING + 1}: parentheses nest "
                               f"deeper than {MAX_NESTING}\n")

    def test_nesting_limit_holds_for_every_subcommand_reading_formulas(
            self, tmp_path):
        structure = tmp_path / "one.txt"
        structure.write_text("nats: 0\n")
        at_limit = "(not " * (MAX_NESTING - 1) + "(= 0 0)" + ")" * (
            MAX_NESTING - 1)
        over = "(not " + at_limit + ")"
        for text, code in ((at_limit, 0), (over, 1)):
            formula = tmp_path / "formula.sexp"
            formula.write_text(text + "\n")
            runs = [run_cli("translate", "--mode", mode, stdin=text + "\n")
                    for mode in ("macro", "full")]
            runs += [run_cli("eval", "--structure", str(structure),
                             "--formula", str(formula), "--language", language)
                     for language in ("source", "target")]
            for proc in runs:
                assert proc.returncode == code
                assert "Traceback" not in proc.stderr
                assert proc.stderr.count("\n") == code

    def test_emit_flags_are_mutually_exclusive(self):
        proc = run_cli("translate", "--emit-psi", "--emit-phiN")
        assert proc.returncode == 2


class TestSimulate:
    def test_trace_is_parseable_and_seeded(self):
        proc = run_cli("simulate", "--schedule", "phi:3", "--alpha",
                       "members:2,5", "--horizon", "30", "--seed", "7")
        assert proc.returncode == 0
        run = parse_trace(proc.stdout)
        assert run.seed == 7
        assert run.horizon == 30
        again = run_cli("simulate", "--schedule", "phi:3", "--alpha",
                        "members:2,5", "--horizon", "30", "--seed", "7")
        assert again.stdout == proc.stdout

    def test_never_schedule_stays_silent(self):
        proc = run_cli("simulate", "--schedule", "never", "--horizon", "20")
        assert "stabilized=none" in proc.stdout

    def test_seed_ensembles_concatenate_traces(self):
        proc = run_cli("simulate", "--schedule", "phi:1", "--horizon", "10",
                       "--seed", "3", "--seeds", "4")
        assert proc.stdout.count("# ringterp run-trace v1") == 4
        assert proc.stdout.count("# manifest v1") == 1

    def test_bad_schedule_spec_is_a_usage_error(self):
        proc = run_cli("simulate", "--schedule", "sideways")
        assert proc.returncode == 2

    def test_bad_alpha_spec_is_a_usage_error(self):
        proc = run_cli("simulate", "--schedule", "never", "--alpha", "wibble")
        assert proc.returncode == 2
        assert proc.stderr == ("ringterp simulate: error: argument --alpha: "
                               "unrecognized evidence stream spec 'wibble'\n")

    def test_oversized_stream_is_a_one_line_usage_error(self):
        proc = run_cli("simulate", "--schedule", "phi:1",
                       "--alpha", "members:100000000")
        assert proc.returncode == 2
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.startswith(
            "ringterp simulate: error: argument --alpha: candidate 100000000")
        assert "more than the limit of 4194304" in proc.stderr

    @pytest.mark.parametrize("flag, value", [
        ("--horizon", "١_٢"), ("--horizon", "1_2"), ("--horizon", "-1"),
        ("--horizon", " 12"), ("--seed", "-3"), ("--seed", "+7"),
        ("--seed", "٧"), ("--seeds", "+1"), ("--seeds", "-1"),
        ("--seeds", "²"),
    ])
    def test_numbers_are_ascii_digits(self, capsys, flag, value):
        """In process: one usage line naming the flag, exit 2, no trace."""
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--schedule", "phi:2", flag, value])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert err == (f"ringterp simulate: error: argument {flag}: "
                       f"expected digits 0-9, got {value!r}\n")

    @pytest.mark.parametrize("flag", ["--horizon", "--seeds"])
    @pytest.mark.parametrize("value", ["0", "00"])
    def test_zero_horizon_and_seeds_are_usage_errors(self, capsys, flag,
                                                     value):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--schedule", "phi:2", flag, value])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert err == (f"ringterp simulate: error: argument {flag}: "
                       f"expected a number of at least 1, got {value!r}\n")

    def test_ascii_numbers_are_recorded_as_given(self):
        proc = run_cli("simulate", "--schedule", "phi:2", "--seed", "7",
                       "--horizon", "12", "--seeds", "2")
        assert proc.returncode == 0
        for flag in ("--horizon=12", "--seed=7", "--seeds=2"):
            assert f"# flag: {flag}\n" in proc.stdout

    def test_there_is_no_jobs_option(self):
        proc = run_cli("simulate", "--schedule", "phi:2", "--seeds", "2",
                       "--jobs", "2")
        assert proc.returncode == 2


class TestEncode:
    def test_quotient_table_for_a_fired_run(self, tmp_path):
        trace = tmp_path / "run.trace"
        run_cli("simulate", "--schedule", "phi:3", "--alpha", "members:2,5",
                "--horizon", "30", "--seed", "7", "--out", str(trace))
        proc = run_cli("encode", "--from-run", str(trace))
        assert proc.returncode == 0
        body = body_of(proc.stdout)
        assert "kind: singleton" in body
        assert "moment: 3" in body
        assert "value: 2" in body
        assert "2 confirmed" in body
        lines = body.splitlines()
        table = lines[lines.index("quotient-status:") + 1:]
        assert len(table) == 21
        assert sum("confirmed" in line for line in table) == 1

    def test_silent_run_encodes_the_full_species(self):
        trace = run_cli("simulate", "--schedule", "never", "--horizon", "15")
        proc = run_cli("encode", "--from-run", "-", stdin=trace.stdout)
        body = body_of(proc.stdout)
        assert "kind: full" in body
        table = body.splitlines()
        table = table[table.index("quotient-status:") + 1:]
        assert all("confirmed" in line for line in table)

    def test_tampered_trace_is_a_domain_error(self, tmp_path):
        trace = tmp_path / "run.trace"
        run_cli("simulate", "--schedule", "phi:2", "--horizon", "10",
                "--seed", "1", "--out", str(trace))
        trace.write_text(trace.read_text().replace("horizon=10", "horizon=11"))
        proc = run_cli("encode", "--from-run", str(trace))
        assert proc.returncode == 1
        assert "error" in proc.stderr

    def test_trace_claiming_a_huge_horizon_fails_before_simulating(self):
        trace = run_cli("simulate", "--schedule", "phi:2", "--horizon", "3")
        text = trace.stdout.replace("horizon=3", "horizon=1000000000000")
        proc = run_cli("encode", "--from-run", "-", stdin=text)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == (
            "ringterp: error: trace does not match its own parameters: "
            "19 lines recorded, 1000000000016 expected\n")

    @pytest.mark.parametrize("seed, line, bad", [
        (-1, "seed=-1", "-1"),
        (2, "seed=2", "+2"),
        (2, "horizon=5", "+5"),
        (2, "horizon=5", "\u0665"),
    ])
    def test_trace_numbers_are_ascii_naturals(self, tmp_path, capsys, seed,
                                              line, bad):
        # The library simulates any int seed, but its trace is no valid
        # input: simulate --seed refuses the same value.
        run = simulate(ChoiceSeq.one(), parse_schedule_spec("phi:2"), 5, seed)
        key = line.partition("=")[0]
        trace = tmp_path / "run.trace"
        trace.write_text(format_trace(run).replace(line, f"{key}={bad}"))
        assert main(["encode", "--from-run", str(trace)]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", "ringterp: error: bad summary value: "
                              f"expected digits 0-9, got {bad!r}\n")

    def test_trace_claiming_horizon_zero_is_a_domain_error(self, tmp_path,
                                                          capsys):
        # 16 lines fit horizon=0, so the line count lets it through; the
        # summary check refuses it before anything is simulated.
        run = simulate(ChoiceSeq.one(), parse_schedule_spec("phi:2"), 1, 0)
        lines = format_trace(run).splitlines()
        del lines[3]
        assert len(lines) == 16
        text = "\n".join(lines) + "\n"
        trace = tmp_path / "run.trace"
        trace.write_text(text.replace("horizon=1\n", "horizon=0\n"))
        assert main(["encode", "--from-run", str(trace)]) == 1
        assert capsys.readouterr() == ("", "ringterp: error: bad summary "
                                       "value: horizon must be at least 1\n")


STRUCTURE = [
    "nats: 0 1 2 3",
    "species: 1 singleton 2 moment 3",
    "species: 2 full",
    "orientation: as-written",
    "precision: k=16 horizon=96",
    "sentinel: y",
]


def _mutated_structures() -> list:
    """STRUCTURE with one fault each: a repeated line or precision field,
    a precision field without =, a number not in ASCII digits, an empty
    value, or a sentinel other than y."""
    mutants = []

    def mutant(i: int, *lines: str) -> None:
        mutants.append(pytest.param(
            [*STRUCTURE[:i], *lines, *STRUCTURE[i + 1:]], id="|".join(lines)))

    for i, line in enumerate(STRUCTURE):
        key = line.partition(":")[0]
        if key != "species":
            mutant(i, line, line)
        mutant(i, key + ":")
        for number in re.finditer("[0-9]+", line):
            for bad in ("\u0663", "\u00b2", "+3", "1_0"):
                mutant(i, line[:number.start()] + bad + line[number.end():])
    for fields in ("k=16 horizon=96 k=8", "horizon=96 k=16 horizon=9",
                   "k horizon=96", "k=16 horizon"):
        mutant(STRUCTURE.index("precision: k=16 horizon=96"),
               "precision: " + fields)
    for name in ("z", "Y"):
        mutant(STRUCTURE.index("sentinel: y"), "sentinel: " + name)
    return mutants


class TestEval:
    @pytest.fixture()
    def structure_file(self, tmp_path):
        path = tmp_path / "structure.txt"
        path.write_text(
            "nats: 0 1 2 3\n"
            "species: 1 singleton 1 moment 2\n"
            "species: 2 singleton 2 moment 3\n"
        )
        return str(path)

    def write_formula(self, tmp_path, text):
        path = tmp_path / "formula.sexp"
        path.write_text(text + "\n")
        return str(path)

    def test_source_language(self, structure_file, tmp_path):
        formula = self.write_formula(tmp_path, "(in 1 (sconst 1))")
        proc = run_cli("eval", "--structure", structure_file,
                       "--formula", formula, "--language", "source")
        assert proc.returncode == 0
        assert body_of(proc.stdout) == "true"

    def test_target_language_default(self, structure_file, tmp_path):
        formula = self.write_formula(
            tmp_path, "(= (* 1 (rconst a1)) (rconst b1))")
        proc = run_cli("eval", "--structure", structure_file,
                       "--formula", formula)
        assert body_of(proc.stdout) == "true"

    def test_sentinel_flag(self, structure_file, tmp_path):
        formula = self.write_formula(tmp_path, "(or (= y 0) (apart y 0))")
        silent = run_cli("eval", "--structure", structure_file,
                         "--formula", formula, "--sentinel", "false")
        forced = run_cli("eval", "--structure", structure_file,
                         "--formula", formula, "--sentinel", "true")
        assert body_of(silent.stdout) == "false"
        assert body_of(forced.stdout) == "true"

    def test_domain_errors(self, structure_file, tmp_path):
        bad_formula = self.write_formula(tmp_path, "(= x")
        proc = run_cli("eval", "--structure", structure_file,
                       "--formula", bad_formula)
        assert proc.returncode == 1
        bad_structure = tmp_path / "bad.txt"
        bad_structure.write_text("species: 1 full\n")
        formula = self.write_formula(tmp_path, "(bot)")
        proc = run_cli("eval", "--structure", str(bad_structure),
                       "--formula", formula)
        assert proc.returncode == 1

    def test_precision_resolves_the_singleton_gap(self, tmp_path):
        # At the given k=16 the non-member 299 would be witnessed equal
        # to the member 300; the structure's k is raised to 19.
        structure = tmp_path / "wide.txt"
        structure.write_text("nats: 0 299\n"
                             "species: 1 singleton 300 moment 300\n"
                             "precision: k=16 horizon=400\n")
        source = "(in 299 (sconst 1))"
        target = body_of(run_cli("translate", stdin=source + "\n").stdout)
        for language, text in (("source", source), ("target", target)):
            proc = run_cli("eval", "--structure", str(structure),
                           "--formula", self.write_formula(tmp_path, text),
                           "--language", language)
            assert (proc.returncode, proc.stderr) == (0, "")
            assert body_of(proc.stdout) == "false"

    @pytest.mark.parametrize("horizon, code, stderr", [
        # 9 * floor(2^x / 9) falls short of 2^x by up to 8, which lt_at
        # takes for a witness that 9 is no member, against its exact value
        (8, 1, "ringterp: error: membership of 9 in species 0 is witnessed "
               "against its exact value at k=6, horizon=8\n"),
        (9, 1, "ringterp: error: membership of 9 in species 0 is "
               "undetermined at k=6, horizon=9\n"),
        (10, 0, ""),
    ])
    def test_a_misjudged_member_is_a_precision_error(self, tmp_path, capsys,
                                                     horizon, code, stderr):
        structure = tmp_path / "short.txt"
        structure.write_text("nats: 0 9\n"
                             "species: 0 singleton 9 moment 1\n"
                             f"precision: k=1 horizon={horizon}\n")
        assert main(["eval", "--structure", str(structure), "--formula",
                     self.write_formula(tmp_path, "(bot)")]) == code
        out, err = capsys.readouterr()
        assert err == stderr
        assert body_of(out) == ("false" if code == 0 else "")

    def test_a_misjudged_comparison_is_a_precision_error(self, tmp_path,
                                                         capsys):
        # 1/10 and 1/11 agree to 6 digits at every stage 18 .. 36, so
        # eq_at witnesses an equality their exact values refute
        structure = tmp_path / "close.txt"
        structure.write_text("nats: 11\n"
                             "species: 0 singleton 10 moment 1\n"
                             "species: 1 singleton 11 moment 1\n"
                             "precision: k=3 horizon=18\n")
        assert main(["eval", "--structure", str(structure), "--formula",
                     self.write_formula(tmp_path, "(= (rconst a0) (rconst a1))"),
                     "--language", "target"]) == 1
        out, err = capsys.readouterr()
        assert err == ("ringterp: error: comparison of v[m=1,k=10] and "
                       "v[m=1,k=11] witnessed against its exact value at "
                       "k=6, horizon=18\n")
        assert body_of(out) == ""

    def test_term_bound_is_a_one_line_domain_error(self, structure_file,
                                                   tmp_path):
        deep = "(= " + "(pair 1 " * 26 + "0" + ")" * 26 + " 0)"
        message = ("ringterp: error: (pair a b) of 1 and 3511 bits could "
                   f"exceed the {MAX_TERM_BITS}-bit bound on term values\n")
        proc = run_cli("eval", "--structure", structure_file, "--formula",
                       self.write_formula(tmp_path, deep),
                       "--language", "source")
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", message)
        proc = run_cli("translate", stdin=deep + "\n")
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", message)

    @pytest.mark.parametrize("line, message", [
        ("precision: k=8", "missing horizon="),
        ("precision: horizon=20", "missing k="),
        ("precision: x=1", "missing k= and horizon="),
        ("nats: 0 1 \u0663", "expected digits 0-9, got '\u0663'"),
        ("precision: k", "expected field=value, got 'k'"),
        ("precision: k=8 horizon=20 k=30", "field k= listed twice"),
    ])
    def test_structure_line_errors_are_one_line(self, tmp_path, line,
                                                message):
        structure = tmp_path / "bad.txt"
        text = line if line.startswith("nats") else "nats: 0\n" + line
        structure.write_text(text + "\n", encoding="utf-8")
        proc = run_cli("eval", "--structure", str(structure), "--formula",
                       self.write_formula(tmp_path, "(bot)"))
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            1, "", f"ringterp: error: bad structure line {line!r}: "
                   f"{message}\n")

    @pytest.mark.parametrize("lines", _mutated_structures())
    def test_mutated_structures_fail_on_one_line(self, tmp_path, capsys,
                                                 lines):
        """In process, as the command runs it: exit 1, nothing on
        stdout and exactly one line on stderr."""
        structure = tmp_path / "mutant.txt"
        structure.write_text("\n".join(lines) + "\n", encoding="utf-8")
        formula = self.write_formula(tmp_path, "(bot)")
        code = main(["eval", "--structure", str(structure),
                     "--formula", formula])
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err.startswith("ringterp: error: ")
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_sentinel_flag_is_validated(self, structure_file, tmp_path):
        formula = self.write_formula(tmp_path, "(bot)")
        proc = run_cli("eval", "--structure", structure_file,
                       "--formula", formula, "--sentinel", "maybe")
        assert proc.returncode == 2


class TestManifests:
    def test_every_output_carries_a_manifest(self, tmp_path):
        outputs = [
            run_cli("translate", stdin="(bot)\n").stdout,
            run_cli("simulate", "--schedule", "never").stdout,
        ]
        for text in outputs:
            assert "# manifest v1" in text
            assert "# tool: ringterp" in text

    def test_manifest_records_flags_and_input_digests(self):
        proc = run_cli("translate", "--mode", "full", stdin="(bot)\n")
        assert "# flag: --mode=full" in proc.stdout
        assert "# flag: --orientation=as-written" in proc.stdout
        assert "# input: in=sha256:" in proc.stdout

    def test_identical_inputs_give_identical_digests(self):
        a = run_cli("translate", stdin="(bot)\n").stdout
        b = run_cli("translate", stdin="(bot)\n").stdout
        c = run_cli("translate", stdin="(= 0 0)\n").stdout
        assert a == b
        assert a != c


class TestMisc:
    def test_version(self):
        proc = run_cli("--version")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "ringterp 0.1.0"

    def test_missing_subcommand_is_a_usage_error(self):
        proc = run_cli()
        assert proc.returncode == 2

    def test_unknown_flag_is_a_usage_error(self):
        proc = run_cli("translate", "--wibble")
        assert proc.returncode == 2

    def test_console_script_matches_module_invocation(self):
        command = ["ringterp"]
        if shutil.which("ringterp") is None:
            # Not installed: run the entry point pyproject.toml declares
            # the way the generated console-script wrapper does.
            import tomllib

            pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
            with pyproject.open("rb") as handle:
                target = tomllib.load(handle)["project"]["scripts"]["ringterp"]
            module_name, func = target.split(":")
            command = [sys.executable, "-c",
                       f"import sys; from {module_name} import {func}; "
                       f"sys.exit({func}())"]
        script = subprocess.run([*command, "translate"],
                                input="(bot)\n", capture_output=True,
                                text=True, timeout=300)
        module = run_cli("translate", stdin="(bot)\n")
        assert script.returncode == module.returncode == 0
        assert script.stdout == module.stdout


# ---------------------------------------------------------------------------
# The command line surface, pinned byte for byte: help texts at 80
# columns, whole outputs, exit codes and one-line errors.  Building the
# parser and reporting an error import no subcommand's modules, so these
# pin that neither changed what a call prints.

HELP = {
    "": """\
usage: ringterp [-h] [--version] {translate,simulate,encode,eval,selftest} ...

translate two-sorted arithmetic into ordered-ring formulas, simulate proof-
event choice sequences, encode runs as real quotients, and evaluate formulas
over finite structures

positional arguments:
  {translate,simulate,encode,eval,selftest}
    translate           translate a source formula
    simulate            run the choice-sequence simulator
    encode              encode a finished run as a quotient
    eval                evaluate a formula over a structure
    selftest            run the acceptance checks

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
""",
    "translate": """\
usage: ringterp translate [-h] [--mode {macro,full}]
                          [--orientation {as-written,normalized,quotient-normalized}]
                          [--in IN] [--out OUT] [--emit-psi | --emit-phiN]

options:
  -h, --help            show this help message and exit
  --mode {macro,full}   keep defined quantifiers or expand them
  --orientation {as-written,normalized,quotient-normalized}
                        membership atom orientation
  --in IN               formula file or - for stdin
  --out OUT             output file or - for stdout
  --emit-psi            print the naturals predicate instead
  --emit-phiN           print its quantifier-free core instead
""",
    "simulate": """\
usage: ringterp simulate [-h] --schedule SCHEDULE [--alpha ALPHA]
                         [--horizon HORIZON] [--seed SEED] [--seeds SEEDS]
                         [--out OUT]

options:
  -h, --help           show this help message and exit
  --schedule SCHEDULE  never, phi:<t> or notphi:<t>
  --alpha ALPHA        evidence stream spec (default: total)
  --horizon HORIZON
  --seed SEED
  --seeds SEEDS        number of consecutive seeds to run
  --out OUT
""",
    "encode": """\
usage: ringterp encode [-h] --from-run FROM_RUN [--out OUT]

options:
  -h, --help           show this help message and exit
  --from-run FROM_RUN  trace file or - for stdin
  --out OUT
""",
    "eval": """\
usage: ringterp eval [-h] --structure STRUCTURE --formula FORMULA
                     [--sentinel {true,false}] [--language {source,target}]
                     [--out OUT]

options:
  -h, --help            show this help message and exit
  --structure STRUCTURE
                        structure file or - for stdin
  --formula FORMULA     formula file or - for stdin
  --sentinel {true,false}
                        how to force atoms mentioning the sentinel
  --language {source,target}
  --out OUT
""",
    "selftest": """\
usage: ringterp selftest [-h] [--out OUT]

options:
  -h, --help  show this help message and exit
  --out OUT
""",
}


@pytest.mark.parametrize("subcommand", sorted(HELP))
def test_help_texts_are_pinned(monkeypatch, capsys, subcommand):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as stop:
        main([subcommand, "-h"] if subcommand else ["-h"])
    assert stop.value.code == 0
    assert capsys.readouterr() == (HELP[subcommand], "")


@pytest.mark.parametrize("argv, stdin, digest", [
    (["translate", "--mode", "full", "--orientation", "normalized"],
     "(in x X1)\n",
     "653aa22dca8c839ad55c4c216087bb3b44f78769637b5f4ec17b075725c026f5"),
    (["simulate", "--schedule", "phi:3", "--horizon", "8", "--seed", "5"], "",
     "b6f452dae84bdfa42e4f76307845d63dee552c1e3cea61a8577c9c52c680fa29"),
    (["simulate", "--schedule", "never", "--horizon", "2", "--seeds", "2"],
     "", "d40df302f37c74625be8d083155310bff52abcab07aeabc1ccf5fedd80be4381"),
    (["simulate", "--schedule", "never", "--horizon", "2", "--seeds", "2",
      "--alpha", "prefix:;default:1"], "",
     "d40df302f37c74625be8d083155310bff52abcab07aeabc1ccf5fedd80be4381"),
    (["encode", "--from-run", "-"], "run",
     "57a761859dc19d30a796eca7b075e205435ee0c8540b1c0a7479be807571d231"),
    (["eval", "--structure", "-", "--formula", "{formula}", "--language",
      "source"], "nats: 0 1 2 3\nspecies: 1 singleton 1 moment 2\n"
                 "species: 2 singleton 2 moment 3\n",
     "d8bee4a4434b1176f5763a0a5dd7c6515aa6327199fa49e496bcb08a27317a58"),
])
def test_whole_outputs_are_pinned(tmp_path, argv, stdin, digest):
    formula = tmp_path / "formula.sexp"
    formula.write_text("(in 1 (sconst 1))\n")
    if stdin == "run":
        stdin = run_cli("simulate", "--schedule", "phi:3", "--horizon", "8",
                        "--seed", "5").stdout
    proc = run_cli(*(arg.format(formula=formula) for arg in argv),
                   stdin=stdin)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


def test_the_default_stream_is_recorded_in_canonical_form():
    proc = run_cli("simulate", "--schedule", "never", "--horizon", "2")
    assert "# flag: --alpha=prefix:;default:1\n" in proc.stdout


@pytest.mark.parametrize("argv, stdin, code, stderr", [
    (["eval", "--structure", "-", "--formula", "{formula}"],
     "nats: 0 5\nspecies: 0 singleton 5 moment 10\n"
     "precision: k=4 horizon=6\n", 1,
     "ringterp: error: structure precision cannot host a generator: "
     "u[m=10]: hint(0) = 10 exceeds horizon 6\n"),
    (["translate"], "(= x\n", 1,
     "ringterp: error: at end of input: unexpected end of input\n"),
    (["simulate", "--schedule", "bogus"], "", 2,
     "ringterp simulate: error: argument --schedule: unrecognized schedule "
     "spec 'bogus'\n"),
    (["simulate", "--schedule", "never", "--alpha", "members:0"], "", 2,
     "ringterp simulate: error: argument --alpha: candidates must be "
     "positive, got 0\n"),
])
def test_errors_are_pinned(tmp_path, argv, stdin, code, stderr):
    formula = tmp_path / "formula.sexp"
    formula.write_text("(bot)\n")
    proc = run_cli(*(arg.format(formula=formula) for arg in argv),
                   stdin=stdin)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", stderr)


@pytest.mark.parametrize("error", [
    PrecisionError("p"), InsufficientHorizon("h"), ParseError("q"),
    TraceError("t"), OSError("o"), ValueError("v"),
])
def test_every_domain_error_ends_in_one_line(monkeypatch, capsys, error):
    """main's error boundary, whose error classes are imported only once
    an error reaches it."""
    def fail(args):
        raise error
    monkeypatch.setattr(cli, "_cmd_selftest", fail)
    assert main(["selftest"]) == 1
    assert capsys.readouterr() == ("", f"ringterp: error: {error}\n")


def test_other_errors_are_not_caught(monkeypatch):
    def fail(args):
        raise KeyError("k")
    monkeypatch.setattr(cli, "_cmd_selftest", fail)
    with pytest.raises(KeyError):
        main(["selftest"])

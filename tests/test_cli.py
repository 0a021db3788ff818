"""End-to-end tests of the command line interface."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from ringterp.goldens import (
    MEMBERSHIP_AS_WRITTEN, MEMBERSHIP_NORMALIZED, NAT_CORE, NAT_PREDICATE,
    SENTINEL,
)
from ringterp.kripke import parse_trace


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

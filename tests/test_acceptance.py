"""Acceptance gate: the seven criteria the package promises.

Each test prints one pass/fail line (visible in normal pytest output)
and asserts both the verdict and, where one is stated, the time budget.
"""

import subprocess
import sys
import time

from ringterp import __version__
from ringterp.manifest import render_manifest
from ringterp.selftest import (
    CriterionResult, check_absorption, check_collapse, check_encoder,
    check_generators, check_goldens, check_replay, check_simulator,
)


def report(result: CriterionResult, seconds: float, capsys) -> None:
    verdict = "pass" if result.passed else "FAIL"
    with capsys.disabled():
        print(f"\ncriterion {result.number} ({result.name}): {verdict} "
              f"[{seconds:.2f}s] {result.detail}")


def timed(check, capsys):
    start = time.perf_counter()
    result = check()
    elapsed = time.perf_counter() - start
    report(result, elapsed, capsys)
    return result, elapsed


def test_criterion_1_translation_goldens(capsys):
    result, elapsed = timed(check_goldens, capsys)
    assert result.passed, result.detail
    assert elapsed < 1.0


def test_criterion_2_classical_collapse(capsys):
    result, elapsed = timed(check_collapse, capsys)
    assert result.passed, result.detail
    assert elapsed < 30.0


def test_criterion_3_sentinel_absorption(capsys):
    result, _ = timed(check_absorption, capsys)
    assert result.passed, result.detail


def test_criterion_4_generator_identities(capsys):
    result, elapsed = timed(check_generators, capsys)
    assert result.passed, result.detail
    assert elapsed < 60.0


def test_criterion_5_simulator_invariants(capsys):
    result, _ = timed(check_simulator, capsys)
    assert result.passed, result.detail


def test_criterion_6_encoder_quotients(capsys):
    result, _ = timed(check_encoder, capsys)
    assert result.passed, result.detail


def test_criterion_7_replay_determinism(capsys):
    result, _ = timed(check_replay, capsys)
    assert result.passed, result.detail

    def selftest_bytes() -> bytes:
        proc = subprocess.run([sys.executable, "-m", "ringterp", "selftest"],
                              capture_output=True, timeout=300)
        assert proc.returncode == 0, proc.stdout.decode()
        return proc.stdout

    first, second = selftest_bytes(), selftest_bytes()
    assert first == second, "selftest output is not byte-deterministic"

    def translation_bytes() -> bytes:
        proc = subprocess.run(
            [sys.executable, "-m", "ringterp", "translate", "--mode", "full"],
            input=b"(forall (n Nat) (exists (X0 Species) (in n X0)))\n",
            capture_output=True, timeout=300,
        )
        assert proc.returncode == 0
        return proc.stdout

    assert translation_bytes() == translation_bytes()

    stamp = {"tool": f"ringterp {__version__}", "subcommand": "translate"}
    a = render_manifest(stamp["tool"], stamp["subcommand"], {}, {"in": b"x"})
    b = render_manifest(stamp["tool"], stamp["subcommand"], {}, {"in": b"x"})
    assert a == b

"""The demos print exactly what they printed when their output was pinned.

Each pin is the SHA-256 of a demo's standard output.  A change that
alters a demo's output on purpose updates its pin and says why.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ringterp

DEMOS = Path(__file__).resolve().parent.parent / "demos"

PINS = {
    "01_formula_toolkit.py":
        "50ff25d283c82a2a757deddd97d2de7b9f905e0c2745728aedc3d028d31e9fb0",
    "02_dyadic_reals.py":
        "fa4ed1d3af28385009bcd5a537e0b2d361ce3c2b754e2a76cfc49919a5117a95",
    "03_choice_sequence_sim.py":
        "02f727ccd3923b5e2913f54a87874c8b18fad1fbbed255a7af694e0836db7c13",
    "04_species_quotients.py":
        "9cd6bacb582dbc8e29f2306778ecd4b535598235cd727c3f165d64b575cecf9e",
    "05_translation_pipeline.py":
        "9d25bc80373a0f5721e81bcddb02ab8773685663ccafb9b99b091c82f803e461",
}


def test_every_demo_is_pinned():
    assert sorted(PINS) == sorted(p.name for p in DEMOS.glob("*.py"))


@pytest.mark.parametrize("name", sorted(PINS))
def test_demo_output_matches_its_pin(name):
    # The demos import the same ringterp as this test does.
    src = str(Path(ringterp.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": src if not path else src + os.pathsep + path}
    proc = subprocess.run([sys.executable, str(DEMOS / name)], env=env,
                          capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == PINS[name]

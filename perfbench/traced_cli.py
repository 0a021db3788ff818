"""Run one ringterp CLI call with the benchmark's tracer installed.

Usage: python perfbench/traced_cli.py SPANS_OUT ARG...

Equivalent to ``python -m ringterp ARG...`` except that the layer
functions are wrapped as in the benchmark's in-process traced runs and
the spans are written to SPANS_OUT when the call ends.  The cli
workload launches its children through this file in traced runs.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import ringterp.cli  # noqa: E402  (loads every ringterp module)
from spans import Tracer  # noqa: E402


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return ringterp.cli.main(argv)
    except SystemExit as exc:  # argparse ends --version this way
        return exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.uninstall()
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())

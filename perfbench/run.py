"""Layered benchmark for ringterp: end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--seconds S] [--trace 0|1]

The first form runs one workload (collapse, fresh-structures, simulate
or cli).  It builds the workload's inputs from the seed, then runs whole
rounds of the same items in a closed loop with one client until
``--seconds`` have passed, checking every output.  With ``--trace 0``
it reports the end-to-end metrics, timed after one warm-up round and
scaled to the reference host speed of hostspeed.py; with ``--trace 1``
it traces set-up and a fixed number of rounds and reports the
per-layer metrics, plus the tracing overhead against untraced rounds
of the same run.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.

The second form runs every workload, each in its own process, prints
a table of all of them and ends with one JSON object per workload.

The library is imported from ``src`` next to this directory; without it
the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

from hostspeed import NOMINAL_S, Speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_OUT = ROOT / ".perfbench-out"

SETUP_SAMPLES = 7  # set-up is repeated in this many child processes
TRACED_ROUNDS = 2  # rounds the per-layer counts cover, after set-up
NAMES = ("collapse", "fresh-structures", "simulate", "cli")
CLI_KINDS = ("version", "translate", "simulate", "encode", "eval", "selftest")


def declared(kind: str) -> dict[str, str]:
    """Metric names and units as BENCHMARK.json declares them, for kind
    end_to_end or per_layer."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def per_layer_units() -> dict[str, str]:
    """The per-layer metrics a traced run produces, with their units."""
    from spans import COUNTED, COUNTERS, CRITERIA, SPANNED, span_name
    units: dict[str, str] = {}
    for module, attr, _ in SPANNED:
        name = span_name(module, attr)
        if name not in CRITERIA:
            units[f"{name}.calls"] = "count"
            units[f"{name}.self_s"] = "s"
            for counter in COUNTERS.get(name, ()):
                units[f"{name}.{counter}"] = "count"
    for module, attr in COUNTED:
        units[f"{span_name(module, attr)}.calls"] = "count"
    for kind in CLI_KINDS:
        units[f"cli.{kind}.call_ms"] = "ms"
    for number in range(1, len(CRITERIA) + 1):
        units[f"selftest.criterion{number}_s"] = "s"
    units["trace.spans"] = "count"
    units["trace.overhead_pct"] = "%"
    return units


# ---------------------------------------------------------------------------
# Timing loop


class Rounds:
    """Item times and per-round throughputs of whole rounds of a workload.

    Times are scaled to the reference host speed (see hostspeed.py):
    reference slices are taken between items, and each item's time is
    scaled by the slices measured around it."""

    def __init__(self, workload, speed: Speed) -> None:
        self.workload = workload
        self.speed = speed
        self.spans: list[tuple[int, float, float]] = []  # index, start, end
        self.ends: list[int] = []  # len(spans) at the end of each round
        self.skip = 0  # leading rounds left out of times and rates
        self.attempted = 0
        self.failed = 0

    def round(self) -> None:
        wl = self.workload
        clock = time.perf_counter
        for index, item in enumerate(wl.items):
            self.speed.maybe_sample()
            start = clock()
            try:
                failed = wl.run(item)
            except Exception as exc:  # a failing item must not end the run
                wl.problems.append(f"item {index}: {type(exc).__name__}: {exc}")
                failed = 0
            self.spans.append((index, start, clock()))
            self.attempted += wl.ops
            self.failed += failed
        self.ends.append(len(self.spans))
        self.speed.sample()

    def until(self, seconds: float, at_least: int = 1) -> None:
        deadline = time.perf_counter() + seconds
        done = 0
        while done < at_least or time.perf_counter() < deadline:
            self.round()
            done += 1

    def first(self) -> int:
        """Index in spans of the first timed item."""
        return self.ends[self.skip - 1] if self.skip else 0

    @property
    def times(self) -> list[tuple[int, float]]:
        """(item index, seconds at the reference speed) of every timed
        item."""
        scale = self.speed.scale
        return [(index, (end - start) * scale(start, end))
                for index, start, end in self.spans[self.first():]]

    @property
    def rates(self) -> list[float]:
        """Items per second at the reference speed, one per timed round."""
        times = [t for _, t in self.times]
        first = self.first()
        bounds = [first] + self.ends[self.skip:]
        return [(end - begin) / sum(times[begin - first:end - first])
                for begin, end in zip(bounds, bounds[1:])]


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def setup_seconds(name: str, seed: int, speed: Speed) -> list[float]:
    """Process start to first item, in fresh child processes, at the
    reference speed of slices taken before and after each child."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        for _ in range(2):
            speed.sample()
        start = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, str(HERE / "run.py"), "--setup-only",
                 "--workload", name, "--seed", str(seed)],
                cwd=ROOT, stdout=subprocess.PIPE) as child:
            line = child.stdout.readline()
            end = time.perf_counter()
            child.stdout.read()
        if line.strip() != b"ready" or child.returncode != 0:
            raise RuntimeError(f"set-up child failed (exit {child.returncode})")
        for _ in range(2):
            speed.sample()
        samples.append((end - start) * speed.scale(start, end))
    return samples


def end_to_end(name: str, seed: int, seconds: int, workload) -> dict:
    speed = Speed()
    rounds = Rounds(workload, speed)
    start = time.perf_counter()
    rounds.round()  # warm-up: fills memos and file caches; counted, not timed
    rounds.skip = 1
    rounds.until(seconds - (time.perf_counter() - start))
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    peak_mib = resource.getrusage(who).ru_maxrss / 1024
    times = sorted(t for _, t in rounds.times)
    print(f"# {name}: {len(rounds.rates)} timed rounds after 1 warm-up "
          f"round, {len(times)} item samples, "
          f"item_tail_ms is p{workload.tail_pct} with "
          f"{len(times) - math.ceil(workload.tail_pct / 100 * len(times))} "
          f"samples beyond it; {len(speed.seconds)} reference slices, "
          f"median {speed.median_ms():.3f} ms against "
          f"{NOMINAL_S * 1e3:.3f} ms nominal; unscaled item p50 "
          f"{statistics.median(e - s for _, s, e in rounds.spans) * 1e3:.4g} ms",
          file=sys.stderr)
    values = {
        "setup_s": statistics.median(setup_seconds(name, seed, speed)),
        "items_per_s": len(times) / sum(times),
        "item_p50_ms": statistics.median(times) * 1e3,
        "item_tail_ms": percentile(times, workload.tail_pct) * 1e3,
        "peak_rss_mib": peak_mib,
    }
    return result(workload, rounds.attempted, rounds.failed, values,
                  declared("end_to_end"))


def per_layer(name: str, seed: int, seconds: int, workdir: Path) -> dict:
    import workloads
    from spans import CRITERIA, Tracer

    tracer = Tracer()
    if name == "cli":  # the children are traced, the checks are not
        workload = workloads.WORKLOADS[name](seed, workdir)
        workload.traced_dir = workdir / "spans"
        workload.traced_dir.mkdir()
    else:
        tracer.install(also=[workloads])
        workload = workloads.WORKLOADS[name](seed, workdir)
    start = time.perf_counter()
    speed = Speed()
    traced = Rounds(workload, speed)
    for _ in range(TRACED_ROUNDS):
        traced.round()
    tracer.uninstall()
    if name == "cli":
        workload.traced_dir = None
        for path in sorted((workdir / "spans").iterdir()):
            tracer.merge(Tracer.load(path))
    plain = Rounds(workload, speed)
    plain.until(seconds - (time.perf_counter() - start), at_least=2)
    SPANS_OUT.mkdir(exist_ok=True)
    tracer.dump(SPANS_OUT / f"{name}.spans")

    summary = tracer.summary()
    call_ms = defaultdict(list)
    if name == "cli":
        for index, taken in plain.times:
            call_ms[f"cli.{workload.items[index][0]}.call_ms"].append(
                taken * 1e3)
    selftests = summary.get(f"{CRITERIA[0]}.calls", 0)
    criteria = {f"selftest.criterion{number}_s":
                summary.get(f"{check}.total_s", 0) / selftests if selftests else 0
                for number, check in enumerate(CRITERIA, start=1)}
    units = declared("per_layer")
    if units != per_layer_units():
        raise RuntimeError("per-layer metrics in BENCHMARK.json differ from "
                           "those the traced run produces")
    values = {}
    for metric in units:
        if metric.startswith("cli."):
            samples = call_ms.get(metric)
            values[metric] = statistics.median(samples) if samples else 0
        elif metric in criteria:
            values[metric] = criteria[metric]
        else:
            values[metric] = summary.get(metric, 0)
    values["trace.spans"] = len(tracer.start)
    values["trace.overhead_pct"] = 100 * (
        statistics.median(plain.rates) / traced.rates[-1] - 1)
    return result(workload, traced.attempted + plain.attempted,
                  traced.failed + plain.failed, values, units)


def result(workload, attempted: int, failed: int, values: dict,
           units: dict) -> dict:
    for problem in workload.problems[:10]:
        print(f"# check failed: {problem}", file=sys.stderr)
    return {
        "correct": not workload.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": values[metric], "unit": unit}
                    for metric, unit in units.items()},
    }


def show(name: str, res: dict) -> None:
    print(f"{name}: correct={str(res['correct']).lower()} "
          f"attempted={res['attempted']} failed={res['failed']}")
    for metric, entry in res["metrics"].items():
        print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")


# ---------------------------------------------------------------------------
# Entry points


def run_all(args: argparse.Namespace) -> int:
    results = {}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"perfbench: workload {name} exited {proc.returncode}",
                  file=sys.stderr)
            return 1
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    for name, res in results.items():
        show(name, res)
    print(json.dumps(results))
    return 0 if all(res["correct"] for res in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "ringterp" / "__init__.py").is_file():
        print(f"perfbench: no ringterp package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload is None:
        return run_all(args)

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        if args.trace:
            res = per_layer(args.workload, args.seed, args.seconds, workdir)
        else:
            import workloads
            workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
            if args.setup_only:
                print("ready", flush=True)
                return 0
            res = end_to_end(args.workload, args.seed, args.seconds, workload)
    show(args.workload, res)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())

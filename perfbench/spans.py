"""Span tracing for the benchmark's traced runs.

A Tracer wraps ringterp's layer-boundary functions from outside the
package: nothing under src/ringterp changes.  Each wrapped call records
one span (name, parent, start, end) in flat arrays kept in memory; the
arrays are written out once, when the run ends.  The two hottest leaf
functions, RealGen.at and pairing.pair, are called millions of times
per run, so they only count calls and record no span; their time is
part of the caller's self time.

Functions imported by value (``from .reals import eq_at`` inside
evaluate, ``from .pairing import pair`` inside kripke) are replaced in
every ringterp module whose globals hold them, so a call is traced
wherever the name is looked up.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path
from types import ModuleType
from typing import Callable, Iterable, Optional

def _witnessed(name: str) -> Callable:
    def extract(counts: Counter, args: tuple, result: object) -> None:
        if result is True:
            counts[f"{name}.witnessed"] += 1
    return extract


def _length_of_arg(name: str, unit: str) -> Callable:
    def extract(counts: Counter, args: tuple, result: object) -> None:
        counts[f"{name}.{unit}"] += len(args[0])
    return extract


def _length_of_result(name: str, unit: str) -> Callable:
    def extract(counts: Counter, args: tuple, result: object) -> None:
        counts[f"{name}.{unit}"] += len(result)
    return extract


def _draws(counts: Counter, args: tuple, result: object) -> None:
    counts["kripke.simulate.draws"] += len(result.draws)


def _verdict(counts: Counter, args: tuple, result: object) -> None:
    counts[f"encoder.quotient_status.{result.value}"] += 1


# (module, function or Class.method, counter extractor or None).  An
# extractor receives the Counter, the call's arguments and its result,
# and adds the work counts the layer reports next to its time.
SPANNED = (
    ("reals", "eq_at", _witnessed("reals.eq_at")),
    ("reals", "lt_at", _witnessed("reals.lt_at")),
    ("reals", "check_modulus", None),
    ("evaluate", "parse_structure", None),
    ("evaluate", "FiniteStructure.__init__", None),
    ("evaluate", "eval_formula", None),
    ("translate", "translate", None),
    ("sexpr", "parse_formula", _length_of_arg("sexpr.parse_formula", "chars")),
    ("sexpr", "format_formula",
     _length_of_result("sexpr.format_formula", "chars")),
    ("syntax", "alpha_equal", None),
    ("corpus", "corpus_formulas", None),
    ("kripke", "simulate", _draws),
    ("kripke", "check_conjuncts", None),
    ("kripke", "format_trace", _length_of_result("kripke.format_trace", "bytes")),
    ("kripke", "parse_trace", None),
    ("kripke", "ChoiceSeq.is_member", None),
    ("encoder", "quotient_status", _verdict),
    ("selftest", "check_goldens", None),
    ("selftest", "check_collapse", None),
    ("selftest", "check_absorption", None),
    ("selftest", "check_generators", None),
    ("selftest", "check_simulator", None),
    ("selftest", "check_encoder", None),
    ("selftest", "check_replay", None),
)

COUNTED = (
    ("reals", "RealGen.at"),
    ("pairing", "pair"),
)

# The work counts the extractors add, per span name.
COUNTERS = {
    "reals.eq_at": ("witnessed",), "reals.lt_at": ("witnessed",),
    "sexpr.parse_formula": ("chars",), "sexpr.format_formula": ("chars",),
    "kripke.simulate": ("draws",), "kripke.format_trace": ("bytes",),
    "encoder.quotient_status": ("confirmed", "excluded", "undetermined"),
}

# selftest.run_all calls these in this order; criterion n is the n-th.
CRITERIA = tuple(f"selftest.{attr}" for module, attr, _ in SPANNED
                 if module == "selftest")


def span_name(module: str, attr: str) -> str:
    """Metric name of a wrapped function; a constructor is named by its
    class."""
    return f"{module}.{attr.removesuffix('.__init__')}"


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        got = self._name_ids.get(name)
        if got is None:
            got = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return got

    def spanned(self, name: str, fn: Callable,
                extract: Optional[Callable]) -> Callable:
        nid = self._id(name)
        stack, counts = self._stack, self.counts
        name_ids, parents, starts, ends = (self.name_id, self.parent,
                                           self.start, self.end)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if extract is not None:
                extract(counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        counts, key = self.counts, f"{name}.calls"

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing ---------------------------------------------------------

    def install(self, also: Iterable[ModuleType] = ()) -> None:
        """Replace the layer functions in every loaded ringterp module and
        in the modules named in also (the caller's own)."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "ringterp" or name.startswith("ringterp.")]
        modules += also
        for module, attr, extract in SPANNED:
            self._wrap(modules, module, attr,
                       lambda name, fn, extract=extract:
                       self.spanned(name, fn, extract))
        for module, attr in COUNTED:
            self._wrap(modules, module, attr, self.counted)

    def _wrap(self, modules: list[ModuleType], module: str, attr: str,
              make: Callable) -> None:
        owner = sys.modules.get(f"ringterp.{module}")
        if owner is None:  # not loaded here, so never called here
            return
        cls_name, _, method = attr.rpartition(".")
        if cls_name:
            cls = getattr(owner, cls_name)
            self._patch(cls, method,
                        make(span_name(module, attr), getattr(cls, method)))
            return
        original = getattr(owner, attr)
        wrapped = make(span_name(module, attr), original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, wrapped)

    def _patch(self, owner: object, key: str, value: object) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    # -- results ------------------------------------------------------------

    def merge(self, other: "Tracer") -> None:
        """Append another tracer's spans and counts (a child process's)."""
        offset = len(self.start)
        remap = [self._id(name) for name in other.names]
        self.name_id.extend(remap[i] for i in other.name_id)
        self.parent.extend(p + offset if p >= 0 else -1 for p in other.parent)
        self.start.extend(other.start)
        self.end.extend(other.end)
        self.counts.update(other.counts)

    def summary(self) -> dict[str, float]:
        """Per name: span count, self time (duration minus the time its
        child spans cover) and total duration; plus the counters."""
        self_s = [0.0] * len(self.names)
        total_s = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        for nid, parent, start, end in zip(self.name_id, self.parent,
                                           self.start, self.end):
            duration = end - start
            calls[nid] += 1
            self_s[nid] += duration
            total_s[nid] += duration
            if parent >= 0:
                self_s[self.name_id[parent]] -= duration
        out: dict[str, float] = dict(self.counts)
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[nid]
            out[f"{name}.self_s"] = self_s[nid]
            out[f"{name}.total_s"] = total_s[nid]
        return out

    def dump(self, path: Path) -> None:
        """Write the spans: one JSON header line, then the four arrays."""
        header = {"names": self.names, "counts": dict(self.counts),
                  "spans": len(self.start),
                  "arrays": ["name_id:i", "parent:i", "start:d", "end:d"]}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(handle)

    @classmethod
    def load(cls, path: Path) -> "Tracer":
        tracer = cls()
        with open(path, "rb") as handle:
            header = json.loads(handle.readline())
            for name in header["names"]:
                tracer._id(name)
            tracer.counts.update(header["counts"])
            for arr in (tracer.name_id, tracer.parent, tracer.start,
                        tracer.end):
                arr.fromfile(handle, header["spans"])
        return tracer

"""Span tracer for the traced run.

The tracer times calls into folkit's public functions from outside: it
replaces each listed function, in every folkit module namespace that
binds it, with a wrapper that records a span.  The untraced run never
installs it.

* A span has a name, a parent span and a start and end time.  Spans are
  kept in flat arrays in memory and written out at the end of the run.
* A re-entrancy guard lets a function's recursive calls, and calls back
  into it from code it called, run unwrapped, so nothing is counted twice.
* ``enumerate_structures`` returns a generator: the time spent inside each
  ``next()`` on it is a span of its own, and each item yielded is counted.
* A span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from types import ModuleType
from typing import Any, Callable, Iterator

# The functions traced, by layer; layers run syntax -> subst -> proof ->
# semantics -> cli and are the package's modules.
TRACED = {
    "syntax": ("parse_formula", "check_formula", "print_formula"),
    "subst": ("subst_formula", "min_rank", "forall_var"),
    "proof": ("is_axiom", "match_a5", "check_proof", "induction_sentence", "has_params",
              "parse_proof", "parse_theory"),
    "semantics": ("eval_formula", "enumerate_structures", "find_countermodel",
                  "induced_valuation_check"),
    "cli": ("run",),
}
GENERATORS = frozenset({"semantics.enumerate_structures"})
# Calls whose result counts as a hit, for hit ratios.
OUTCOMES: dict[str, Callable[[Any], bool]] = {"proof.is_axiom": lambda tag: tag is not None}


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.calls: list[int] = []
        self.hits: list[int] = []
        self._ids: dict[str, int] = {}
        self._active: list[int] = []
        self.kind = array("l")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patches: list[tuple[ModuleType, str, Any]] = []

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.hits.append(0)
            self._active.append(0)
        return nid

    def open(self, nid: int) -> int:
        sid = len(self.kind)
        self.kind.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(self.clock())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = self.clock()
        self._stack.pop()

    def span(self, name: str) -> "_Span":
        """A context manager recording one span, for the benchmark's own
        boundaries (one per op)."""
        return _Span(self, self.intern(name))

    # -- wrapping -----------------------------------------------------------

    def wrap(self, name: str, fn: Callable) -> Callable:
        nid = self.intern(name)
        active, calls, hits = self._active, self.calls, self.hits
        outcome = OUTCOMES.get(name)

        def traced(*args, **kwargs):
            if active[nid]:
                return fn(*args, **kwargs)
            active[nid] = 1
            calls[nid] += 1
            sid = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
                active[nid] = 0
            if outcome is not None and outcome(result):
                hits[nid] += 1
            return result

        return traced

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        nid = self.intern(name)
        calls, hits = self.calls, self.hits

        def traced(*args, **kwargs) -> Iterator:
            calls[nid] += 1
            inner = fn(*args, **kwargs)
            while True:
                sid = self.open(nid)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self.close(sid)
                hits[nid] += 1
                yield item

        return traced

    def install(self, package: ModuleType) -> None:
        """Wrap every traced function wherever a module of ``package`` binds it."""
        modules = [package] + [sys.modules[f"{package.__name__}.{layer}"] for layer in TRACED]
        for layer, functions in TRACED.items():
            home = sys.modules[f"{package.__name__}.{layer}"]
            for fname in functions:
                original = getattr(home, fname)
                name = f"{layer}.{fname}"
                make = self.wrap_generator if name in GENERATORS else self.wrap
                wrapper = make(name, original)
                for module in modules:
                    if module.__dict__.get(fname) is original:
                        self._patches.append((module, fname, original))
                        setattr(module, fname, wrapper)

    def uninstall(self) -> None:
        for module, fname, original in reversed(self._patches):
            setattr(module, fname, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        child = [0.0] * len(self.kind)
        for sid, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += self.end[sid] - self.start[sid]
        totals = [0.0] * len(self.names)
        for sid, nid in enumerate(self.kind):
            totals[nid] += self.end[sid] - self.start[sid] - child[sid]
        return dict(zip(self.names, totals))

    def write(self, path: str) -> None:
        """Write every span, gzip-compressed, as tab-separated
        ``id parent name start_ns duration_ns``."""
        t0 = self.start[0] if self.start else 0.0
        names, kind, parent, start, end = self.names, self.kind, self.parent, self.start, self.end
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("id\tparent\tname\tstart_ns\tduration_ns\n")
            handle.writelines(
                f"{sid}\t{parent[sid]}\t{names[kind[sid]]}\t"
                f"{round((start[sid] - t0) * 1e9)}\t{round((end[sid] - start[sid]) * 1e9)}\n"
                for sid in range(len(kind)))


class _Span:
    __slots__ = ("tracer", "nid", "sid")

    def __init__(self, tracer: Tracer, nid: int):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self) -> None:
        self.tracer.calls[self.nid] += 1
        self.sid = self.tracer.open(self.nid)

    def __exit__(self, *exc) -> None:
        self.tracer.close(self.sid)

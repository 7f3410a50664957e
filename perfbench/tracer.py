"""In-memory spans around the calls the benchmark makes into twinsep.

A span records a name, its start and end (``time.perf_counter``), the span
open when it started (its parent), the pass it belongs to, and optional
counters.  Spans stay in memory and are written once, when the run ends.

Library functions are traced from outside: ``instrument`` rebinds each
target function, in every module namespace that holds it, to a wrapper
that opens a span.  Calls one twinsep function makes to another through
its module globals (``per_checkpoint_spectra`` -> ``accumulate``) are
therefore traced as child spans, which is what separates a layer's self
time from the time of the layers it calls.  ``uninstrument`` restores the
original bindings, so untraced passes run the unmodified program.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager

# span record fields
ID, PARENT, NAME, PASS, START, END, COUNTERS = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.pass_index = -1

    def open(self, name: str) -> list:
        rec = [
            len(self.spans),
            self._stack[-1] if self._stack else None,
            name,
            self.pass_index,
            time.perf_counter(),
            None,
            None,
        ]
        self.spans.append(rec)
        self._stack.append(rec[ID])
        return rec

    def close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self.open(name)
        try:
            yield rec
        finally:
            self.close(rec)

    def wrap(self, name: str, fn, counters=None):
        """fn wrapped in a span; counters(args, kwargs, result) -> dict of counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(rec)
            if counters is not None:
                rec[COUNTERS] = counters(args, kwargs, result)
            return result

        return traced

    def write(self, path) -> None:
        fields = ["id", "parent", "name", "pass", "start", "end", "counters"]
        with open(path, "w") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh)


def instrument(tracer: Tracer, namespaces, targets) -> list:
    """Rebind every target function found in namespaces to a traced wrapper.

    targets maps span name -> (function, counters or None).  Returns the
    undo list for uninstrument.
    """
    by_id = {id(fn): (fn, name, counters) for name, (fn, counters) in targets.items()}
    wrappers = {}
    undo = []
    for ns in namespaces:
        for attr, value in list(vars(ns).items()):
            hit = by_id.get(id(value))
            if hit is None or hit[0] is not value:
                continue
            fn, name, counters = hit
            if name not in wrappers:
                wrappers[name] = tracer.wrap(name, fn, counters)
            undo.append((ns, attr, value))
            setattr(ns, attr, wrappers[name])
    return undo


def uninstrument(undo: list) -> None:
    for ns, attr, value in reversed(undo):
        setattr(ns, attr, value)


def summarize(spans, pass_index: int) -> dict:
    """Per span name: calls, summed self time and summed counters, for one pass.

    A span's self time is its duration minus the durations of its direct
    children; spans of one pass run on one thread, so children never overlap.
    """
    mine = [s for s in spans if s[PASS] == pass_index]
    child_time = defaultdict(float)
    for s in mine:
        if s[PARENT] is not None:
            child_time[s[PARENT]] += s[END] - s[START]
    out: dict[str, dict] = {}
    for s in mine:
        entry = out.setdefault(s[NAME], {"calls": 0, "self_s": 0.0, "counters": {}})
        entry["calls"] += 1
        entry["self_s"] += (s[END] - s[START]) - child_time[s[ID]]
        for key, value in (s[COUNTERS] or {}).items():
            entry["counters"][key] = entry["counters"].get(key, 0) + value
    return out

"""In-memory span recorder for the traced run, and the arithmetic on spans.

A span is (name, start, end, parent, attrs).  Spans are kept in memory and
written out as JSON lines when the traced process is done (a LOSO pool
worker writes after each fold, as it never sees the command end).  The
recorder is single-threaded: the stack of open spans gives each new span its
parent.  Times come from ``time.monotonic``, which on Linux is one clock for
every process, so spans written by pool workers line up with their parent's.

Tracing wraps the program's public functions from the outside: ``Patches``
replaces an attribute by a wrapper and puts the original back on exit.  No
file of the program is changed.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans = []   # [name, start, end, parent, attrs]
        self._stack = []

    def begin(self, name: str, **attrs) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.monotonic(), None, parent, attrs])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.monotonic()
        while self._stack and self._stack.pop() != index:
            pass

    def wrap(self, fn, name: str, attrs=None):
        """``fn`` recorded as span ``name``; ``attrs(*args, **kwargs)`` adds
        counts (frames, audio seconds) measured where the work happens."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name, **(attrs(*args, **kwargs) if attrs else {}))
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        return traced

    def closed(self):
        """Finished spans as dicts, ``parent`` indexing into this list."""
        keep = [i for i, span in enumerate(self.spans) if span[2] is not None]
        position = {old: new for new, old in enumerate(keep)}
        return [{"name": n, "start": s, "end": e, "parent": position.get(p), "attrs": a}
                for n, s, e, p, a in (self.spans[i] for i in keep)]

    def write(self, path) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.closed():
                fh.write(json.dumps({**span, "pid": os.getpid()}) + "\n")
        self.spans = []
        self._stack = []


class Patches:
    """Context manager: ``add(obj, attr, wrapper_factory)`` swaps
    ``obj.attr`` for ``wrapper_factory(original)``; exit restores it."""

    def __init__(self):
        self._undo = []

    def add(self, obj, attr: str, make):
        own = attr in vars(obj)
        original = getattr(obj, attr)
        self._undo.append((obj, attr, own, vars(obj).get(attr)))
        setattr(obj, attr, make(original))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for obj, attr, own, original in reversed(self._undo):
            if own:
                setattr(obj, attr, original)
            else:
                delattr(obj, attr)
        self._undo = []


def read_spans(directory) -> list:
    """All spans written under ``directory``, one file per process; a span's
    ``parent`` indexes into its own process's spans."""
    spans = []
    for path in sorted(Path(directory).glob("*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                spans.append(json.loads(line))
    return spans


def duration(span) -> float:
    return span["end"] - span["start"]


def covered(intervals) -> float:
    """Length of the union of [start, end) intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans) -> list:
    """Each span's duration minus the part of it its child spans cover.
    ``spans[i]["parent"]`` is an index into ``spans`` or None."""
    children = [[] for _ in spans]
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    out = []
    for span, kids in zip(spans, children):
        clipped = [(max(k["start"], span["start"]), min(k["end"], span["end"])) for k in kids]
        out.append(duration(span) - covered([c for c in clipped if c[1] > c[0]]))
    return out


def busy_below(intervals, window, capacity: int) -> float:
    """Share of ``window`` = (start, end) during which fewer than
    ``capacity`` of ``intervals`` are running."""
    start, end = window
    events = sorted([(max(s, start), 1) for s, e in intervals if e > start and s < end]
                    + [(min(e, end), -1) for s, e in intervals if e > start and s < end])
    running, last, short = 0, start, 0.0
    for t, step in events:
        if running < capacity:
            short += t - last
        running += step
        last = t
    if running < capacity:
        short += end - last
    return short / (end - start)


def mean_ms(spans, name: str) -> float:
    values = [duration(s) for s in spans if s["name"] == name]
    return 1000.0 * statistics.fmean(values)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)

"""In-memory span recorder that wraps the layers' public functions.

Nothing under ``src/`` knows about tracing: :class:`Tracer` replaces
methods at class level (and module-level functions in every loaded
``repro`` module that holds them) with thin wrappers that record one span
per call, and :meth:`Tracer.uninstall` puts the originals back.  Each span
keeps its name, start, end, parent span and thread; parents come from a
per-thread stack, because scheduler rounds run on their own thread.

A span's *self time* is its duration minus the durations of its direct
children.  Children of one span run on the same thread and strictly inside
it, so they never overlap and the subtraction is exact.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple


@dataclass
class Span:
    """One recorded call of a wrapped function."""

    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int
    attrs: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


#: ``attrs(args, kwargs, result) -> dict`` extracts counts for a span.
AttrFn = Callable[[tuple, dict, object], Dict[str, float]]


class Tracer:
    """Record spans around wrapped calls; keep them in memory."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs, attrs: Optional[AttrFn] = None):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            extra = attrs(args, kwargs, result) if attrs is not None else {}
            # list.append is atomic under the interpreter lock, so spans of
            # concurrent threads need no extra locking.
            self.spans.append(
                Span(span_id, name, start, end, parent, threading.get_ident(), extra)
            )

    def wrap(self, name: str, fn, attrs: Optional[AttrFn] = None):
        """A wrapper of ``fn`` recording a ``name`` span per call."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, attrs)

        return wrapper

    # ------------------------------------------------------------------ #
    # installation
    # ------------------------------------------------------------------ #
    def patch_method(self, cls, method: str, name: str, attrs: Optional[AttrFn] = None) -> None:
        """Wrap ``cls.method`` (only where ``cls`` defines it itself)."""
        original = cls.__dict__[method]
        self._patches.append((cls, method, original))
        setattr(cls, method, self.wrap(name, original, attrs))

    def patch_function(
        self, module, function: str, name: str, attrs: Optional[AttrFn] = None
    ) -> None:
        """Wrap a module-level function everywhere it was imported by name."""
        original = getattr(module, function)
        wrapper = self.wrap(name, original, attrs)
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for attribute, value in list(vars(loaded).items()):
                if value is original:
                    self._patches.append((loaded, attribute, original))
                    setattr(loaded, attribute, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------ #
    # output
    # ------------------------------------------------------------------ #
    def write(self, path: str) -> None:
        """Write the spans as JSON lines (one span per line)."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps({
                    "id": span.id, "name": span.name, "start": span.start,
                    "end": span.end, "parent": span.parent,
                    "thread": span.thread, **span.attrs,
                }) + "\n")


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Self time of every span: its duration minus its children's."""
    spans = list(spans)
    child_total: Dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            child_total[span.parent] = child_total.get(span.parent, 0.0) + span.duration
    return {span.id: span.duration - child_total.get(span.id, 0.0) for span in spans}


@dataclass
class LayerTotals:
    """Per-span-name aggregate: calls, self seconds and summed attributes."""

    calls: int = 0
    self_s: float = 0.0
    attrs: Dict[str, float] = field(default_factory=dict)


def layer_totals(spans: Iterable[Span]) -> Dict[str, LayerTotals]:
    """Aggregate spans by name."""
    spans = list(spans)
    selfs = self_times(spans)
    totals: Dict[str, LayerTotals] = {}
    for span in spans:
        entry = totals.setdefault(span.name, LayerTotals())
        entry.calls += 1
        entry.self_s += selfs[span.id]
        for key, value in span.attrs.items():
            entry.attrs[key] = entry.attrs.get(key, 0.0) + value
    return totals


def round_gaps(spans: Iterable[Span], marker: str) -> List[Tuple[float, float]]:
    """``(gap, uncovered)`` per interval between consecutive ``marker`` spans.

    ``gap`` is the time from the end of one marker span to the end of the
    next (one scheduler round); ``uncovered`` is the part of that gap not
    covered by top-level spans of the marker's thread, i.e. the round's
    own bookkeeping time.
    """
    spans = list(spans)
    markers = sorted((s for s in spans if s.name == marker), key=lambda s: s.end)
    roots: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is None:
            roots.setdefault(span.thread, []).append(span)
    # Top-level spans of one thread never overlap, so sorting them by start
    # sorts them by end as well and a bisect finds an interval's spans.
    ends: Dict[int, List[float]] = {}
    for thread, items in roots.items():
        items.sort(key=lambda s: s.start)
        ends[thread] = [s.end for s in items]
    out: List[Tuple[float, float]] = []
    for previous, current in zip(markers, markers[1:]):
        if previous.thread != current.thread:
            continue
        lo, hi = previous.end, current.end
        items = roots.get(current.thread, [])
        covered = 0.0
        index = bisect.bisect_right(ends.get(current.thread, []), lo)
        while index < len(items) and items[index].start < hi:
            span = items[index]
            covered += max(0.0, min(span.end, hi) - max(span.start, lo))
            index += 1
        out.append((hi - lo, max(0.0, hi - lo - covered)))
    return out

"""Outside-in layer tracing: spans recorded by wrappers the benchmark installs.

The program under test is not modified.  :func:`install` replaces each
public function named in :data:`layers.PER_LAYER` *where its caller looks it
up* (for example ``Target.run`` reaches ``execute`` and ``validate`` through
``repro.compilers.pipeline``) with a wrapper that records one span per call:
``(name, start, end, parent)``.  Spans stay in memory and are written out
once, when the traced trial ends.  Self time is a span's duration minus the
part of it its child spans cover.
"""

from __future__ import annotations

import functools
import json
import math
import time
from collections import defaultdict
from pathlib import Path
from typing import Iterable


class SpanRecorder:
    """Spans and counters of one traced trial, kept in memory.

    Recording is off until :attr:`enabled` is set, so wrappers can be
    installed before set-up (some callers bind a function when an object is
    built) while only the timed region is traced.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        #: Objects an after-hook wants to read once the trial ends (for
        #: example every dedup engine that ingested), keyed by ``id``.
        self.seen: dict[int, object] = {}
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(math.nan)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        # A span always closes its own frame; anything above it was left
        # open by an exception that unwound through an unwrapped frame.
        while self._stack and self._stack.pop() != index:
            pass

    def current(self) -> str | None:
        """Name of the innermost open span, if any."""
        return self.names[self._stack[-1]] if self._stack else None

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def spans(self) -> list[tuple[str, float, float, int]]:
        return list(zip(self.names, self.starts, self.ends, self.parents))

    def dump(self, path: Path) -> None:
        """Write every span (one JSON array per line) and the counters."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"counters": dict(self.counters)}) + "\n")
            for span in self.spans():
                handle.write(json.dumps(span) + "\n")


def load(path: Path) -> tuple[list[tuple[str, float, float, int]], dict]:
    """Read back a file written by :meth:`SpanRecorder.dump`."""
    with open(path, encoding="utf-8") as handle:
        counters = json.loads(handle.readline())["counters"]
        spans = [tuple(json.loads(line)) for line in handle]
    return spans, counters


def _union_length(intervals: Iterable[tuple[float, float]]) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: list[tuple[str, float, float, int]]) -> list[float]:
    """Each span's duration minus the time its children cover within it."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    result = []
    for index, (_, start, end, _) in enumerate(spans):
        covered = _union_length(
            (max(s, start), min(e, end))
            for s, e in children.get(index, ())
            if min(e, end) > max(s, start)
        )
        result.append((end - start) - covered)
    return result


def uncovered(
    spans: list[tuple[str, float, float, int]], start: float, end: float
) -> float:
    """Wall time in ``[start, end]`` that no root span covers."""
    roots = (
        (max(s, start), min(e, end))
        for _, s, e, parent in spans
        if parent < 0 and min(e, end) > max(s, start)
    )
    return (end - start) - _union_length(roots)


def aggregate(
    spans: list[tuple[str, float, float, int]],
) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, total ``wall_s`` and ``self_s``."""
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "wall_s": 0.0, "self_s": 0.0}
    )
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        entry = totals[name]
        entry["calls"] += 1
        entry["wall_s"] += end - start
        entry["self_s"] += own
    return dict(totals)


# -- wrappers ------------------------------------------------------------------


def _span_wrapper(recorder: SpanRecorder, name: str, func, after):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        if not recorder.enabled:
            return func(*args, **kwargs)
        index = recorder.begin(name)
        try:
            result = func(*args, **kwargs)
        finally:
            recorder.end(index)
        if after is not None:
            after(recorder, args, result)
        return result

    return wrapper


def _bytes_wrapper(recorder: SpanRecorder, func):
    """``FileOps.write``: bytes are billed to the innermost open span."""

    @functools.wraps(func)
    def wrapper(self, handle, data):
        if recorder.enabled:
            owner = recorder.current()
            if owner is not None:
                recorder.count(f"{owner}.bytes", len(data))
        return func(self, handle, data)

    return wrapper


class Installed:
    """Handle for installed wrappers; :meth:`remove` restores the originals."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def patch(self, owner: object, attribute: str, replacement) -> None:
        """Set ``owner.attribute``; every patched attribute is defined on
        *owner* itself (a class or a module), so restoring is a set too."""
        self._undo.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def remove(self) -> None:
        for owner, attribute, original in reversed(self._undo):
            setattr(owner, attribute, original)
        self._undo.clear()


def install(recorder: SpanRecorder, points) -> Installed:
    """Wrap every ``(owner, attribute, span_name, after)`` patch point.

    ``span_name=None`` installs the byte counter instead of a span.
    """
    installed = Installed()
    for owner, attribute, name, after in points:
        original = getattr(owner, attribute)
        if name is None:
            wrapper = _bytes_wrapper(recorder, original)
        else:
            wrapper = _span_wrapper(recorder, name, original, after)
        installed.patch(owner, attribute, wrapper)
    return installed

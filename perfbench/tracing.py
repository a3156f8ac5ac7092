"""Span recording for the traced benchmark run.

Spans are recorded from the benchmark's own files only: the traced run
wraps public methods of the program's classes from the outside
(:func:`Tracer.wrap`) and puts spans around the calls the benchmark
makes itself (:meth:`Recorder.span`).  Nothing under ``src/`` changes,
and an untraced run never installs a wrapper.

A span is ``[id, parent, name, start, end, thread, attrs]``; ``parent``
is the innermost open span of the same thread, and a workload may
re-parent a span across threads afterwards (a served request's estimate
runs on the batch dispatcher, its request on a client thread).  Spans
stay in memory and are written once, when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading

from perfbench.harness import now

ID, PARENT, NAME, START, END, THREAD, ATTRS = range(7)


class Recorder:
    """In-memory span store with per-thread parent tracking."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, attrs: dict | None = None) -> list:
        stack = self._stack()
        span = [next(self._ids), stack[-1][ID] if stack else None, name,
                now(), None, threading.get_ident(), attrs or {}]
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[END] = now()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:
            stack.remove(span)

    def current(self) -> list | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def span(self, name: str, **attrs) -> "_SpanContext":
        return _SpanContext(self, name, attrs)

    def closed(self, name: str | None = None) -> list[list]:
        return [span for span in self.spans
                if span[END] is not None and (name is None or span[NAME] == name)]

    def total(self, name: str) -> float:
        """Inclusive seconds of every closed span called ``name``."""
        return sum(span[END] - span[START] for span in self.closed(name))

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its children cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.closed():
            if span[PARENT] is not None:
                children.setdefault(span[PARENT], []).append(
                    (span[START], span[END]))
        return {
            span[ID]: (span[END] - span[START])
            - covered(children.get(span[ID], ()), span[START], span[END])
            for span in self.closed()
        }

    def write(self, path: str) -> None:
        """Write every span once, as one JSON document."""
        with open(path, "w") as handle:
            json.dump(
                {"fields": ["id", "parent", "name", "start", "end",
                            "thread", "attrs"],
                 "spans": self.spans},
                handle, default=str,
            )


def covered(intervals, start: float, end: float) -> float:
    """Seconds of [start, end] that the union of ``intervals`` covers."""
    total = 0.0
    cursor = start
    for low, high in sorted(intervals):
        low = max(low, cursor)
        high = min(high, end)
        if high > low:
            total += high - low
            cursor = high
    return total


class _SpanContext:
    __slots__ = ("recorder", "name", "attrs", "span")

    def __init__(self, recorder: Recorder, name: str, attrs: dict) -> None:
        self.recorder = recorder
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> list:
        self.span = self.recorder.open(self.name, self.attrs)
        return self.span

    def __exit__(self, *exc_info) -> None:
        self.recorder.close(self.span)


class Tracer:
    """Installs span-recording wrappers around public methods; removes
    them all again on :meth:`uninstall`."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._undo: list = []

    def wrap(self, owner, attribute: str, name, *, on_return=None) -> None:
        """Record a span around every call of ``owner.attribute``.

        ``name`` is a span name or ``callable(args, kwargs) -> name``;
        ``on_return(span, args, kwargs, result)`` may attach attributes.
        Static methods stay static.
        """
        original = owner.__dict__[attribute]
        static = isinstance(original, staticmethod)
        function = original.__func__ if static else original
        recorder = self.recorder

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            span = recorder.open(span_name)
            try:
                result = function(*args, **kwargs)
            finally:
                recorder.close(span)
            if on_return is not None:
                on_return(span, args, kwargs, result)
            return result

        setattr(owner, attribute, staticmethod(wrapper) if static else wrapper)
        self._undo.append((owner, attribute, original))

    def wrap_iterator(self, owner, attribute: str, on_item_count) -> None:
        """Count the items drawn from ``owner.attribute()`` iterators.

        ``on_item_count(instance)`` returns a one-element list the
        wrapper increments per item (the caller decides where the count
        belongs, e.g. on the enclosing span).
        """
        original = owner.__dict__[attribute]

        @functools.wraps(original)
        def wrapper(instance):
            box = on_item_count(instance)
            for item in original(instance):
                box[0] += 1
                yield item

        setattr(owner, attribute, wrapper)
        self._undo.append((owner, attribute, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)


def layer_rows(
    recorder: Recorder,
    row_of,
    wall_s: float,
    *,
    adjustments: dict[str, float] | None = None,
) -> list[tuple[str, float, float]]:
    """Per-layer self time and share of ``wall_s``, plus ``other``.

    ``row_of(span) -> row name`` maps every span to a table row;
    ``adjustments`` moves seconds between rows (a derived layer such as
    generation carved out of execution).  ``other`` is the wall time no
    span covers, so the shares sum to 100 %.
    """
    self_times = recorder.self_times()
    rows: dict[str, float] = {}
    for span in recorder.closed():
        row = row_of(span)
        rows[row] = rows.get(row, 0.0) + self_times[span[ID]]
    for row, delta in (adjustments or {}).items():
        rows[row] = rows.get(row, 0.0) + delta
    spanned = sum(rows.values())
    rows["other"] = max(0.0, wall_s - spanned)
    total = spanned + rows["other"]
    return [
        (row, seconds, seconds / total * 100.0 if total > 0 else 0.0)
        for row, seconds in sorted(rows.items(), key=lambda item: -item[1])
    ]

"""In-memory spans and counters for the benchmark's traced runs.

Spans are recorded around calls into the program's public functions
by patching them from outside (``Tracer.wrap``); nothing under
``src/`` knows it is being traced. Each span keeps its name, start,
end and the id of the span that was open when it started. Counters
are added at the same boundaries. Everything stays in memory until
``dump`` writes one JSON file when the traced process ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict


class Tracer:
    """Span stack plus named counters for one process."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def _open(self) -> tuple[int, int | None, float]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        return span_id, parent, time.monotonic()

    def _close(self, name: str, span_id: int, parent: int | None,
               start: float) -> None:
        self.spans.append((span_id, name, start, time.monotonic(), parent))
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span called *name* around the ``with`` body."""
        frame = self._open()
        try:
            yield
        finally:
            self._close(name, *frame)

    def add(self, name: str, value: float) -> None:
        self.counts[name] += value

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr``, remembering the original for restore()."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Undo every wrap, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` with a spanned version.

        *count*, when given, is called as ``count(result, args, kwargs)``
        after each call and returns ``{counter: increment}``.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            frame = tracer._open()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(name, *frame)
            if count is not None:
                for key, value in count(result, args, kwargs).items():
                    tracer.counts[key] += value
            return result

        self.patch(owner, attr, traced)

    def wrap_generator(self, owner, attr: str, name: str, count=None) -> None:
        """Like :meth:`wrap` for a generator method: one span per item."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            iterator = iter(original(*args, **kwargs))
            while True:
                frame = tracer._open()
                try:
                    item = next(iterator)
                except StopIteration:
                    tracer._close(name, *frame)
                    return
                except BaseException:
                    tracer._close(name, *frame)
                    raise
                tracer._close(name, *frame)
                if count is not None:
                    for key, value in count(item, args, kwargs).items():
                        tracer.counts[key] += value
                yield item

        self.patch(owner, attr, traced)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counts": dict(self.counts)},
                      handle)


def load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def totals(spans) -> dict[str, float]:
    """Summed duration per span name."""
    out: dict[str, float] = defaultdict(float)
    for _, name, start, end, _ in spans:
        out[name] += end - start
    return out


def self_times(spans) -> dict[str, float]:
    """Self time per layer: span durations minus their child spans.

    The layer is the span name up to its first dot.
    """
    child_time: dict[int, float] = defaultdict(float)
    for _, _, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for span_id, name, start, end, _ in spans:
        layer = name.split(".", 1)[0]
        out[layer] += (end - start) - child_time[span_id]
    return out

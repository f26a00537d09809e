"""In-memory span tracer that times library layers from outside.

A span records its name, start, end, the index of the span that was open
when it began (its parent) and the job it belongs to, plus any counts taken
at the boundary. Spans are appended to a list and written out once, at the
end of the run. Wrapping replaces a module attribute for the duration of a
``with tracer.installed(...)`` block, so untraced jobs run the unmodified
program.
"""
from __future__ import annotations

import contextlib
import functools
import time


class Tracer:
    """Span recorder for one process; nesting follows the call stack."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.job = None

    @contextlib.contextmanager
    def span(self, name, **counts):
        idx = len(self.spans)
        rec = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "job": self.job,
            "counts": dict(counts),
        }
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec["counts"]
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def wrap(self, fn, name, count=None, raises=()):
        """fn timed as span `name`; count(args, kwargs, result) adds counts.

        Exceptions listed in `raises` are tallied under the count "raised"
        before they propagate.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as counts:
                try:
                    result = fn(*args, **kwargs)
                except raises:
                    counts["raised"] = counts.get("raised", 0) + 1
                    raise
                if count is not None:
                    counts.update(count(args, kwargs, result))
                return result

        return traced

    @contextlib.contextmanager
    def installed(self, points):
        """Patch each (module, attribute, span name, count, raises) point."""
        saved = []
        try:
            for mod, attr, name, count, raises in points:
                orig = getattr(mod, attr)
                saved.append((mod, attr, orig))
                setattr(mod, attr, self.wrap(orig, name, count, raises))
            yield self
        finally:
            for mod, attr, orig in reversed(saved):
                setattr(mod, attr, orig)


def self_times(spans):
    """Span duration minus the time covered by its direct children, per span.

    Children of one span run one after another on the same thread, so their
    intervals are disjoint and their durations add.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child)]

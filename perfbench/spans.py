"""Spans around calls into hsep's public functions, kept in memory.

A span records name, start, end, parent span, op id and whether it is a
repeat: a public call that a report makes again after the benchmark has
already made it once for the same op.  Spans are opened by the benchmark
around its own calls, or by `wrapped`, which temporarily replaces a
public function so that its calls from inside a given span are recorded.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: str | None
    repeat: bool


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._open = []

    @contextmanager
    def span(self, name, repeat=False):
        parent = self._open[-1] if self._open else None
        rec = Span(name, time.perf_counter(), 0.0, parent, self.op, repeat)
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._open.pop()

    @contextmanager
    def wrapped(self, owner, attr, name, inside, repeat=False, once=False, select=None):
        """Record calls of owner.attr made directly inside a span named `inside`.

        once: record only the first such call per enclosing span.
        select: a predicate on the call's arguments; other calls pass through.
        """
        original = getattr(owner, attr)
        recorded = set()

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            if (
                parent is None
                or self.spans[parent].name != inside
                or (once and parent in recorded)
                or (select is not None and not select(*args, **kwargs))
            ):
                return original(*args, **kwargs)
            recorded.add(parent)
            with self.span(name, repeat):
                return original(*args, **kwargs)

        setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            setattr(owner, attr, original)

    def self_times(self, first=0):
        """{name: summed self time} of the non-repeat spans from index
        `first` on, and the summed wall time of the repeat spans."""
        child = [0.0] * len(self.spans)
        for s in self.spans[first:]:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out, repeats = {}, 0.0
        for i in range(first, len(self.spans)):
            s = self.spans[i]
            if s.repeat:
                repeats += s.end - s.start
            else:
                out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) - child[i]
        return out, repeats

    def to_doc(self):
        return [asdict(s) for s in self.spans]

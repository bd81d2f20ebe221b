"""Span and counter recording for the benchmark's traced runs.

Spans are recorded by the benchmark around its own calls into the
library modules; nothing inside ``diffchar`` is instrumented.  Each span
keeps a name, a start, an end and the index of the span that was open
when it began.  Spans stay in memory and are summarised once, at the end
of the run.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext


class NullTracer:
    """Stand-in for untraced runs: spans cost one ``nullcontext``."""

    enabled = False

    def span(self, name):
        return nullcontext()

    def count(self, name, value):
        pass


class Tracer:
    enabled = True

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self.counters = {}
        self._open = []

    @contextmanager
    def span(self, name):
        parent = self._open[-1] if self._open else None
        rec = [name, time.perf_counter(), None, parent]
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def count(self, name, value):
        """Add ``value`` to a machine-independent counter."""
        self.counters[name] = self.counters.get(name, 0) + value

    def duration(self, index):
        _, start, end, _ = self.spans[index]
        return end - start

    def self_times(self):
        """Total self time per span name: duration minus direct children."""
        own = [self.duration(i) for i in range(len(self.spans))]
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent is not None:
                own[parent] -= self.duration(i)
        totals = {}
        for (name, _, _, _), t in zip(self.spans, own):
            totals[name] = totals.get(name, 0.0) + t
        return totals

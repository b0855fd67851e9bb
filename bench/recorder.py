"""In-memory span and counter recorder used by the traced benchmark run.

Spans are kept as tuples (id, name, start, end, parent) and written out
only when the run ends, so the timed loop never touches the disk. With
tracing off, ``call`` is a plain function call and ``span`` does nothing;
the counters are recorded either way because they are outcomes of each
operation (steps taken, halts, route gaps), not timings.
"""

from __future__ import annotations

import itertools
import json
from contextlib import contextmanager
from time import perf_counter


class Recorder:
    def __init__(self, idle=lambda: None):
        self.tracing = False
        self.spans = []
        self.counts = {}
        # Called every few tens of milliseconds while waiting on a child
        # process; the benchmark probes the host speed there.
        self.idle = idle
        self._parent = None
        self._ids = itertools.count(1)

    def call(self, name, fn, *args, **kwargs):
        """Call one public function of a package layer, as a leaf span."""
        if not self.tracing:
            return fn(*args, **kwargs)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((next(self._ids), name, start, perf_counter(), self._parent))

    @contextmanager
    def span(self, name):
        """Parent span (a pass or one operation) for the layer calls inside."""
        if not self.tracing:
            yield
            return
        span_id = next(self._ids)
        parent, self._parent = self._parent, span_id
        start = perf_counter()
        try:
            yield
        finally:
            self._parent = parent
            self.spans.append((span_id, name, start, perf_counter(), parent))

    def add(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def peak(self, name, value):
        self.counts[name] = max(self.counts.get(name, 0.0), float(value))

    def take(self):
        """Return and clear the spans and counters gathered since the last take."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], {}
        return spans, counts


def write_spans(path, buckets, origin):
    """Write spans as JSON lines, times in seconds from ``origin``."""
    with open(path, "w") as out:
        for bucket, spans in buckets:
            for span_id, name, start, end, parent in spans:
                out.write(
                    json.dumps(
                        {
                            "bucket": bucket,
                            "id": span_id,
                            "name": name,
                            "start": start - origin,
                            "end": end - origin,
                            "parent": parent,
                        }
                    )
                    + "\n"
                )

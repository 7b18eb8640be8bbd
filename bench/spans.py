"""In-memory span recorder for the benchmark's traced runs.

A span is opened around each call the benchmark makes into a module of
``qsd_sr``.  It records a name, start and end (``time.perf_counter``), the
enclosing span and optional attributes such as a point count.  Spans stay in
memory and are written out once, when the run ends.  While the recorder is
disabled, ``span`` hands out one shared no-op context, so untraced rounds
pay one method call per span site.
"""

from __future__ import annotations

import json
import statistics
import time


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def set(self, **attrs):
        pass


_NULL = _NullSpan()


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer, record):
        self.tracer = tracer
        self.record = record

    def __enter__(self):
        stack = self.tracer._stack
        self.record["parent"] = stack[-1]["id"] if stack else None
        stack.append(self.record)
        self.record["start"] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.record["end"] = time.perf_counter()
        self.tracer._stack.pop()
        if exc[0] is not None:
            self.record["error"] = exc[0].__name__
        self.tracer.spans.append(self.record)
        return False

    def set(self, **attrs):
        self.record["attrs"].update(attrs)


class Tracer:
    """Span recorder; ``source`` labels spans as coming from the workload
    itself or from a fallback probe."""

    def __init__(self):
        self.enabled = False
        self.source = "workload"
        self.spans = []
        self._stack = []
        self._next_id = 0

    def span(self, name, **attrs):
        if not self.enabled:
            return _NULL
        self._next_id += 1
        return _Span(self, {"id": self._next_id, "name": name, "source": self.source,
                            "attrs": attrs})

    def select(self, name):
        """Finished spans called ``name``: the workload's own when it made
        any, otherwise those of the fallback probes."""
        found = [s for s in self.spans if s["name"] == name and "error" not in s]
        own = [s for s in found if s["source"] == "workload"]
        return own or found

    def has(self, name):
        return bool(self.select(name))

    def durations(self, name):
        return [s["end"] - s["start"] for s in self.select(name)]

    def median(self, name, scale=1.0):
        return statistics.median(self.durations(name)) * scale

    def per_unit(self, name, attr, scale=1.0):
        """Median over spans of duration divided by the span's ``attr``."""
        return statistics.median(
            (s["end"] - s["start"]) / s["attrs"][attr] for s in self.select(name)
        ) * scale

    def write(self, path, header):
        with open(path, "w") as fh:
            json.dump({**header, "spans": self.spans}, fh)
            fh.write("\n")

"""Spans recorded from the benchmark's own files, around calls into layers.

A span has a name (``<layer>.<function>``), start, end, the span that
caused it and an op id shared by every span of one operation.  Spans stay
in memory and are written out once, at the end of the traced run.  Spans
*inside* ``src/`` are a later change: here every span wraps one call from
``bench/`` into a layer's public function.
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Collects spans; a disabled tracer costs one attribute test per span."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, op=None, **tags):
        if not self.enabled:
            yield None
            return
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        record = {
            "id": next(self._ids),
            "name": name,
            "parent": parent["id"] if parent else None,
            "op": op if op is not None else (parent["op"] if parent else None),
            "start": time.perf_counter(),
            "end": None,
            **tags,
        }
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)  # list.append is atomic under the GIL

    # ------------------------------------------------------------------
    def durations(self, name: str, **tags) -> list[float]:
        """Durations (seconds) of every finished span with this name and tags."""
        return [
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name and all(s.get(k) == v for k, v in tags.items())
        ]

    def median(self, name: str, **tags) -> float:
        return statistics.median(self.durations(name, **tags))

    def total(self, name: str, **tags) -> float:
        return sum(self.durations(name, **tags))

    def self_times(self) -> dict[str, float]:
        """Per span name: duration minus the part its child spans cover."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out = defaultdict(float)
        for s in self.spans:
            out[s["name"]] += (s["end"] - s["start"]) - child_time[s["id"]]
        return dict(out)

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "self_time_s": self.self_times()}, handle)

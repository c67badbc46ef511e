"""In-memory span recorder for the traced benchmark run.

A span is one timed call into a bibench module, named
``<module>.<function>``, with its start and end (``time.perf_counter``
seconds), the index of the span that was open when it began, and the id of
the operation it belongs to (``Tracer.op`` when it began). Spans stay in
memory until ``write``.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager

# Spans whose resident set size is sampled at both ends, to measure how much
# memory one cold enumeration keeps.
MEMORY_SPANS = frozenset({"landscape.enumerate_landscape"})

_PAGE = os.sysconf("SC_PAGE_SIZE")


def resident_bytes() -> int:
    """Current resident set size of this process."""
    with open("/proc/self/statm", "rb") as f:
        return int(f.read().split()[1]) * _PAGE


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.op = "setup"

    @contextmanager
    def span(self, name: str):
        record = {
            "name": name,
            "op": self.op,
            "parent": self._open[-1] if self._open else None,
        }
        memory = name in MEMORY_SPANS
        if memory:
            record["rss_start"] = resident_bytes()
        self._open.append(len(self.spans))
        self.spans.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()
            if memory:
                record["rss_end"] = resident_bytes()

    def call(self, name: str, fn, *args):
        """Run ``fn(*args)`` inside a span named ``name``."""
        with self.span(name):
            return fn(*args)

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_times(self, root: str) -> dict[str, float]:
        """Self time per module over the spans below each span named ``root``
        (the root spans included, under their own module). A span's self
        time is its duration minus the time its direct children cover."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        under = set()
        out: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            parent = s["parent"]
            if s["name"] == root or (parent is not None and parent in under):
                under.add(i)
                module = s["name"].split(".", 1)[0]
                out[module] += s["end"] - s["start"] - child_time[i]
        return dict(out)

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")

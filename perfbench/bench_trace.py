"""Span and counter recorder for the traced benchmark run.

Spans and counters live in memory and are written as JSONL once the run
ends.  Nothing here touches tubekit's source: the recorder wraps public
functions, and the names one tubekit module calls in another, by swapping
module attributes at run time and putting the originals back afterwards.
"""
from __future__ import annotations

import functools
import json
import statistics
import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    """Spans (name, start, end, parent span, operation id) and counters."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counters: Counter = Counter()
        self.op: int | None = None
        self.counting = True
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "op": self.op, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr: str, span_name: str) -> None:
        """Replace module.attr by a version that records a span per call."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(span_name):
                return original(*args, **kwargs)

        self._patch(module, attr, original, traced)

    def wrap_count(self, module, attr: str, counter: str) -> None:
        """Replace module.attr by a version that only counts calls; a span
        per microsecond-scale call would cost more than the call."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def counted(*args, **kwargs):
            if self.counting:
                self.counters[counter] += 1
            return original(*args, **kwargs)

        self._patch(module, attr, original, counted)

    def _patch(self, module, attr, original, replacement) -> None:
        if isinstance(module, type):
            # A classmethod: `original` is already bound, so the wrapper
            # goes in as a staticmethod and the raw descriptor comes back.
            self._patched.append((module, attr, vars(module)[attr]))
            setattr(module, attr, staticmethod(replacement))
        else:
            self._patched.append((module, attr, original))
            setattr(module, attr, replacement)

    def unwrap_all(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    # ------------------------------------------------------------ analysis

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def median(self, name: str) -> float:
        d = self.durations(name)
        return statistics.median(d) if d else 0.0

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_times(self) -> dict[str, float]:
        """Self time per layer: each span's duration minus the time its
        child spans cover, summed by the layer prefix of the span name.
        Spans are strictly nested (one thread), so children never overlap."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s, covered in zip(self.spans, child_time):
            layer = s["name"].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (s["end"] - s["start"]) - covered
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"type": "span", **s}) + "\n")
            for name, value in sorted(self.counters.items()):
                fh.write(json.dumps({"type": "counter", "name": name,
                                     "value": value}) + "\n")

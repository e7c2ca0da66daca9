"""The benchmark's own span recorder.

Spans are recorded only by files under ``perf/``, around calls *into*
each layer's public functions; nothing inside ``src/`` is instrumented.
They live in memory and are written once, when the traced run ends.

A span is ``{name, start, end, parent, request}``: ``parent`` is the index
of the enclosing span (``None`` at the top), ``request`` the identifier
every span of one request shares.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._request: int | None = None

    @contextmanager
    def request(self, request_id: int):
        """Tag every span opened inside with ``request_id``; the request
        itself is the root span of its tree."""
        self._request = request_id
        try:
            with self.span("request"):
                yield
        finally:
            self._request = None

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "request": self._request,
        }
        self.spans.append(record)
        self._open.append(index)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span whose bounds were reported, not timed here (the
        server's own online/offline seconds travel back in the reply)."""
        self.spans.append(
            {
                "name": name,
                "start": start,
                "end": end,
                "parent": self._open[-1] if self._open else None,
                "request": self._request,
            }
        )

    # ------------------------------------------------------------------
    def durations_ms(self, name: str) -> list[float]:
        return [
            (span["end"] - span["start"]) * 1e3
            for span in self.spans
            if span["name"] == name
        ]

    def median_ms(self, name: str) -> float:
        return statistics.median(self.durations_ms(name))

    def median_rest_ms(self, whole: str, parts: list[str]) -> float:
        """Median over requests of ``whole`` minus its ``parts``."""
        rest: dict[int, float] = {}
        for span in self.spans:
            if span["name"] == whole or span["name"] in parts:
                sign = 1.0 if span["name"] == whole else -1.0
                rest[span["request"]] = rest.get(span["request"], 0.0) + sign * (
                    span["end"] - span["start"]
                )
        return statistics.median(rest.values()) * 1e3

    def self_ms(self) -> dict[str, float]:
        """Median self time per span name: a span's duration minus the
        part of it that its child spans cover."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        by_name: dict[str, list[float]] = {}
        for span, child_s in zip(self.spans, covered):
            by_name.setdefault(span["name"], []).append(
                (span["end"] - span["start"] - child_s) * 1e3
            )
        return {name: statistics.median(values) for name, values in by_name.items()}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "self_ms_p50": self.self_ms()}, handle)

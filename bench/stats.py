"""Percentiles with a support rule, and in-memory spans with self time."""

from __future__ import annotations

import math
import time
from contextlib import contextmanager

#: A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10

TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 50.0)


def percentile(samples, p: float) -> tuple[float, int]:
    """Nearest-rank percentile of ``samples`` and how many samples lie beyond it."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(round(p * len(ordered) / 100.0, 9)))  # 99.9% of 1e5 is 99900
    return ordered[rank - 1], len(ordered) - rank


def supported(samples, p: float) -> bool:
    return bool(samples) and percentile(samples, p)[1] >= MIN_BEYOND


def tail(samples, at_most: float = 99.9) -> tuple[float, float]:
    """(p, value) for the highest percentile <= ``at_most`` with enough support.

    Falls back to the median when even p50 has fewer than MIN_BEYOND samples
    beyond it, so a tiny sample still yields a number; callers print ``p`` and
    the sample count next to it.
    """
    for p in TAIL_CANDIDATES:
        if p <= at_most and supported(samples, p):
            return p, percentile(samples, p)[0]
    return 50.0, percentile(samples, 50.0)[0]


class Spans:
    """Spans kept in memory: name, start, end and the span that caused it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []

    def open(self, name: str, parent: int = -1, start: float | None = None) -> int:
        self.names.append(name)
        self.starts.append(time.perf_counter() if start is None else start)
        self.ends.append(math.nan)
        self.parents.append(parent)
        return len(self.names) - 1

    def close(self, sid: int, end: float | None = None) -> None:
        self.ends[sid] = time.perf_counter() if end is None else end

    def add(self, name: str, start: float, end: float, parent: int = -1) -> int:
        sid = self.open(name, parent, start)
        self.close(sid, end)
        return sid

    @contextmanager
    def span(self, name: str, parent: int = -1):
        sid = self.open(name, parent)
        try:
            yield sid
        finally:
            self.close(sid)

    def durations(self, name: str) -> list[float]:
        return [e - s for n, s, e in zip(self.names, self.starts, self.ends) if n == name]

    def self_times(self) -> list[float]:
        """Each span's duration minus the part of it that its children cover."""
        children: dict[int, list[int]] = {}
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                children.setdefault(parent, []).append(sid)
        out = []
        for sid, (start, end) in enumerate(zip(self.starts, self.ends)):
            covered, reach = 0.0, start
            for kid in sorted(children.get(sid, ()), key=lambda k: self.starts[k]):
                lo, hi = max(self.starts[kid], reach), min(self.ends[kid], end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append((end - start) - covered)
        return out

    def summary(self) -> dict[str, dict[str, float]]:
        """Per name: span count, total and self seconds."""
        out: dict[str, dict[str, float]] = {}
        for name, start, end, own in zip(self.names, self.starts, self.ends, self.self_times()):
            row = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += end - start
            row["self_s"] += own
        return out

"""Counters and bounded histograms for one collection scope.

A registry is the unit of collection.  The campaign owns one
(:class:`repro.obs.Telemetry`), into which :func:`repro.obs.campaign`
points :data:`repro.obs.hook.SIM` so simulation outside any task
(triage, minimization, a dispatch's context factory) counts straight
into it.  An observed dispatch runs each task under a fresh registry of
its own (:mod:`repro.runner.pool`); the task's span carries that
registry's plain counter dict back, and the campaign sums it in with
:meth:`MetricsRegistry.merge_counters`.

Counters only ever add, and a task's counters depend only on the task,
so the campaign's totals are identical for any ``--jobs`` value and any
task interleaving — the property the jobs-invariance tests pin down.
"""

from __future__ import annotations

import json
from typing import Dict, List, Mapping, Optional

#: histogram bucket upper bounds: powers of ten from 1 µs to 1000 s, a
#: span that covers both single-task and whole-phase timings.
DEFAULT_BOUNDS = tuple(10.0 ** e for e in range(-6, 4))


class Histogram:
    """A bounded histogram: fixed bucket bounds, one overflow bucket."""

    __slots__ = ("buckets", "count", "total", "minimum", "maximum")

    def __init__(self) -> None:
        self.buckets: List[int] = [0] * (len(DEFAULT_BOUNDS) + 1)
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        index = len(DEFAULT_BOUNDS)
        for i, bound in enumerate(DEFAULT_BOUNDS):
            if value <= bound:
                index = i
                break
        self.buckets[index] += 1
        self.count += 1
        self.total += value
        self.minimum = value if self.minimum is None \
            else min(self.minimum, value)
        self.maximum = value if self.maximum is None \
            else max(self.maximum, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        return {
            "bounds": list(DEFAULT_BOUNDS),
            "buckets": list(self.buckets),
            "count": self.count,
            "total": self.total,
            "min": self.minimum,
            "max": self.maximum,
        }


class MetricsRegistry:
    """Named counters and histograms for one collection scope.

    Satisfies the :data:`repro.obs.hook.SIM` sink contract (``count``),
    and is what :class:`repro.obs.Telemetry` serializes to
    ``metrics.json``.
    """

    __slots__ = ("counters", "histograms")

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.histograms: Dict[str, Histogram] = {}

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def observe(self, name: str, value: float) -> None:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram()
        histogram.observe(value)

    def snapshot(self) -> dict:
        """A JSON-ready snapshot with deterministic (sorted) key order."""
        return {
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "histograms": {k: self.histograms[k].as_dict()
                           for k in sorted(self.histograms)},
        }

    def merge_counters(self, counters: Mapping[str, int]) -> None:
        """Sum a task's plain ``{name: n}`` counters into these; a name
        the task counted nothing under adds no key."""
        for name, n in counters.items():
            if n:
                self.count(name, int(n))

    def render_json(self) -> str:
        return json.dumps(self.snapshot(), indent=2, sort_keys=True) + "\n"

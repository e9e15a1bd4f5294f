"""Throttled stderr progress heartbeat (tasks/sec + ETA).

One ``\\r``-rewritten line, resume- and shard-aware::

    # attacksynth: 137/200 tasks (12 cached, 50 other shards) 8.3/s eta 6s

``done`` counts every result the campaign has (cached hits included);
the rate and ETA are computed over *executed* tasks only, so a warm
resume shows instantly-complete progress instead of a bogus ETA, and a
sharded run's denominator excludes indices owned by other shards.
Rendering is throttled (default 10 Hz) and goes to stderr only — stdout
artifacts are never touched.
"""

from __future__ import annotations

import sys
import time


def _format_eta(seconds: float) -> str:
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.0f}s"


class ProgressMeter:
    """Accumulating task progress with a throttled one-line renderer."""

    def __init__(self, label: str = "campaign", stream=None,
                 min_interval: float = 0.1) -> None:
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = min_interval
        self.total = 0
        self.done = 0
        self.cached = 0
        self.skipped = 0
        self.executed = 0
        self._started = time.perf_counter()
        self._last_render = float("-inf")
        self._rendered = False

    def plan(self, total: int, cached: int = 0, skipped: int = 0) -> None:
        """Account one dispatch: ``total`` tasks, of which ``cached``
        are already done (store hits) and ``skipped`` belong to other
        shards."""
        self.total += total
        self.cached += cached
        self.done += cached
        self.skipped += skipped
        self.render()

    def tick(self, n: int = 1) -> None:
        self.done += n
        self.executed += n
        self.render()

    def _line(self) -> str:
        qualifiers = []
        if self.cached:
            qualifiers.append(f"{self.cached} cached")
        if self.skipped:
            qualifiers.append(f"{self.skipped} other shards")
        extra = f" ({', '.join(qualifiers)})" if qualifiers else ""
        elapsed = time.perf_counter() - self._started
        rate = self.executed / elapsed if elapsed > 0 else 0.0
        remaining = max(0, self.total - self.skipped - self.done)
        if remaining == 0:
            eta = "done"
        elif rate > 0:
            eta = "eta " + _format_eta(remaining / rate)
        else:
            eta = "eta ?"
        return (f"# {self.label}: {self.done}/{self.total} tasks{extra} "
                f"{rate:.1f}/s {eta}")

    def render(self, force: bool = False) -> None:
        now = time.perf_counter()
        if not force and now - self._last_render < self.min_interval:
            return
        self._last_render = now
        self._rendered = True
        self.stream.write("\r" + self._line() + "\x1b[K")
        self.stream.flush()

    def finish(self) -> None:
        """Render the final state and terminate the line."""
        if self.total or self._rendered:
            self.render(force=True)
            self.stream.write("\n")
            self.stream.flush()

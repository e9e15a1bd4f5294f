"""The campaign telemetry context.

A :class:`Telemetry` object is created by the CLI (from ``--telemetry
DIR`` / ``--progress``) and opened with :func:`campaign`, which makes
it the process's current telemetry: :func:`phase` and
:func:`repro.runner.store.run_tasks_stored`, which labels every
dispatched unit and feeds it here as its result arrives, report to it.
It owns:

- the **event log** (``DIR/events.jsonl``, schema in
  :mod:`repro.obs.events`),
- the campaign **metrics registry** (``DIR/metrics.json``), into which
  worker counter deltas and task-duration observations are merged
  deterministically,
- the collected **task spans** and **phase spans**, exported as a
  chrome ``trace_event`` timeline (``DIR/trace.json``),
- the optional stderr **progress heartbeat**.

Everything here is observational: a campaign driver behaves — and its
exported artifacts are byte-identical — whether a campaign is open or
not.  Timestamps in the event log are *parent observation times*; the
precise per-task timings measured inside the workers live in the trace
spans and the ``task.seconds`` histogram.

While a campaign is open, a parent-side
:class:`~repro.obs.metrics.MetricsRegistry` is installed into
:data:`repro.obs.hook.SIM` so simulation done outside the pool (golden
runs, failure triage/minimization) is counted too; it is merged into
the campaign metrics at :meth:`finish` under the same names.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from . import hook
from .events import EventLog
from .metrics import MetricsRegistry
from .progress import ProgressMeter
from .trace import write_chrome_trace
from .worker import Span


class Telemetry:
    """Event log + metrics + timeline + progress for one campaign run."""

    #: dispatches install per-worker metric registries for this run
    enabled = True

    def __init__(self, directory=None, progress: bool = False,
                 stream=None) -> None:
        self.directory: Optional[Path] = \
            Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self.metrics = MetricsRegistry()
        self.events = EventLog(
            self.directory / "events.jsonl"
            if self.directory is not None else None)
        self.progress: Optional[ProgressMeter] = \
            ProgressMeter(stream=stream) if progress else None
        self.spans: List[Tuple[int, int, float, float]] = []
        self.phases: List[Tuple[str, float, float]] = []
        self.campaign: Optional[str] = None
        self._origin = time.perf_counter()
        self._workers: Dict[int, bool] = {}
        self._sim: Optional[MetricsRegistry] = None
        self._previous_sink = None
        self._finished = False

    # -- lifecycle ----------------------------------------------------

    def begin(self, campaign: str, parameters: Optional[dict] = None) -> None:
        self.campaign = campaign
        if self.progress is not None:
            self.progress.label = campaign
        fields = {}
        for key, value in (parameters or {}).items():
            fields[f"x_{key}" if key in ("ts", "event", "campaign")
                   else key] = value
        self.events.emit("campaign-start", campaign=campaign, **fields)
        self._sim = MetricsRegistry()
        self._previous_sink = hook.SIM
        hook.install(self._sim)

    def finish(self, status: str = "completed") -> None:
        """Close the campaign; ``status`` is how it ended: ``completed``,
        ``interrupted`` (Ctrl-C) or ``failed`` (an exception)."""
        if self._finished:
            return
        self._finished = True
        hook.SIM = self._previous_sink
        if self._sim is not None:
            self.metrics.merge_counters(self._sim.counters)
        for worker in sorted(self._workers):
            self.events.emit("worker-exit", worker=worker)
        seconds = time.perf_counter() - self._origin
        self.events.emit("campaign-end", seconds=round(seconds, 6),
                         status=status)
        self.metrics.observe("campaign.seconds", seconds)
        if self.progress is not None:
            self.progress.finish()
        if self.directory is not None:
            from ..runner.export import atomic_write
            atomic_write(self.directory / "metrics.json",
                         self.metrics.render_json())
            write_chrome_trace(self.directory / "trace.json",
                               self.spans, self.phases,
                               origin=self._origin)
        self.events.close()

    @contextmanager
    def phase(self, name: str):
        """Time one campaign phase (plan/execute/triage/export/...)."""
        self.events.emit("phase-start", phase=name)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.phases.append((name, start, end))
            self.events.emit("phase-end", phase=name,
                             seconds=round(end - start, 6))
            self.metrics.observe(f"phase.{name}.seconds", end - start)

    # -- dispatch accounting (runner-facing) --------------------------

    def plan(self, total: int, cached: int = 0, skipped: int = 0) -> None:
        """Account one dispatch of ``total`` tasks (store hits counted
        as ``cached``, other shards' indices as ``skipped``)."""
        self.events.emit("tasks-planned", total=total,
                         cached=cached, skipped=skipped)
        if self.progress is not None:
            self.progress.plan(total, cached=cached, skipped=skipped)

    def task_scheduled(self, index: int) -> None:
        """One unit is next in the dispatch stream; ``index`` is the
        campaign-global index of its first task."""
        self.events.emit("task-scheduled", index=index)

    def store_hit(self, index: int) -> None:
        self.events.emit("store-hit", index=int(index))
        self.metrics.count("store.hits")

    def shard_decision(self, shard: str, owned: int, skipped: int) -> None:
        self.events.emit("shard-decision", shard=shard,
                         owned=owned, skipped=skipped)

    def resume(self, store: str, hits: int, missing: int) -> None:
        self.events.emit("resume", store=str(store),
                         hits=hits, missing=missing)

    def task_completed(self, span: Span, index: int, size: int = 1) -> None:
        """Fold one finished unit's span into events/metrics/trace.

        ``index`` labels the unit (its first task's campaign-global
        index); ``size`` is how many tasks it ran, so progress advances
        by tasks while ``tasks.completed`` counts units.
        """
        worker, start, end, deltas = span
        if worker not in self._workers:
            self._workers[worker] = True
            self.events.emit("worker-start", worker=worker)
        seconds = max(0.0, end - start)
        self.events.emit("task-started", index=index, worker=worker)
        self.events.emit("task-completed", index=index, worker=worker,
                         size=size, seconds=round(seconds, 6))
        self.metrics.count("tasks.completed")
        self.metrics.observe("task.seconds", seconds)
        self.metrics.merge_counters(deltas)
        self.spans.append((index, worker, start, end))
        if self.progress is not None:
            self.progress.tick(size)

    def task_failed(self, index: int, error: BaseException,
                    key: Optional[str] = None) -> None:
        """The unit labelled ``index`` raised ``error``; ``key`` is the
        store key of its first task when the run has a store."""
        fields = {} if key is None else {"key": key}
        self.events.emit("task-failed", index=index,
                         error=type(error).__name__,
                         message=str(error)[:200], **fields)

    # -- convenience passthroughs ------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        self.metrics.count(name, n)

    def gauge(self, name: str, value: float) -> None:
        self.metrics.gauge(name, value)

    def note(self, text: str) -> None:
        self.events.emit("note", text=text)


class _Silent:
    """The telemetry of an unobserved run: every dispatch hook of
    :class:`Telemetry` accepted and dropped, and no worker registry."""

    enabled = False

    def _drop(self, *args, **kwargs) -> None:
        pass

    plan = resume = shard_decision = store_hit = count = _drop
    task_scheduled = task_completed = task_failed = _drop

    def phase(self, name: str):
        return nullcontext()


#: the current telemetry when no campaign is open (and inside a task), so
#: dispatch code never branches on it
SILENT = _Silent()

_CURRENT = SILENT


def current():
    """The telemetry of the campaign open in this process, or
    :data:`SILENT`."""
    return _CURRENT


@contextmanager
def observing(telemetry):
    """Make ``telemetry`` the current telemetry for the block, then
    restore the previous one."""
    global _CURRENT
    previous, _CURRENT = _CURRENT, telemetry
    try:
        yield telemetry
    finally:
        _CURRENT = previous


@contextmanager
def campaign(telemetry: Optional[Telemetry], name: str,
             parameters: Optional[dict] = None):
    """Open campaign ``name`` on ``telemetry`` and make it the current
    telemetry until the block ends; a no-op when it is None."""
    if telemetry is None:
        yield None
        return
    telemetry.begin(name, parameters)
    status = "completed"
    try:
        with observing(telemetry):
            yield telemetry
    except KeyboardInterrupt:
        status = "interrupted"
        raise
    except BaseException:
        status = "failed"
        raise
    finally:
        telemetry.finish(status)


def phase(name: str):
    """Time phase ``name`` of the current campaign; a no-op when none is
    open."""
    return _CURRENT.phase(name)


def load_metrics(directory) -> dict:
    """Read ``metrics.json`` from a telemetry directory."""
    with open(Path(directory) / "metrics.json", encoding="utf-8") as handle:
        return json.load(handle)

"""Chrome ``trace_event`` timeline exporter.

Serializes the task spans a campaign collected into the JSON object
format understood by ``chrome://tracing``, Perfetto, and Speedscope:
one lane (``tid``) per worker process, one ``"X"`` (complete) event per
task, plus a lane of campaign phases.  Timestamps are microseconds
relative to the campaign origin; worker spans are measured on
``time.perf_counter`` which is CLOCK_MONOTONIC on Linux and therefore
comparable across fork()ed workers.
"""

from __future__ import annotations

import json
from typing import Iterable, Sequence, Tuple

#: a task span: (task index, worker pid, start, end) in origin seconds
Span = Tuple[int, int, float, float]
#: a phase span: (name, start, end) in origin seconds
Phase = Tuple[str, float, float]

_PID = 1        # single-process view: lanes are threads of one "process"
_PHASE_LANE = 0


def chrome_trace(spans: Iterable[Span], phases: Iterable[Phase] = (),
                 origin: float = 0.0, process_name: str = "repro") -> dict:
    """Build the ``{"traceEvents": [...]}`` object (JSON-ready)."""
    events = [{
        "ph": "M", "name": "process_name", "pid": _PID, "tid": _PHASE_LANE,
        "args": {"name": process_name},
    }, {
        "ph": "M", "name": "thread_name", "pid": _PID, "tid": _PHASE_LANE,
        "args": {"name": "campaign phases"},
    }]
    for name, start, end in phases:
        events.append({
            "ph": "X", "name": name, "cat": "phase",
            "pid": _PID, "tid": _PHASE_LANE,
            "ts": _us(start, origin), "dur": _dur(start, end),
        })
    lanes = {}
    for index, worker, start, end in sorted(spans,
                                            key=lambda s: (s[2], s[0])):
        lane = lanes.get(worker)
        if lane is None:
            lane = lanes[worker] = len(lanes) + 1
            events.append({
                "ph": "M", "name": "thread_name", "pid": _PID, "tid": lane,
                "args": {"name": f"worker {worker}"},
            })
        events.append({
            "ph": "X", "name": f"task {index}", "cat": "task",
            "pid": _PID, "tid": lane,
            "ts": _us(start, origin), "dur": _dur(start, end),
            "args": {"index": index, "worker": worker},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path, spans: Sequence[Span],
                       phases: Sequence[Phase] = (),
                       origin: float = 0.0) -> None:
    from ..runner.export import atomic_write
    payload = chrome_trace(spans, phases, origin=origin)
    atomic_write(path, json.dumps(payload, indent=1) + "\n")


def _us(instant: float, origin: float) -> float:
    return round(max(0.0, instant - origin) * 1e6, 1)


def _dur(start: float, end: float) -> float:
    return round(max(0.0, end - start) * 1e6, 1)

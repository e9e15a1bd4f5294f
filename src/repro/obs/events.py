"""Append-only structured event log (JSONL, monotonic timestamps).

Every record is one flat JSON object per line::

    {"ts": 0.01327, "event": "task-completed", "index": 3,
     "worker": 41772, "seconds": 0.0521}

``ts`` is seconds since the log was opened, measured on
``time.perf_counter`` (CLOCK_MONOTONIC on Linux) and clamped to be
non-decreasing — consumers may rely on file order == time order.  All
field values are scalars (str/int/float/bool/None) so every line is
greppable and schema-checkable without a parser stack;
:func:`validate_event` is the single source of truth for the schema and
is what the CI telemetry smoke job runs over each line.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, Iterator, Optional

#: the closed set of event types; see DESIGN.md "Observability".
EVENT_TYPES = frozenset({
    "campaign-start",   # campaign + its parameters
    "campaign-end",     # seconds=wall time, status=completed |
                        # interrupted (KeyboardInterrupt) | failed
    "phase-start",      # phase=name
    "phase-end",        # phase=name, seconds=wall time
    "tasks-planned",    # total / cached / skipped for one dispatch
    "task-scheduled",   # index of the unit's first task (campaign-global)
    "store-hit",        # index served from the persistent store
    "task-started",     # index, worker (pid)
    "task-completed",   # index, worker, size (tasks in the unit), seconds
    "task-failed",      # index, error (exception type), message,
                        # key (first task's store key, with a store)
    "worker-start",     # worker (pid), first result seen from it
    "worker-exit",      # worker (pid)
    "shard-decision",   # shard=i/n, owned / skipped counts
    "resume",           # store=dir, hits already present
})

_RESERVED = ("ts", "event")
_SCALARS = (str, int, float, bool, type(None))


def validate_event(record: object) -> Dict:
    """Check one decoded event line against the schema; raise ValueError.

    Returns the record so callers can chain
    ``validate_event(json.loads(line))``.
    """
    if not isinstance(record, dict):
        raise ValueError(f"event is not an object: {record!r}")
    ts = record.get("ts")
    if not isinstance(ts, (int, float)) or isinstance(ts, bool) or ts < 0:
        raise ValueError(f"bad or missing ts: {record!r}")
    event = record.get("event")
    if event not in EVENT_TYPES:
        raise ValueError(f"unknown event type {event!r}: {record!r}")
    for key, value in record.items():
        if not isinstance(key, str):
            raise ValueError(f"non-string field name {key!r}")
        if not isinstance(value, _SCALARS):
            raise ValueError(
                f"non-scalar field {key}={value!r} in {record!r}")
    return record


def read_events(path) -> Iterator[Dict]:
    """Yield validated event records from a JSONL file, in file order."""
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield validate_event(json.loads(line))


class EventLog:
    """Appends schema-valid events to a JSONL file (or swallows them).

    With ``path=None`` the log validates and counts events but writes
    nothing — the shape used when ``--progress`` is requested without a
    ``--telemetry`` directory.
    """

    def __init__(self, path=None) -> None:
        self.path: Optional[Path] = Path(path) if path is not None else None
        self.counts: Dict[str, int] = {}
        self._handle = None
        self._origin = time.perf_counter()
        self._last_ts = 0.0
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "w", encoding="utf-8")

    def emit(self, event: str, **fields) -> Dict:
        if event not in EVENT_TYPES:
            raise ValueError(f"unknown event type {event!r}")
        for reserved in _RESERVED:
            if reserved in fields:
                raise ValueError(f"field {reserved!r} is reserved")
        ts = time.perf_counter() - self._origin
        # clamp: perf_counter is monotonic, but guard float rounding so
        # readers may rely on non-decreasing timestamps unconditionally
        ts = self._last_ts = max(ts, self._last_ts)
        record = {"ts": round(ts, 6), "event": event}
        for key in fields:
            value = fields[key]
            record[key] = value if isinstance(value, _SCALARS) \
                else str(value)
        validate_event(record)
        self.counts[event] = self.counts.get(event, 0) + 1
        if self._handle is not None:
            self._handle.write(json.dumps(record, sort_keys=False,
                                          separators=(",", ":")) + "\n")
            self._handle.flush()
        return record

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

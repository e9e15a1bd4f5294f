"""Campaign observability: events, metrics, timelines, progress.

Public surface:

- :class:`Telemetry` — per-campaign context created from ``--telemetry
  DIR`` / ``--progress``; owns the JSONL event log, the metrics
  registry, the chrome-trace timeline, and the stderr heartbeat.
- :func:`campaign` / :func:`phase` — :func:`campaign` makes a
  :class:`Telemetry` current while it is open; the dispatcher and
  :func:`phase` report to it, and do nothing when none is open.
- :func:`note` / :func:`set_quiet` — the single stderr diagnostics
  channel for the CLI, silenced by the global ``--quiet`` flag.
- :mod:`~repro.obs.hook` — the nil-by-default simulator counter sink.
- :func:`validate_event` / :func:`read_events` — the event schema.
- :func:`summarize` — ``repro stats DIR``.

Design rule (see DESIGN.md "Observability"): telemetry is strictly
observational.  No exported campaign artifact may differ by a byte
between telemetry on and off; each task counts into a registry of its
own and the campaign sums them, so metric totals are stable across
``--jobs``.
"""

from __future__ import annotations

import sys

from .._lazy import lazy_facade

lazy_facade(__name__, {
    "events": ("EVENT_TYPES", "EventLog", "read_events", "validate_event"),
    "hook": (),
    "metrics": ("DEFAULT_BOUNDS", "Histogram", "MetricsRegistry"),
    "progress": ("ProgressMeter",),
    "stats": ("summarize",),
    "telemetry": ("Telemetry", "campaign", "phase"),
    "trace": ("chrome_trace", "write_chrome_trace"),
})

# lazy_facade set __all__ from the map above
__all__ += ["hook", "note", "set_quiet"]

_QUIET = False


def set_quiet(quiet: bool) -> None:
    """Set the process-wide quiet flag (the CLI's global ``--quiet``)."""
    global _QUIET
    _QUIET = bool(quiet)


def note(text: str, stream=None) -> None:
    """Print one diagnostic line to stderr unless ``--quiet``.

    This is the only sanctioned channel for informational CLI chatter;
    stdout stays reserved for artifacts and machine-readable output.
    """
    if _QUIET:
        return
    (stream if stream is not None else sys.stderr).write(text + "\n")

"""Nil-by-default simulator telemetry hook.

The simulators (:mod:`repro.sim.sofia`, :mod:`repro.sim.vanilla`,
:mod:`repro.sim.batch`) report throughput and memo counters to whatever
sink is installed here.  ``SIM`` is ``None`` by default; machines capture
it **once at construction**, and every reporting site sits on a cold path
(an uncached front-end decrypt, the end of a ``run()`` call, a lockstep
fork) behind a single ``is not None`` check — with no sink installed the
hot step loops are untouched and the simulators behave exactly like an
uninstrumented build.  Instrumentation is *observational by contract*:
a sink may count, never steer; the invisibility suite
(``tests/test_obs_invisibility.py``) gates that campaign artifacts are
byte-identical with telemetry on and off.

The sink interface is a single method: ``sink.count(name, n=1)`` —
:class:`repro.obs.metrics.MetricsRegistry` satisfies it.  Worker
processes install a fresh per-process registry via
:mod:`repro.obs.worker`; the parent installs a campaign-scoped registry
through :class:`repro.obs.Telemetry` so serial-path simulation (triage
replays) is counted too; :func:`detached` keeps a block out of it (a
fault campaign's golden run, which a process or store may already hold).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional

#: the active simulator sink, or ``None`` (the default: no telemetry)
SIM: Optional[object] = None


def install(sink) -> None:
    """Install ``sink`` as the process-wide simulator telemetry sink."""
    global SIM
    SIM = sink


def uninstall() -> None:
    """Remove any installed sink (machines built afterwards count nothing)."""
    global SIM
    SIM = None


@contextmanager
def detached():
    """Run a block with no sink installed: machines built in it count
    nothing.  For work a campaign may or may not redo depending on what
    an earlier campaign left behind (a golden trace found in a cache), so
    that its counters depend only on the campaign itself."""
    global SIM
    previous, SIM = SIM, None
    try:
        yield
    finally:
        SIM = previous

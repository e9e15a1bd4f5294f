"""Nil-by-default simulator telemetry hook.

The simulators (:mod:`repro.sim.sofia`, :mod:`repro.sim.vanilla`,
:mod:`repro.sim.batch`) report throughput and memo counters to whatever
sink is set here.  ``SIM`` is ``None`` by default; machines capture
it **once at construction**, and every reporting site sits on a cold path
(an uncached front-end decrypt, the end of a ``run()`` call, a lockstep
fork) behind a single ``is not None`` check — with no sink set the
hot step loops are untouched and the simulators behave exactly like an
uninstrumented build.  Instrumentation is *observational by contract*:
a sink may count, never steer; the invisibility suite
(``tests/test_obs_invisibility.py``) gates that campaign artifacts are
byte-identical with telemetry on and off.

The sink interface is a single method: ``sink.count(name, n=1)`` —
:class:`repro.obs.metrics.MetricsRegistry` satisfies it.  :func:`counting`
is the one way to set it: :func:`repro.obs.campaign` counts into the
campaign's registry, the pool runs each task of an observed dispatch
under a registry of its own (:mod:`repro.runner.pool`), and
``counting(None)`` keeps a block out of both (a fault campaign's golden
run, which a process or store may already hold).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional

#: the active simulator sink, or ``None`` (the default: no telemetry)
SIM: Optional[object] = None


@contextmanager
def counting(sink):
    """Make ``sink`` the simulator sink for the block, then restore the
    previous one, also when the block raises; machines built in it count
    into ``sink`` (nowhere for ``None``)."""
    global SIM
    previous, SIM = SIM, sink
    try:
        yield sink
    finally:
        SIM = previous

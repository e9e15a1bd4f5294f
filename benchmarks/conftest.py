"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one experiment from DESIGN.md's per-experiment
index and prints the same rows the paper reports (visible with
``pytest benchmarks/ --benchmark-only -s``).  Shape assertions guard the
qualitative claims — who wins, by roughly what factor — without pinning
absolute simulator numbers.
"""

import platform

import pytest

import repro.sim.batch as batch
from repro.crypto import DeviceKeys
from repro.runner import available_cpus


@pytest.fixture(autouse=True)
def fresh_golden_traces(monkeypatch):
    """An empty per-process golden-trace cache for each benchmark, so a
    cold campaign records its golden run whatever ran before it (see
    :func:`repro.sim.batch.keep_trace`)."""
    monkeypatch.setattr(batch, "_TRACES", {})


@pytest.fixture(scope="session")
def keys():
    return DeviceKeys.from_seed(0xBEEF2016)


@pytest.fixture(scope="session")
def bench_environment():
    """Callable building the environment block benchmark JSON embeds.

    Timing numbers are only comparable within one host; the block names
    the host so archived records can be read honestly later.  ``engine``
    tags which simulator engine produced the rows.
    """
    def build(engine=None):
        env = {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "cpus": available_cpus(),
        }
        if engine is not None:
            env["engine"] = engine
        return env
    return build

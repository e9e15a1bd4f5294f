"""Shared fixtures for the simulator test suites.

The ``engine`` fixture parametrizes a test over every execution engine
(:data:`repro.sim.engine.ENGINES` — the tiered fast engine and the
reference oracle) and then over the fast engine pinned to each tier (see
below), so behavioural suites exercise every path without hand-rolled
loops.

The ``tier`` fixture pins the fast engine to one of its two tiers by
patching :data:`repro.sim.fused.COMPILE_THRESHOLD`: ``"compiled"``
source-compiles every SOFIA edge and vanilla run on its first traversal,
``"interpreted"`` never compiles, so every traversal is stepped by the
predecoded cold tier.  Small test programs never reach the default
threshold, so without this fixture the compiled tier would go untested.
"""

import pytest

import repro.sim.fused as fused
from repro.sim.engine import ENGINES

#: COMPILE_THRESHOLD per pinned tier (no test traverses anything 2**62
#: times, so "interpreted" never compiles)
TIER_THRESHOLDS = {"compiled": 1, "interpreted": 1 << 62}


#: (engine, pinned tier or None for the default heat policy) per case of
#: the ``engine`` fixture: every registered engine, then the fast engine
#: pinned to each tier
ENGINE_CASES = ([(name, None) for name in ENGINES]
                + [("fast", tier) for tier in sorted(TIER_THRESHOLDS)])


@pytest.fixture(params=ENGINE_CASES,
                ids=lambda case: "-".join(filter(None, case)))
def engine(request, monkeypatch):
    """Each registered execution engine in turn, then the fast engine
    pinned to each of its tiers; yields the name to pass as ``engine=``."""
    name, tier = request.param
    if tier is not None:
        monkeypatch.setattr(fused, "COMPILE_THRESHOLD", TIER_THRESHOLDS[tier])
    return name


@pytest.fixture(params=sorted(TIER_THRESHOLDS))
def tier(request, monkeypatch):
    """Each tier of the fast engine in turn (see the module docstring)."""
    monkeypatch.setattr(fused, "COMPILE_THRESHOLD",
                        TIER_THRESHOLDS[request.param])
    return request.param

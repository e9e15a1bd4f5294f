"""Shared fixtures for the simulator test suites.

The ``engine`` fixture parametrizes a test over every execution engine
(:data:`repro.sim.engine.ENGINES` — the tiered fast engine and the
reference oracle) and then over the fast engine pinned to each tier (see
below), so behavioural suites exercise every path without hand-rolled
loops.

The ``tier`` fixture pins the fast engine to one of its tiers by patching
:data:`repro.sim.fused.COMPILE_THRESHOLD`: ``"compiled"`` compiles a
region on every SOFIA edge's and vanilla run's first traversal,
``"interpreted"`` never compiles, so every traversal is stepped by the
predecoded cold tier.  Small test programs never reach the default
threshold, so without this fixture the compiled tier would go untested.
On its first traversals a SOFIA edge has few verified successors, so
``"compiled"`` forms mostly one-block regions; ``"regions"`` forms the
multi-block regions a campaign runs: every new memoizing
:class:`~repro.sim.SofiaMachine` first adopts the block cache of a warm
interpret-only run of its image, then compiles on first traversal.
"""

import pytest

import repro.sim.fused as fused
from repro.sim import SofiaMachine
from repro.sim.engine import ENGINES
from repro.transform.image import FrontEndMemo

#: COMPILE_THRESHOLD per pinned tier (no test traverses anything 2**62
#: times, so "interpreted" never compiles)
TIER_THRESHOLDS = {"compiled": 1, "interpreted": 1 << 62, "regions": 1}

#: the instruction budget of the warm pass of the "regions" tier
WARM_BUDGET = 500_000


#: (engine, pinned tier or None for the default heat policy) per case of
#: the ``engine`` fixture: every registered engine, then the fast engine
#: pinned to each tier
ENGINE_CASES = ([(name, None) for name in ENGINES]
                + [("fast", tier) for tier in sorted(TIER_THRESHOLDS)])


def warm_start(monkeypatch):
    """Make every new memoizing SofiaMachine adopt the blocks a warm
    interpret-only run of the same image, keys, profile and timing
    verified (one warm run each, shared by the test's later machines)."""
    init = SofiaMachine.__init__
    warm = {}

    def __init__(self, image, keys, *args, **kwargs):
        init(self, image, keys, *args, **kwargs)
        if not self.memoize:
            return
        # predecoded blocks carry the timing's cycle costs
        key = (id(image), id(keys), self.profile, self.timing)
        if key not in warm:
            twin = SofiaMachine.__new__(SofiaMachine)
            init(twin, image, keys, *args, **kwargs)
            threshold = fused.COMPILE_THRESHOLD
            fused.COMPILE_THRESHOLD = TIER_THRESHOLDS["interpreted"]
            try:
                twin.run(WARM_BUDGET)
            finally:
                fused.COMPILE_THRESHOLD = threshold
            # the image and keys are kept, so their ids stay theirs, and
            # so is the twin, so its RAM never reaches the buffer pool
            warm[key] = (image, keys, twin)
        self._block_cache.update(warm[key][2]._block_cache)

    monkeypatch.setattr(SofiaMachine, "__init__", __init__)


def pin_tier(monkeypatch, tier):
    """Pin the fast engine to ``tier`` for the rest of the test
    (``"default"``, which a module may add to its cases, keeps the heat
    policy campaigns run).

    A machine adopts the region it finds on a verified block, and
    verified blocks are shared through the image's block plane, so each
    pinned tier gets block planes of its own: an image a module shares
    across tests never hands one tier's compiled code to another.
    """
    if tier == "default":
        return
    monkeypatch.setattr(fused, "COMPILE_THRESHOLD", TIER_THRESHOLDS[tier])
    blocks_for = FrontEndMemo.blocks_for
    monkeypatch.setattr(
        FrontEndMemo, "blocks_for",
        lambda memo, keys, nonce, profile, timing, layout: blocks_for(
            memo, keys, nonce, profile, timing, (tier, layout)))
    if tier == "regions":
        warm_start(monkeypatch)


@pytest.fixture(params=ENGINE_CASES,
                ids=lambda case: "-".join(filter(None, case)))
def engine(request, monkeypatch):
    """Each registered execution engine in turn, then the fast engine
    pinned to each of its tiers; yields the name to pass as ``engine=``."""
    name, tier = request.param
    if tier is not None:
        pin_tier(monkeypatch, tier)
    return name


@pytest.fixture(params=sorted(TIER_THRESHOLDS))
def tier(request, monkeypatch):
    """Each tier of the fast engine in turn (see the module docstring)."""
    pin_tier(monkeypatch, request.param)
    return request.param

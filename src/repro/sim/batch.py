"""Lockstep batch simulation: the fault campaign's strategy (experiment E18).

Fault campaigns execute thousands of *near-identical* specimens: each one
replays the same clean prefix of the same protected image before
diverging — at a fault trigger, a tampered block, a detection reset.
:class:`LockstepLeader` runs that clean prefix once, in stints, and
:func:`fork_machine` peels a byte-exact specimen machine off at each
trigger point.  Soundness of stinted advancement: ``run()`` only ever
stops at a block-commit boundary, overshooting its budget to the *first
boundary >= budget*; the boundary sequence of the deterministic clean
run is fixed, so advancing to ascending triggers ``t1 <= t2 <= ...``
visits exactly the states a fresh scalar ``run(max_instructions=t_i)``
would reach.  The leader stops advancing at any terminal (non-LIMIT)
status because re-running a halted machine re-executes block payload —
forks made after that point replicate the terminal state, exactly like
the scalar path.

Specimens resume on the fast engine, so every per-commit observable
(registers, PC, memory, cycles, I-cache stats) is byte-identical to a
fresh run — the batch differential suite and the W=1 == per-specimen
determinism tests gate this.  The cipher work needs no strategy of its
own here: the leader, like every machine, adopts the keystream and seal
memos the image carries from ``seal``
(:class:`~repro.transform.image.FrontEndMemo`).
"""

from __future__ import annotations

from ..crypto.bitslice import WIDTH
from .result import Status
from .sofia import SofiaMachine
from .timing import DEFAULT_TIMING, TimingParams

#: specimens per lockstep chunk — one per bit-slice lane.
BATCH_WIDTH = WIDTH


def fork_machine(source: SofiaMachine) -> SofiaMachine:
    """A byte-exact, independently runnable copy of ``source``.

    The architectural state (registers, PC, prevPC, code, RAM, MMIO logs,
    I-cache tags and stats, fault hooks) is copied; the pure keystream and
    seal memos come from the image's front-end memo, as for any machine;
    the block cache is copied, not shared — a specimen that tampers with
    code clears and repopulates *its own* copy from its own memory.
    """
    clone = SofiaMachine(source.image, source.keys, timing=source.timing,
                         memoize=source.memoize, profile=source.profile)
    clone.state.regs[:] = source.state.regs
    clone.state.pc = source.state.pc
    clone.prev_pc = source.prev_pc
    memory, donor = clone.memory, source.memory
    memory.code[:] = donor.code
    memory.ram[:] = donor.ram
    mmio, donor_mmio = memory.mmio, donor.mmio
    mmio.chars[:] = donor_mmio.chars
    mmio.ints[:] = donor_mmio.ints
    mmio.words[:] = donor_mmio.words
    mmio.actuator[:] = donor_mmio.actuator
    mmio.exit_code = donor_mmio.exit_code
    clone.icache._tags[:] = source.icache._tags
    clone.icache.stats.hits = source.icache.stats.hits
    clone.icache.stats.misses = source.icache.stats.misses
    clone._block_cache = dict(source._block_cache)
    clone.verify_skip_budget = source.verify_skip_budget
    clone.pending_fetch_restore = source.pending_fetch_restore
    return clone


class LockstepLeader:
    """One shared clean run; per-specimen machines fork off at triggers.

    ``fork_at`` must be called with non-decreasing trigger instruction
    counts (sort the specimens first); each call advances the leader by a
    stint and returns a fork whose state is byte-identical to a fresh
    scalar machine run for ``trigger`` instructions.
    """

    def __init__(self, image, keys, timing: TimingParams = DEFAULT_TIMING,
                 profile=None) -> None:
        self.machine = SofiaMachine(image, keys, timing=timing,
                                    profile=profile)
        self.executed = 0
        self.halted = False

    def fork_at(self, trigger: int) -> SofiaMachine:
        if not self.halted and trigger > self.executed:
            result = self.machine.run(max_instructions=trigger - self.executed)
            self.executed += result.instructions
            if result.status is not Status.LIMIT:
                # terminal state: re-running would re-execute the block,
                # so later forks replicate this state instead
                self.halted = True
        obs = self.machine._obs
        if obs is not None:
            obs.count("sim.lockstep.forks")
        return fork_machine(self.machine)

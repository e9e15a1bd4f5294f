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

:class:`GoldenTrace` ends a specimen early once it provably rejoins the
clean run.  The clean run is recorded once, in stints of
:data:`CHECK_EVERY` instructions, with a checkpoint at every stint
boundary; a fork resumes in stints that end on those same boundaries
(each stint asks for ``min(next checkpoint - absolute, budget left)``,
so by the stint argument above a LIMIT still lands where one
``run(max_instructions)`` call would).  A fork that stops on a
checkpoint's exact instruction count and equals it on everything the
golden suffix can observe — pc and prevPC, every register the golden run
ever reads, every code word it ever fetches or loads, all of RAM, the
MMIO logs — with no fetch glitch pending, and whose remaining budget
covers the golden suffix, executes that suffix instruction for
instruction, so its outcome *is* the golden outcome and the rest of the
run is skipped.  A pending comparator glitch (``verify_skip_budget``)
may differ: the suffix fetches only the recorded, equal words, and none
of them fails its MAC.  A golden run that writes code records no
checkpoints, so convergence never applies to it.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from ..crypto.bitslice import WIDTH
from .result import ExecutionResult, Status
from .sofia import SofiaMachine
from .timing import DEFAULT_TIMING, TimingParams

#: specimens per lockstep chunk — one per bit-slice lane.
BATCH_WIDTH = WIDTH

#: instructions per golden-run stint: the spacing of the checkpoints a
#: fork is compared with (a fixed constant, not a tuning option)
CHECK_EVERY = 2048

#: granularity of a checkpoint's RAM snapshot: only pages that differ from
#: the image's initial RAM are kept
PAGE_BYTES = 4096


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


def _join(total: Optional[ExecutionResult],
          part: ExecutionResult) -> ExecutionResult:
    """One result for consecutive ``run()`` stints on one machine.

    Counts add up; status, exit code, violation and trap reason are the
    last stint's, and the MMIO device and I-cache statistics are the
    machine's own objects either way — the result one ``run()`` call
    covering every stint returns.
    """
    if total is None:
        return part
    return replace(part, cycles=total.cycles + part.cycles,
                   instructions=total.instructions + part.instructions,
                   blocks_executed=(total.blocks_executed
                                    + part.blocks_executed),
                   mac_fetch_cycles=(total.mac_fetch_cycles
                                     + part.mac_fetch_cycles))


_ZERO_PAGE = bytes(PAGE_BYTES)


def _changed_pages(ram: bytearray, data: bytes) -> Dict[int, bytes]:
    """``offset -> page`` for every page of ``ram`` that differs from a
    fresh machine's RAM: the image's data segment, zero beyond it (see
    :class:`~repro.sim.memory.Memory`)."""
    changed = {}
    for low in range(0, len(ram), PAGE_BYTES):
        page = ram[low:low + PAGE_BYTES]
        if low >= len(data) and len(page) == PAGE_BYTES:
            if page == _ZERO_PAGE:   # the common case, without a copy
                continue
        else:
            initial = data[low:low + PAGE_BYTES]
            if page == initial + _ZERO_PAGE[len(initial):len(page)]:
                continue
        changed[low] = bytes(page)
    return changed


@dataclass(frozen=True)
class Checkpoint:
    """The golden machine's observable state at one stint boundary."""

    instructions: int                 # absolute count at the boundary
    pc: int
    prev_pc: int
    regs: Tuple[int, ...]             # GoldenTrace.read_regs, in order
    mmio: tuple                       # (chars, ints, words, actuator, exit)
    pages: Dict[int, bytes]           # offset -> page, where RAM differs
                                      # from the image's initial RAM


def _mmio_state(machine: SofiaMachine) -> tuple:
    mmio = machine.memory.mmio
    return (tuple(mmio.chars), tuple(mmio.ints), tuple(mmio.words),
            tuple(mmio.actuator), mmio.exit_code)


@dataclass(frozen=True)
class GoldenTrace:
    """The clean run of one image, checkpointed for fork convergence.

    ``result`` is the clean run's final :class:`ExecutionResult` (its
    counts cover the whole run).  ``read_regs`` are the registers any
    verified payload instruction of the run names as ``rs1``/``rs2``;
    ``code_at`` are the indices of every code word the run fetches or
    loads, ``code_words`` those words; ``checkpoints`` is empty when the
    run writes code or does not terminate within its budget.  Record one
    with :meth:`record`, then finish forks with :meth:`resume`.
    """

    result: ExecutionResult
    read_regs: Tuple[int, ...]
    code_at: Tuple[int, ...]
    code_words: Tuple[int, ...]
    checkpoints: Tuple[Checkpoint, ...]

    @classmethod
    def record(cls, image, keys, max_instructions: int) -> "GoldenTrace":
        """Run ``image`` cleanly for up to ``max_instructions``, in
        :data:`CHECK_EVERY` stints, checkpointing every stint boundary —
        on a default machine, like the forks :class:`LockstepLeader`
        makes."""
        machine = SofiaMachine(image, keys)
        memory = machine.memory
        code_writes = []
        memory.add_code_listener(code_writes.append)
        # code words read as data are as much a part of the golden
        # suffix's input as fetched ones; this machine's loads note them
        loaded = set()
        plain_load = memory.load

        def load(address, size, signed):
            if memory.in_code(address):
                loaded.add(address)
            return plain_load(address, size, signed)

        memory.load = load
        snapshots = []
        pages: Dict[int, bytes] = {}
        mmio_state = None
        result = None
        while True:
            executed = result.instructions if result is not None else 0
            result = _join(result, machine.run(
                min(CHECK_EVERY, max_instructions - executed)))
            if (result.status is not Status.LIMIT
                    or result.instructions >= max_instructions):
                break
            # consecutive checkpoints share unchanged pages and logs
            previous = pages
            pages = {low: previous[low] if previous.get(low) == page
                     else page for low, page
                     in _changed_pages(memory.ram, image.data).items()}
            mmio = _mmio_state(machine)
            mmio_state = mmio if mmio != mmio_state else mmio_state
            snapshots.append((result.instructions, machine.state.pc,
                              machine.prev_pc, tuple(machine.state.regs),
                              mmio_state, pages))
        blocks = machine._block_cache.values()
        read_regs = tuple(sorted({
            reg for block in blocks if block.ok
            for instr, _address, _slot in block.payload
            for reg in (instr.rs1, instr.rs2) if reg is not None}))
        fetched = {address for block in blocks
                   for address in block.fetch_addresses} | loaded
        code_at = tuple((address - memory.code_base) >> 2
                        for address in sorted(fetched))
        code_words = tuple(memory.code[index] for index in code_at)
        checkpoints = ()
        if not code_writes and result.status is not Status.LIMIT:
            checkpoints = tuple(
                Checkpoint(count, pc, prev_pc,
                           tuple(regs[reg] for reg in read_regs),
                           mmio, snapshot_pages)
                for count, pc, prev_pc, regs, mmio, snapshot_pages
                in snapshots)
        return cls(result, read_regs, code_at, code_words, checkpoints)

    def matches(self, machine: SofiaMachine, checkpoint: Checkpoint) -> bool:
        """True when ``machine`` is at ``checkpoint`` on everything the
        golden suffix observes (and has no fetch glitch pending)."""
        state = machine.state
        if (machine.pending_fetch_restore is not None
                or state.pc != checkpoint.pc
                or machine.prev_pc != checkpoint.prev_pc):
            return False
        regs = state.regs
        if tuple(regs[reg] for reg in self.read_regs) != checkpoint.regs:
            return False
        if _mmio_state(machine) != checkpoint.mmio:
            return False
        memory = machine.memory
        code = memory.code
        if code != machine.image.words and tuple(
                map(code.__getitem__, self.code_at)) != self.code_words:
            return False
        return (_changed_pages(memory.ram, machine.image.data)
                == checkpoint.pages)

    def resume(self, machine: SofiaMachine, start: int,
               max_instructions: int
               ) -> Tuple[ExecutionResult, Optional[int]]:
        """Finish ``machine``, a fork at absolute instruction ``start``, as
        ``machine.run(max_instructions)`` would.

        Returns ``(result, skipped)``.  When the fork rejoins the golden
        run at a checkpoint, ``result`` is the golden final result — the
        fork's own outcome, status, violation, trap reason and output,
        though its counts are the golden run's — and ``skipped`` the
        golden instructions left unsimulated; otherwise ``result`` is the
        fork's own and ``skipped`` is ``None``.
        """
        golden = self.result
        checkpoints = self.checkpoints
        if not checkpoints or golden.instructions - start >= max_instructions:
            # no checkpoint to meet, or the budget would cut the golden
            # suffix short: the plain run is the only sound answer
            return machine.run(max_instructions), None
        counts = [checkpoint.instructions for checkpoint in checkpoints]
        index = bisect_right(counts, start)
        result = None
        executed = 0
        while True:
            budget = max_instructions - executed
            if index < len(checkpoints):
                target = counts[index]
                result = _join(result, machine.run(
                    min(target - start - executed, budget)))
            else:
                target = None
                result = _join(result, machine.run(budget))
            executed = result.instructions
            if (result.status is not Status.LIMIT
                    or executed >= max_instructions):
                return result, None
            absolute = start + executed
            if absolute == target and self.matches(machine,
                                                   checkpoints[index]):
                return golden, golden.instructions - absolute
            index = bisect_right(counts, absolute, index)

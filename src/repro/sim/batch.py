"""Golden-trace forking: the fault campaign's strategy (experiment E18).

Fault campaign specimens are *near-identical*: each replays the same clean
prefix of the same protected image before diverging at its fault trigger.
:class:`GoldenTrace` runs that clean (golden) run once, in stints of
:data:`CHECK_EVERY` instructions, keeping the whole resumable machine
state at every stint boundary and, at the end, the golden verified-block
cache; :meth:`GoldenTrace.fork_at` adopts those blocks, restores the
nearest checkpoint at or before a trigger and runs the rest, so a
specimen's prefix costs at most one stint.  Soundness: ``run()`` only
ever stops at a block-commit boundary, overshooting its budget to the
*first boundary >= budget*; the boundaries of the deterministic clean run
are fixed, so running ``t - c`` more instructions from the checkpoint at
``c <= t`` stops where a fresh ``run(max_instructions=t)`` stops — and at
a terminal status, so a trigger past the golden end replicates it.  A
verified block is a pure function of the words it fetches (see
:mod:`repro.sim.sofia`): a fork re-writes every word the golden run ever
writes with its checkpoint value through ``poke_code``, which drops each
adopted block fetching one.  Specimens resume on the fast engine, so every
per-commit observable is byte-identical to a fresh run; the keystream and
seal memos come with the image (:class:`~repro.transform.image.FrontEndMemo`).

A specimen also ends early once it provably rejoins the golden run.  It
resumes in stints that end on the checkpoints (each asks for ``min(next
checkpoint - absolute, budget left)``, so a LIMIT still lands where one
``run(max_instructions)`` call would).  A fork that stops on a
checkpoint's exact count and equals it on everything the golden suffix
can observe — pc and prevPC, every register the golden run ever reads,
every code word it ever fetches or loads, all of RAM, the MMIO logs —
with no fetch glitch pending, and whose remaining budget covers the
golden suffix, executes that suffix instruction for instruction, so its
outcome *is* the golden outcome.  A pending comparator glitch
(``verify_skip_budget``) may differ: the suffix fetches only recorded,
equal words, none of which fails its MAC.  A golden run that writes code
never converges (its final block cache would under-report what it
fetched), though its checkpoints still serve forks.

A trace depends only on the sealed image's bytes, the keys and the
budget, so a process records each one once: :func:`cached_trace` and
:func:`keep_trace` keep the last :data:`TRACE_CACHE_ENTRIES` traces,
blocks and compiled regions included, under a key the caller derives
from those inputs.  A pickled trace (a campaign's store entry) drops its
blocks but keeps their edges and their regions' member edges, and
:meth:`GoldenTrace.warm` rebuilds them before its first fork.
"""

from __future__ import annotations

from bisect import bisect_right
from copy import copy
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from ..crypto.bitslice import WIDTH
from ..obs import hook as obs_hook
from . import fused
from .memory import changed_pages
from .result import ExecutionResult, Status
from .sofia import SofiaMachine

#: specimens per lockstep chunk — one per bit-slice lane.
BATCH_WIDTH = WIDTH

#: instructions per golden-run stint: the spacing of the checkpoints
#: forks start from and meet (a fixed constant, not a tuning option)
CHECK_EVERY = 2048

#: golden traces a process keeps (:func:`keep_trace`), oldest out first
#: (a fixed constant, not a tuning option)
TRACE_CACHE_ENTRIES = 8

_TRACES: Dict[str, "GoldenTrace"] = {}


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


@dataclass(frozen=True)
class Checkpoint:
    """The golden machine's whole resumable state at one stint boundary;
    ``pages`` and ``code`` hold only what differs from the image."""

    instructions: int                 # absolute count at the boundary
    pc: int
    prev_pc: int
    regs: Tuple[int, ...]             # all 32 registers
    mmio: tuple                       # (chars, ints, words, actuator, exit)
    pages: Dict[int, bytes]           # offset -> page where RAM differs
    code: Dict[int, int]              # index -> word where code differs
    icache: tuple                     # (tags, hits, misses)


def _block_plan(blocks: dict) -> tuple:
    """``(block_edges, regions)`` of the golden ``blocks`` a fork keeps:
    a block's region counts only if a fork holding ``blocks`` adopts it
    (each member is one of them, with the payload it was compiled
    from)."""
    order: Dict[int, int] = {}
    regions = []
    edges = []
    for key, block in blocks.items():
        region, index = block.region, None
        if region is not None and all(
                edge in blocks and blocks[edge].payload is payload
                for edge, payload in region.members):
            index = order.get(id(region))
            if index is None:
                index = order[id(region)] = len(regions)
                regions.append(tuple(edge for edge, _p in region.members))
        edges.append((key, index))
    return tuple(edges), tuple(regions)


def cached_trace(key: str) -> Optional["GoldenTrace"]:
    """The trace this process keeps under ``key``, if any."""
    return _TRACES.get(key)


def keep_trace(key: str, trace: "GoldenTrace") -> None:
    """Keep ``trace`` under ``key`` (a digest of everything it depends
    on: image bytes, keys, budget) for later campaigns in this process;
    past :data:`TRACE_CACHE_ENTRIES` traces the oldest goes."""
    if key not in _TRACES and len(_TRACES) >= TRACE_CACHE_ENTRIES:
        del _TRACES[next(iter(_TRACES))]
    _TRACES[key] = trace


def _mmio_state(machine: SofiaMachine) -> tuple:
    mmio = machine.memory.mmio
    return (tuple(mmio.chars), tuple(mmio.ints), tuple(mmio.words),
            tuple(mmio.actuator), mmio.exit_code)


@dataclass(frozen=True)
class GoldenTrace:
    """The clean run of one image, checkpointed for forks and convergence.

    ``result`` is the clean run's final :class:`ExecutionResult` (its
    counts cover the whole run).  ``read_regs`` are the registers any
    verified payload instruction of the run names as ``rs1``/``rs2``;
    ``code_at`` are the indices of every code word the run fetches or
    loads, ``code_words`` those words, ``written`` the indices it writes.
    ``blocks`` is the golden machine's final verified-block cache.
    Compiled handlers do not pickle, so pickling drops ``blocks`` and
    keeps what :meth:`warm` rebuilds them from: ``block_edges``, the
    edge of each block a fork keeps (none that fetches a written word)
    with the index in ``regions`` of the region it carries, or ``None``,
    and ``regions``, each such region's member edges.  Record a trace
    with :meth:`record`, build forks with :meth:`fork_at`, finish them
    with :meth:`resume`.
    """

    result: ExecutionResult
    read_regs: Tuple[int, ...]
    code_at: Tuple[int, ...]
    code_words: Tuple[int, ...]
    checkpoints: Tuple[Checkpoint, ...]
    written: Tuple[int, ...]
    blocks: dict = field(default_factory=dict, compare=False, repr=False)
    block_edges: Tuple[Tuple[Tuple[int, int], Optional[int]], ...] = ()
    regions: Tuple[Tuple[Tuple[int, int], ...], ...] = ()

    def __getstate__(self) -> dict:
        # the fields alone (not the derived ``counts``), so a trace
        # pickles to the same bytes whatever it has done since
        state = {f.name: getattr(self, f.name) for f in fields(self)}
        state["blocks"] = {}
        return state

    @cached_property
    def counts(self) -> List[int]:   # the checkpoints', ascending
        return [checkpoint.instructions for checkpoint in self.checkpoints]

    @property
    def converges(self) -> bool:
        """Whether a fork may take the golden result at a checkpoint: the
        run terminated within its budget and wrote no code."""
        return not self.written and self.result.status is not Status.LIMIT

    @classmethod
    def record(cls, image, keys, max_instructions: int) -> "GoldenTrace":
        """Run ``image`` cleanly for up to ``max_instructions``, in
        :data:`CHECK_EVERY` stints, checkpointing every stint boundary —
        on a default machine, like the forks :meth:`fork_at` makes."""
        machine = SofiaMachine(image, keys)
        memory = machine.memory
        written = set()
        code_base = memory.code_base
        memory.add_code_listener(
            lambda address: written.add((address - code_base) >> 2))
        # code words read as data are as much a part of the golden
        # suffix's input as fetched ones; this machine's loads note them
        loaded = set()
        plain_load = memory.load

        def load(address, size, signed):
            if memory.in_code(address):
                loaded.add(address)
            return plain_load(address, size, signed)

        memory.load = load
        checkpoints = []
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
                     in changed_pages(memory.ram, image.data).items()}
            mmio = _mmio_state(machine)
            mmio_state = mmio if mmio != mmio_state else mmio_state
            code = {index: memory.code[index] for index in written
                    if memory.code[index] != image.words[index]}
            stats = machine.icache.stats
            checkpoints.append(Checkpoint(
                result.instructions, machine.state.pc, machine.prev_pc,
                tuple(machine.state.regs), mmio_state, pages, code,
                (tuple(machine.icache._tags), stats.hits, stats.misses)))
        # the instrumented load closes over the memory's own bound load:
        # drop it, so the machine is freed by refcount alone
        del memory.load
        blocks = machine._block_cache
        read_regs = tuple(sorted({
            reg for block in blocks.values() if block.ok
            for instr, _address, _slot in block.payload
            for reg in (instr.rs1, instr.rs2) if reg is not None}))
        fetched = {address for block in blocks.values()
                   for address in block.fetch_addresses} | loaded
        code_at = tuple((address - code_base) >> 2
                        for address in sorted(fetched))
        code_words = tuple(memory.code[index] for index in code_at)
        # fork_at's writes drop every block fetching a written word
        stale = {code_base + 4 * index for index in written}
        kept = {key: block for key, block in blocks.items()
                if stale.isdisjoint(block.fetch_addresses)}
        return cls(result, read_regs, code_at, code_words,
                   tuple(checkpoints), tuple(sorted(written)), blocks,
                   *_block_plan(kept))

    def warm(self, image, keys) -> None:
        """Give a pickled trace back its golden blocks, in place: verify
        each on a fresh machine on ``image`` (the recorded image, or one
        with the same bytes) and compile each region onto them, counting
        nothing.  A no-op on a trace that has its blocks."""
        if self.blocks or not self.block_edges:
            return
        with obs_hook.counting(None):
            machine = SofiaMachine(image, keys)
        blocks = {key: machine.decrypt_and_verify(*key)
                  for key, _region in self.block_edges}
        regions = [fused.compile_sofia_block(
            [(key, blocks[key]) for key in members], machine.timing,
            machine.icache, machine.memory, image.block_bytes)
            for members in self.regions]
        for key, region in self.block_edges:
            if region is not None:
                blocks[key].region = regions[region]
        self.blocks.update(blocks)

    def copy(self) -> "GoldenTrace":
        """This trace with a shallow copy of every golden block: what the
        copy's forks predecode or compile onto them stays with it."""
        return replace(self, blocks={key: copy(block) for key, block
                                     in self.blocks.items()})

    def fork_at(self, image, keys,
                trigger: int) -> Tuple[SofiaMachine, int]:
        """A fresh machine on ``image`` (the recorded one, perhaps with its
        own memo copy) in the state ``run(max_instructions=trigger)``
        reaches, and the absolute instruction count there."""
        machine = SofiaMachine(image, keys)
        machine._block_cache.update(self.blocks)
        memory = machine.memory
        start = 0
        code: Dict[int, int] = {}
        index = bisect_right(self.counts, trigger)
        if index:
            checkpoint = self.checkpoints[index - 1]
            start, code = checkpoint.instructions, checkpoint.code
            state = machine.state
            state.regs[:] = checkpoint.regs
            state.pc = checkpoint.pc
            machine.prev_pc = checkpoint.prev_pc
            for low, page in checkpoint.pages.items():
                memory.ram[low:low + len(page)] = page
            mmio = memory.mmio
            (mmio.chars[:], mmio.ints[:], mmio.words[:], mmio.actuator[:],
             mmio.exit_code) = checkpoint.mmio
            icache = machine.icache
            tags, icache.stats.hits, icache.stats.misses = checkpoint.icache
            icache._tags[:] = tags
        # each word the golden run writes takes its checkpoint value; the
        # write drops every adopted block that fetches it
        for word in self.written:
            memory.poke_code(memory.code_base + 4 * word,
                             code.get(word, image.words[word]))
        if trigger > start:
            start += machine.run(trigger - start).instructions
        obs = machine._obs
        if obs is not None:
            obs.count("sim.lockstep.forks")
        return machine, start

    def matches(self, machine: SofiaMachine, checkpoint: Checkpoint) -> bool:
        """True when ``machine`` is at ``checkpoint`` on everything the
        golden suffix observes (and has no fetch glitch pending)."""
        state = machine.state
        if (machine.pending_fetch_restore is not None
                or state.pc != checkpoint.pc
                or machine.prev_pc != checkpoint.prev_pc):
            return False
        regs, golden = state.regs, checkpoint.regs
        if any(regs[reg] != golden[reg] for reg in self.read_regs):
            return False
        if _mmio_state(machine) != checkpoint.mmio:
            return False
        memory = machine.memory
        code = memory.code
        if code != machine.image.words and tuple(
                map(code.__getitem__, self.code_at)) != self.code_words:
            return False
        return (changed_pages(memory.ram, machine.image.data)
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
        if (not self.converges
                or golden.instructions - start >= max_instructions):
            # no checkpoint to meet, or the budget would cut the golden
            # suffix short: the plain run is the only sound answer
            return machine.run(max_instructions), None
        checkpoints, counts = self.checkpoints, self.counts
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

"""Vanilla (unprotected) LEON3-like machine.

Executes a plain :class:`~repro.isa.program.Executable` with the shared
functional core and cycle model.  This is the paper's baseline processor:
it happily runs injected or tampered code — the attack suite uses exactly
that property for its differential experiments.

Two execution engines drive the same architectural model (see
:mod:`repro.sim.engine`): the default ``"fast"`` engine steps
per-PC-cached predecoded handlers while code is cold and source-compiles
each straight-line run once it is hot (:mod:`repro.sim.fused`), and the
``"reference"`` engine steps :func:`repro.sim.core.execute` — the
semantics oracle the differential suite locksteps against.  Both produce
bit-identical :class:`~repro.sim.result.ExecutionResult`\\ s.  A run with
an ``on_commit`` hook, or one resumed with the MMIO exit register already
written, is always executed by the oracle, so the fast engine keeps one
hook-less loop.

A decoded instruction and its predecoded step are pure functions of the
fetched word, its pc and the timing, so both engines look them up in a
plane their :class:`~repro.isa.program.Executable` holds per timing:
every machine of a program decodes a word once, and a poked word is just
another key.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..errors import DecodingError, SimulationError
from ..isa.encoding import decode
from ..isa.instructions import Instruction
from ..isa.program import Executable
from ..obs import hook as obs_hook
from . import fused
from .cache import DirectMappedCache
from .core import CPUState, execute
from .engine import KIND_STORE, predecode, resolve_engine, run_loop
from .memory import Memory
from .result import ExecutionResult, Status
from .timing import DEFAULT_TIMING, TimingParams, instruction_cycles


class VanillaMachine:
    """Functional + cycle-accounting simulator of the unmodified core."""

    def __init__(self, executable: Executable,
                 timing: TimingParams = DEFAULT_TIMING,
                 engine: Optional[str] = None) -> None:
        self.executable = executable
        self.timing = timing
        self.engine = resolve_engine(engine)
        self.memory = Memory(executable.code_words,
                             code_base=executable.code_base,
                             data=executable.data,
                             data_base=executable.data_base)
        self.icache = DirectMappedCache(timing.icache_lines,
                                        timing.icache_line_words)
        self.state = CPUState.reset(executable.entry)
        #: (word, pc) -> (instruction, predecoded step), shared by every
        #: machine of this executable under this timing
        self._plane = executable.step_planes.setdefault(timing, {})
        #: pc -> its plane entry ``(instr, step)``, popped by a code write
        #: (see :func:`repro.sim.engine.predecode` for the step)
        self._predecoded: Dict[int, Tuple[Instruction, tuple]] = {}
        #: compiled run handlers (repro.sim.fused), keyed by the run's
        #: start PC; ``_fused_cover`` maps every covered address back to
        #: its start PCs so one code write invalidates exactly the runs
        #: that compiled that word (mirroring the per-PC predecode pops)
        self._fused_runs: Dict[int, tuple] = {}
        self._fused_cover: Dict[int, set] = {}
        #: traversals per run start PC not yet compiled: a run is stepped
        #: by the predecoded cold tier until it reaches COMPILE_THRESHOLD
        self._fused_heat: Dict[int, int] = {}
        #: optional tracing hook, called as on_commit(pc, instr) after each
        #: committed instruction (see repro.sim.trace); a run with a hook
        #: is executed by the reference oracle
        self.on_commit = None
        #: telemetry sink captured once at construction (repro.obs.hook);
        #: ``None`` by default, consulted only at the end of run()
        self._obs = obs_hook.SIM
        # any code write invalidates decoded instructions (self-modifying
        # code / injection attacks must see their new bytes)
        self.memory.add_code_listener(self._on_code_write)

    def _on_code_write(self, address: int) -> None:
        self._predecoded.pop(address, None)
        starts = self._fused_cover.pop(address, None)
        if starts:
            fused_runs = self._fused_runs
            for start in starts:
                fused_runs.pop(start, None)

    def _flush_decoded(self) -> None:
        """Drop every cached predecode (coupled-word encodings)."""
        self._predecoded.clear()
        self._fused_runs.clear()
        self._fused_cover.clear()

    def _fetch_word(self, pc: int) -> int:
        """The word the decoder sees at ``pc``: the stored one here; the
        ISR baselines decrypt it."""
        return self.memory.fetch_word(pc)

    def _decode(self, pc: int) -> Tuple[Instruction, tuple]:
        """``(instr, step)`` at ``pc``, looked up in the executable's plane
        by the fetched word (decoded and predecoded only on a plane miss)
        and cached per pc until a code write.  A fetch fault raises before
        a decode fault, as in hardware."""
        word = self._fetch_word(pc)
        key = (word, pc)
        entry = self._plane.get(key)
        if entry is None:
            instr = decode(word, pc)
            entry = self._plane[key] = (instr, predecode(instr, self.timing))
        self._predecoded[pc] = entry
        return entry

    def run(self, max_instructions: int = 50_000_000) -> ExecutionResult:
        """Run to completion (halt/exit/trap) or the instruction budget on
        the loop :func:`repro.sim.engine.run_loop` picks."""
        engine = run_loop(self.engine, self.on_commit, self.memory.mmio)
        if engine == "reference":
            result = self._run_reference(max_instructions)
        else:
            result = self._run_fast(max_instructions)
        obs = self._obs
        if obs is not None:
            # labelled by the loop that ran
            obs.count(f"sim.vanilla.runs.{engine}")
            obs.count(f"sim.vanilla.instructions.{engine}",
                      result.instructions)
            obs.count(f"sim.vanilla.cycles.{engine}", result.cycles)
        return result

    def _run_reference(self, max_instructions: int) -> ExecutionResult:
        """The oracle loop: one ``core.execute`` call per instruction."""
        state = self.state
        memory = self.memory
        timing = self.timing
        icache = self.icache
        mmio = memory.mmio
        predecoded = self._predecoded
        cycles = 0
        executed = 0
        status = Status.LIMIT
        trap_reason = ""
        while executed < max_instructions:
            pc = state.pc
            try:
                instr = (predecoded.get(pc) or self._decode(pc))[0]
            except (DecodingError, SimulationError) as exc:
                status, trap_reason = Status.TRAP, str(exc)
                break
            fetch_cycles = 1
            if not icache.access(pc):
                fetch_cycles += timing.icache_miss_penalty
            try:
                outcome = execute(instr, state, memory, pc)
            except SimulationError as exc:
                status, trap_reason = Status.TRAP, str(exc)
                break
            executed += 1
            # bottleneck model (same as the SOFIA core): the fetch of this
            # word overlaps with execution stalls of earlier instructions
            cycles += max(fetch_cycles,
                          instruction_cycles(instr, timing,
                                             outcome.branch_taken))
            if self.on_commit is not None:
                self.on_commit(pc, instr)
            if outcome.halted:
                status = Status.HALT
                break
            if mmio.exit_requested:
                status = Status.EXIT
                break
            state.pc = outcome.next_pc if outcome.next_pc is not None else pc + 4
        return ExecutionResult(status=status, cycles=cycles,
                               instructions=executed,
                               exit_code=mmio.exit_code, mmio=mmio,
                               trap_reason=trap_reason,
                               icache=icache.stats)

    def _run_fast(self, max_instructions: int) -> ExecutionResult:
        """The tiered loop: one call per straight-line run.

        A run is the chain of consecutive PCs up to and including the
        next CTI, store or halt (capped at :data:`repro.sim.fused.MAX_RUN`).
        Each run start PC counts its traversals; until it reaches
        :data:`repro.sim.fused.COMPILE_THRESHOLD` the run is stepped by
        the predecoded cold tier (:meth:`_step_run`), after that it is
        source-compiled once (:func:`repro.sim.fused.compile_vanilla_run`)
        and cached per start PC, invalidated by the same code-write
        listener that pops predecoded steps.  One-shot code therefore
        never pays a compile.  A compiled run whose direct CTI targets its
        own start loops inside its call while a whole iteration fits the
        budget.  The cold tier also covers the tail of a run that would
        overshoot the instruction budget (stepping is per-instruction
        exact).  Both tiers speak the same run-handler protocol (see
        :mod:`repro.sim.fused`), so this loop is tier-agnostic.  Runs only
        with no commit hook and the exit register clear (see :meth:`run`).
        """
        memory = self.memory
        mmio = memory.mmio
        state = self.state
        icache = self.icache
        regs = state.regs
        ld = memory.load
        st = memory.store
        ram = memory.ram
        get_run = self._fused_runs.get
        tags = icache._tags
        max_run = fused.MAX_RUN
        hits = 0
        misses = 0
        cycles = 0
        executed = 0
        status = Status.LIMIT
        trap_reason = ""
        pc = state.pc
        while executed < max_instructions:
            entry = get_run(pc)
            if entry is None:
                entry = self._heat_run(pc)
            remaining = max_instructions - executed
            if entry is None or entry[1] > remaining:
                n, cyc, h, mr, pc, arg = self._step_run(
                    pc, remaining if remaining < max_run else max_run)
            else:
                n, cyc, h, mr, pc, arg = entry[0](regs, ld, st, mmio, tags,
                                                  ram, remaining)
            executed += n
            cycles += cyc
            hits += h
            misses += mr
            if arg is None:
                continue
            code, payload = arg
            if code == 2:
                status = Status.HALT
            elif code == 3:
                status = Status.EXIT
            else:
                status = Status.TRAP
                trap_reason = payload
            break
        # a terminal handler returns its instruction's own pc, exactly
        # where the reference loop stops
        state.pc = pc
        icache.stats.hits += hits
        icache.stats.misses += misses
        return ExecutionResult(status=status, cycles=cycles,
                               instructions=executed,
                               exit_code=mmio.exit_code, mmio=mmio,
                               trap_reason=trap_reason,
                               icache=icache.stats)

    def _heat_run(self, pc: int) -> Optional[tuple]:
        """Cold path of :meth:`_run_fast`: count one traversal of the run
        at ``pc``; compile it once it is hot.

        Returns the cached ``(handler, n_max)`` entry, or ``None`` to step
        the run in the cold tier.  A run whose first fetch/decode faults
        is never cached: stepping traps at the same point with the same
        reason.
        """
        heat = self._fused_heat.get(pc, 0) + 1
        if heat < fused.COMPILE_THRESHOLD:
            self._fused_heat[pc] = heat
            return None
        fn, n_max, covered = fused.compile_vanilla_run(self, pc)
        if fn is None:
            return None
        self._fused_heat.pop(pc, None)
        entry = self._fused_runs[pc] = (fn, n_max)
        cover = self._fused_cover
        for address in covered:
            starts = cover.get(address)
            if starts is None:
                cover[address] = starts = set()
            starts.add(pc)
        if self._obs is not None:
            self._obs.count("sim.fused_compile")
        return entry

    def _step_run(self, pc: int, limit: int) -> tuple:
        """The cold tier: step one straight-line run, predecoded.

        Executes per-PC-cached predecoded handlers from ``pc`` until a
        CTI, store or halt commits, or ``limit`` instructions ran, and
        returns ``(n, cycles, hits, misses, pc, arg)`` exactly like a
        compiled run handler.  Observable behaviour is bit-identical to
        :meth:`_run_reference` at every commit: same register/memory
        effects, same cycle and I-cache accounting, same trap points.
        The MMIO exit poll only runs after stores — the only steps that
        can set it.
        """
        memory = self.memory
        mmio = memory.mmio
        regs = self.state.regs
        predecoded = self._predecoded
        miss_penalty = self.timing.icache_miss_penalty
        icache = self.icache
        tags = icache._tags
        line_shift = icache.line_bytes.bit_length() - 1
        lines_mask = icache.lines - 1
        lines_shift = icache.lines.bit_length() - 1
        hits = 0
        misses = 0
        cycles = 0
        n = 0
        while n < limit:
            entry = predecoded.get(pc)
            if entry is None:
                try:
                    entry = self._decode(pc)
                except (DecodingError, SimulationError) as exc:
                    return (n, cycles, hits, misses, pc, (4, str(exc)))
            run_h, cyc_seq, cyc_taken, kind = entry[1]
            line_number = pc >> line_shift
            index = line_number & lines_mask
            tag = line_number >> lines_shift
            if tags[index] == tag:
                hits += 1
                fetch_cycles = 1
            else:
                tags[index] = tag
                misses += 1
                fetch_cycles = 1 + miss_penalty
            try:
                target = run_h(regs, memory, pc)
            except SimulationError as exc:
                return (n, cycles, hits, misses, pc, (4, str(exc)))
            n += 1
            if target is None:
                cycles += fetch_cycles if fetch_cycles > cyc_seq else cyc_seq
            else:
                cycles += (fetch_cycles if fetch_cycles > cyc_taken
                           else cyc_taken)
            if target == -1:  # engine.HALT
                return (n, cycles, hits, misses, pc, (2, None))
            if kind == KIND_STORE and mmio.exit_code is not None:
                return (n, cycles, hits, misses, pc, (3, None))
            pc = pc + 4 if target is None else target
            if kind:
                break
        return (n, cycles, hits, misses, pc, None)

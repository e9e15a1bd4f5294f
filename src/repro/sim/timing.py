"""Cycle-accounting model of the 7-stage LEON3-like pipeline.

We do not tick a pipeline cycle-by-cycle; instead each committed
instruction is charged its issue slot plus well-known penalties, and each
fetched word is charged I-cache fill penalties.  This reproduces the shape
of the paper's overhead numbers (DESIGN.md, substitution table): SOFIA's
cycle overhead comes from (a) the MAC words occupying fetch slots (they are
nop'd into the pipeline, paper §II-B1), (b) alignment/padding nops, (c)
multiplexor-tree hops, and (d) extra I-cache pressure from the ~2.4x code
footprint.

The decrypt path adds no per-word stall: the unrolled two-cycle RECTANGLE
alternates CTR and CBC operations every other cycle and is fully pipelined
with fetch (paper §III) — it costs *clock frequency* (see
:mod:`repro.hwmodel.profilecost`), not cycles.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..isa.instructions import Instruction


@dataclass(frozen=True)
class TimingParams:
    """Tunable constants of the cycle model."""

    #: extra cycles when a conditional branch is taken (pipeline refill)
    branch_taken_penalty: int = 2
    #: extra cycles for unconditional transfers (jmp/call/jr/jalr)
    jump_penalty: int = 2
    #: cycles to refill one I-cache line from program memory
    icache_miss_penalty: int = 10
    #: I-cache geometry
    icache_lines: int = 128
    icache_line_words: int = 8
    #: cycles a MAC word spends in the fetch stage (it becomes a nop)
    mac_word_cycles: int = 1
    #: extra wait states on every data load/store (slow external memory)
    memory_wait_states: int = 0


DEFAULT_TIMING = TimingParams()

#: Calibrated to the paper's baseline: the minimal LEON3 configuration runs
#: ADPCM at an effective CPI well above 5 (114.2 M cycles, §IV-B), which is
#: only explainable with uncached data memory and slow program memory.  A
#: high-CPI baseline dilutes SOFIA's one-cycle MAC/padding fetch slots —
#: this is precisely why the paper's cycle overhead (13.7 %) is far below
#: the ~33 % a naive 2-extra-words-per-6-instructions estimate gives.
LEON3_MINIMAL_TIMING = TimingParams(
    branch_taken_penalty=3,
    jump_penalty=3,
    icache_miss_penalty=25,
    memory_wait_states=5,
)


def instruction_cycles(instr: Instruction, params: TimingParams,
                       branch_taken: bool = False) -> int:
    """Issue cycles charged for one committed instruction."""
    spec = instr.spec
    cycles = spec.cycles
    if spec.is_branch and branch_taken:
        cycles += params.branch_taken_penalty
    elif spec.is_jump or spec.is_call or spec.is_indirect:
        cycles += params.jump_penalty
    if spec.is_load or spec.is_store:
        cycles += params.memory_wait_states
    return cycles


def cycle_costs(instr: Instruction, params: TimingParams) -> tuple:
    """Both possible :func:`instruction_cycles` values, precomputed.

    Returns ``(not_taken, taken)`` for the fast engine's tiers: only a
    conditional branch has two distinct costs; unconditional transfers
    carry the jump penalty in both slots (they always "take"), and every
    other instruction costs the same either way.
    """
    spec = instr.spec
    base = spec.cycles
    if spec.is_load or spec.is_store:
        base += params.memory_wait_states
    if spec.is_branch:
        return base, base + params.branch_taken_penalty
    if spec.is_jump or spec.is_call or spec.is_indirect:
        taken = base + params.jump_penalty
        return taken, taken
    return base, base

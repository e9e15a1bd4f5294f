"""Predecoded handlers: compile instructions once, step closures.

:func:`repro.sim.core.execute` is the *reference semantics oracle*: a
~40-arm mnemonic dispatch that re-reads every operand field, allocates a
fresh :class:`~repro.sim.core.ExecOutcome` and re-derives
:func:`~repro.sim.timing.instruction_cycles` on every step.  That is the
right shape for auditing the ISA against the paper, and the wrong shape
for the millions of steps a fault campaign or overhead sweep executes.

This module compiles each decoded :class:`~repro.isa.instructions.
Instruction` exactly once into a specialized *handler* — a closure drawn
from a per-mnemonic dispatch table that binds the operand indices,
immediates and masks as default arguments (locals, not cell lookups) —
paired with its two precomputed cycle costs from
:func:`~repro.sim.timing.cycle_costs`.  The ``"fast"`` engine steps these
cached handlers as its cold tier (code below the
:data:`~repro.sim.fused.COMPILE_THRESHOLD` heat gate, plus the exact
budget tail of a vanilla run) and source-compiles hot code with
:mod:`repro.sim.fused`; ``engine="reference"`` keeps the oracle loop
selectable.  The fast engine has one loop per machine and it fires no
``on_commit`` hook: a run with a hook, or one resumed with the MMIO exit
register already written, is executed by the oracle on either engine.

Handler contract
----------------
``handler(regs, memory, pc) -> Optional[int]`` where the return value is

* ``None``        — sequential flow (``pc + 4`` / next payload slot); the
  not-taken cycle cost applies;
* :data:`HALT`    — a ``halt`` committed (``-1``, unreachable as a real
  address because architectural values are masked to 32 bits);
* any other int   — the next PC; the taken cycle cost applies.

The mapping to the oracle is exact: a handler returns non-``None`` iff
``execute`` returns an outcome with ``next_pc is not None`` or ``halted``,
and a *branch* handler returns non-``None`` iff ``branch_taken`` — so
charging the taken cost on non-``None`` reproduces
``instruction_cycles(instr, timing, outcome.branch_taken)`` bit for bit
(unconditional transfers bake the jump penalty into both costs).
Handlers raise the same :class:`~repro.errors.SimulationError` as the
oracle for bus errors, MMIO violations and misaligned accesses, because
they call the same :class:`~repro.sim.memory.Memory` methods.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from ..errors import SimulationError
from ..isa.instructions import Instruction
from .memory import Memory
from .timing import TimingParams, cycle_costs

MASK32 = 0xFFFFFFFF
SIGN_BIT = 0x80000000

#: sentinel returned by a compiled ``halt`` handler (no architectural
#: address can be negative, so it never collides with a branch target)
HALT = -1

#: the engines a machine can run: the tiered ``"fast"`` engine (predecoded
#: stepping while code is cold, one source-compiled call per block or
#: straight-line run once it is hot) and the ``"reference"`` oracle loop
#: over ``core.execute`` that the differential suites lockstep against.
#: Both are bit-identical; this tuple is the single home of the engine
#: name surface (CLI choices, telemetry counter suffixes).
ENGINES = ("fast", "reference")
DEFAULT_ENGINE = "fast"

Handler = Callable[[list, Memory, int], Optional[int]]


def resolve_engine(engine: Optional[str]) -> str:
    """Validate an engine name (``None`` selects the default)."""
    if engine is None:
        return DEFAULT_ENGINE
    if engine not in ENGINES:
        raise ValueError(
            f"unknown execution engine {engine!r}; choose from {ENGINES}")
    return engine


def run_loop(engine: str, on_commit, mmio) -> str:
    """The loop one run executes: ``"reference"`` for that engine, for a
    run with an ``on_commit`` hook and for a run resumed with the MMIO
    exit register already written (the oracle executes one more
    instruction before it notices); ``"fast"`` otherwise.  Hooks and
    pending exits are observation paths the oracle serves bit for bit,
    so the fast engine keeps one hook-less loop per machine."""
    if (engine == "reference" or on_commit is not None
            or mmio.exit_code is not None):
        return "reference"
    return "fast"


# -- handler compilers ----------------------------------------------------
#
# One compiler per mnemonic.  Each binds everything the hot path needs as
# default arguments; writes to r0 are compiled out entirely (the oracle
# discards them in CPUState.write with no other side effect).

def _run_nop(regs, memory, pc):
    return None


def _run_halt(regs, memory, pc):
    return HALT


def _c_nop(i: Instruction) -> Handler:
    return _run_nop


def _c_halt(i: Instruction) -> Handler:
    return _run_halt


def _c_add(i):
    rd, a, b = i.rd, i.rs1, i.rs2
    if rd == 0:
        return _run_nop

    def run(regs, memory, pc, rd=rd, a=a, b=b, M=MASK32):
        regs[rd] = (regs[a] + regs[b]) & M
        return None
    return run


def _c_sub(i):
    rd, a, b = i.rd, i.rs1, i.rs2
    if rd == 0:
        return _run_nop

    def run(regs, memory, pc, rd=rd, a=a, b=b, M=MASK32):
        regs[rd] = (regs[a] - regs[b]) & M
        return None
    return run


def _c_and(i):
    rd, a, b = i.rd, i.rs1, i.rs2
    if rd == 0:
        return _run_nop

    def run(regs, memory, pc, rd=rd, a=a, b=b):
        regs[rd] = regs[a] & regs[b]
        return None
    return run


def _c_or(i):
    rd, a, b = i.rd, i.rs1, i.rs2
    if rd == 0:
        return _run_nop

    def run(regs, memory, pc, rd=rd, a=a, b=b):
        regs[rd] = regs[a] | regs[b]
        return None
    return run


def _c_xor(i):
    rd, a, b = i.rd, i.rs1, i.rs2
    if rd == 0:
        return _run_nop

    def run(regs, memory, pc, rd=rd, a=a, b=b):
        regs[rd] = regs[a] ^ regs[b]
        return None
    return run


def _c_sll(i):
    rd, a, b = i.rd, i.rs1, i.rs2
    if rd == 0:
        return _run_nop

    def run(regs, memory, pc, rd=rd, a=a, b=b, M=MASK32):
        regs[rd] = (regs[a] << (regs[b] & 31)) & M
        return None
    return run


def _c_srl(i):
    rd, a, b = i.rd, i.rs1, i.rs2
    if rd == 0:
        return _run_nop

    def run(regs, memory, pc, rd=rd, a=a, b=b):
        regs[rd] = regs[a] >> (regs[b] & 31)
        return None
    return run


def _c_sra(i):
    rd, a, b = i.rd, i.rs1, i.rs2
    if rd == 0:
        return _run_nop

    def run(regs, memory, pc, rd=rd, a=a, b=b, M=MASK32, S=SIGN_BIT):
        v = regs[a]
        if v & S:
            v -= 0x100000000
        regs[rd] = (v >> (regs[b] & 31)) & M
        return None
    return run


def _c_mul(i):
    rd, a, b = i.rd, i.rs1, i.rs2
    if rd == 0:
        return _run_nop

    def run(regs, memory, pc, rd=rd, a=a, b=b, M=MASK32):
        regs[rd] = (regs[a] * regs[b]) & M
        return None
    return run


def _c_div(i):
    rd, a, b = i.rd, i.rs1, i.rs2

    def run(regs, memory, pc, rd=rd, a=a, b=b, M=MASK32, S=SIGN_BIT):
        divisor = regs[b]
        if divisor & S:
            divisor -= 0x100000000
        if rd:
            if divisor == 0:
                regs[rd] = M
            else:
                dividend = regs[a]
                if dividend & S:
                    dividend -= 0x100000000
                quotient = abs(dividend) // abs(divisor)
                if (dividend < 0) != (divisor < 0):
                    quotient = -quotient
                regs[rd] = quotient & M
        return None
    return run


def _c_rem(i):
    rd, a, b = i.rd, i.rs1, i.rs2

    def run(regs, memory, pc, rd=rd, a=a, b=b, M=MASK32, S=SIGN_BIT):
        divisor = regs[b]
        if divisor & S:
            divisor -= 0x100000000
        if rd:
            if divisor == 0:
                regs[rd] = regs[a]
            else:
                dividend = regs[a]
                if dividend & S:
                    dividend -= 0x100000000
                quotient = abs(dividend) // abs(divisor)
                if (dividend < 0) != (divisor < 0):
                    quotient = -quotient
                regs[rd] = (dividend - divisor * quotient) & M
        return None
    return run


def _c_slt(i):
    # signed compare via sign-bit bias: (x ^ 0x80000000) orders unsigned
    # 32-bit values exactly like to_signed(x) orders them signed
    rd, a, b = i.rd, i.rs1, i.rs2
    if rd == 0:
        return _run_nop

    def run(regs, memory, pc, rd=rd, a=a, b=b, S=SIGN_BIT):
        regs[rd] = 1 if (regs[a] ^ S) < (regs[b] ^ S) else 0
        return None
    return run


def _c_sltu(i):
    rd, a, b = i.rd, i.rs1, i.rs2
    if rd == 0:
        return _run_nop

    def run(regs, memory, pc, rd=rd, a=a, b=b):
        regs[rd] = 1 if regs[a] < regs[b] else 0
        return None
    return run


def _c_addi(i):
    rd, a, imm = i.rd, i.rs1, i.imm
    if rd == 0:
        return _run_nop

    def run(regs, memory, pc, rd=rd, a=a, imm=imm, M=MASK32):
        regs[rd] = (regs[a] + imm) & M
        return None
    return run


def _c_andi(i):
    rd, a, imm = i.rd, i.rs1, i.imm
    if rd == 0:
        return _run_nop

    def run(regs, memory, pc, rd=rd, a=a, imm=imm, M=MASK32):
        regs[rd] = (regs[a] & imm) & M
        return None
    return run


def _c_ori(i):
    rd, a, imm = i.rd, i.rs1, i.imm
    if rd == 0:
        return _run_nop

    def run(regs, memory, pc, rd=rd, a=a, imm=imm, M=MASK32):
        regs[rd] = (regs[a] | imm) & M
        return None
    return run


def _c_xori(i):
    rd, a, imm = i.rd, i.rs1, i.imm
    if rd == 0:
        return _run_nop

    def run(regs, memory, pc, rd=rd, a=a, imm=imm, M=MASK32):
        regs[rd] = (regs[a] ^ imm) & M
        return None
    return run


def _c_slli(i):
    rd, a, sh = i.rd, i.rs1, i.imm & 31
    if rd == 0:
        return _run_nop

    def run(regs, memory, pc, rd=rd, a=a, sh=sh, M=MASK32):
        regs[rd] = (regs[a] << sh) & M
        return None
    return run


def _c_srli(i):
    rd, a, sh = i.rd, i.rs1, i.imm & 31
    if rd == 0:
        return _run_nop

    def run(regs, memory, pc, rd=rd, a=a, sh=sh):
        regs[rd] = regs[a] >> sh
        return None
    return run


def _c_srai(i):
    rd, a, sh = i.rd, i.rs1, i.imm & 31
    if rd == 0:
        return _run_nop

    def run(regs, memory, pc, rd=rd, a=a, sh=sh, M=MASK32, S=SIGN_BIT):
        v = regs[a]
        if v & S:
            v -= 0x100000000
        regs[rd] = (v >> sh) & M
        return None
    return run


def _c_slti(i):
    rd, a = i.rd, i.rs1
    biased = (i.imm + SIGN_BIT)  # exact: Python ints don't wrap
    if rd == 0:
        return _run_nop

    def run(regs, memory, pc, rd=rd, a=a, biased=biased, S=SIGN_BIT):
        regs[rd] = 1 if (regs[a] ^ S) < biased else 0
        return None
    return run


def _c_sltiu(i):
    rd, a, cmp = i.rd, i.rs1, i.imm & MASK32
    if rd == 0:
        return _run_nop

    def run(regs, memory, pc, rd=rd, a=a, cmp=cmp):
        regs[rd] = 1 if regs[a] < cmp else 0
        return None
    return run


def _c_lui(i):
    rd, value = i.rd, (i.imm << 16) & MASK32
    if rd == 0:
        return _run_nop

    def run(regs, memory, pc, rd=rd, value=value):
        regs[rd] = value
        return None
    return run


def _c_load(size: int, signed: bool):
    def compiler(i):
        rd, base, off = i.rd, i.rs1, i.imm

        def run(regs, memory, pc, rd=rd, base=base, off=off,
                size=size, signed=signed, M=MASK32):
            # the access must happen even for rd == r0: bus errors and
            # MMIO loads trap exactly like the oracle
            value = memory.load((regs[base] + off) & M, size, signed)
            if rd:
                regs[rd] = value
            return None
        return run
    return compiler


def _c_store(size: int):
    def compiler(i):
        data, base, off = i.rs2, i.rs1, i.imm

        def run(regs, memory, pc, data=data, base=base, off=off,
                size=size, M=MASK32):
            memory.store((regs[base] + off) & M, regs[data], size)
            return None
        return run
    return compiler


def _c_beq(i):
    a, b, target = i.rs1, i.rs2, i.imm & MASK32

    def run(regs, memory, pc, a=a, b=b, target=target):
        return target if regs[a] == regs[b] else None
    return run


def _c_bne(i):
    a, b, target = i.rs1, i.rs2, i.imm & MASK32

    def run(regs, memory, pc, a=a, b=b, target=target):
        return target if regs[a] != regs[b] else None
    return run


def _c_blt(i):
    a, b, target = i.rs1, i.rs2, i.imm & MASK32

    def run(regs, memory, pc, a=a, b=b, target=target, S=SIGN_BIT):
        return target if (regs[a] ^ S) < (regs[b] ^ S) else None
    return run


def _c_bge(i):
    a, b, target = i.rs1, i.rs2, i.imm & MASK32

    def run(regs, memory, pc, a=a, b=b, target=target, S=SIGN_BIT):
        return target if (regs[a] ^ S) >= (regs[b] ^ S) else None
    return run


def _c_bltu(i):
    a, b, target = i.rs1, i.rs2, i.imm & MASK32

    def run(regs, memory, pc, a=a, b=b, target=target):
        return target if regs[a] < regs[b] else None
    return run


def _c_bgeu(i):
    a, b, target = i.rs1, i.rs2, i.imm & MASK32

    def run(regs, memory, pc, a=a, b=b, target=target):
        return target if regs[a] >= regs[b] else None
    return run


def _c_jmp(i):
    target = i.imm & MASK32

    def run(regs, memory, pc, target=target):
        return target
    return run


def _c_call(i):
    target = i.imm & MASK32

    def run(regs, memory, pc, target=target, M=MASK32):
        regs[1] = (pc + 4) & M  # RA
        return target
    return run


def _c_jr(i):
    a = i.rs1

    def run(regs, memory, pc, a=a):
        return regs[a]
    return run


def _c_jalr(i):
    rd, a = i.rd, i.rs1

    def run(regs, memory, pc, rd=rd, a=a, M=MASK32):
        # target is read before the link write (jalr rd == rs1)
        target = regs[a]
        if rd:
            regs[rd] = (pc + 4) & M
        return target
    return run


#: the per-mnemonic dispatch table: consulted once per decoded
#: instruction, never on the hot path
COMPILERS: Dict[str, Callable[[Instruction], Handler]] = {
    "nop": _c_nop, "halt": _c_halt,
    "add": _c_add, "sub": _c_sub, "and": _c_and, "or": _c_or,
    "xor": _c_xor, "sll": _c_sll, "srl": _c_srl, "sra": _c_sra,
    "mul": _c_mul, "div": _c_div, "rem": _c_rem,
    "slt": _c_slt, "sltu": _c_sltu,
    "addi": _c_addi, "andi": _c_andi, "ori": _c_ori, "xori": _c_xori,
    "slli": _c_slli, "srli": _c_srli, "srai": _c_srai,
    "slti": _c_slti, "sltiu": _c_sltiu, "lui": _c_lui,
    "lw": _c_load(4, False), "lh": _c_load(2, True),
    "lhu": _c_load(2, False), "lb": _c_load(1, True),
    "lbu": _c_load(1, False),
    "sw": _c_store(4), "sh": _c_store(2), "sb": _c_store(1),
    "beq": _c_beq, "bne": _c_bne, "blt": _c_blt, "bge": _c_bge,
    "bltu": _c_bltu, "bgeu": _c_bgeu,
    "jmp": _c_jmp, "call": _c_call, "jr": _c_jr, "jalr": _c_jalr,
}


def compile_handler(instr: Instruction) -> Handler:
    """Compile one instruction into its specialized handler."""
    try:
        compiler = COMPILERS[instr.mnemonic]
    except KeyError:
        raise SimulationError(
            f"no semantics for mnemonic {instr.mnemonic!r}") from None
    return compiler(instr)


#: step kinds: what a committed step can do beyond writing registers/RAM.
#: INERT handlers provably return ``None`` and cannot end a block or a
#: straight-line run, so the fast loops skip every post-commit check for
#: them; only a STORE can set the MMIO exit register.
KIND_INERT = 0   # ALU / load / nop: no control effect, cannot set exit
KIND_STORE = 1   # may write the MMIO exit register
KIND_CTI = 2     # ends the block: branch / jump / call / indirect
KIND_HALT = 3    # handler returns HALT

#: predecoded vanilla step: (handler, cycles_not_taken, cycles_taken, kind)
PredecodedStep = Tuple[Handler, int, int, int]


def predecode(instr: Instruction, timing: TimingParams) -> PredecodedStep:
    """Compile an instruction and precompute both cycle costs."""
    seq, taken = cycle_costs(instr, timing)
    return (compile_handler(instr), seq, taken, step_kind(instr))


#: predecoded SOFIA payload slot:
#: (handler, cycles_not_taken, cycles_taken, kind, address)
BlockStep = Tuple[Handler, int, int, int, int]


def step_kind(instr: Instruction) -> int:
    spec = instr.spec
    if spec.is_cti:
        return KIND_CTI
    if spec.is_store:
        return KIND_STORE
    if spec.is_halt:
        return KIND_HALT
    return KIND_INERT


def predecode_payload(payload, timing: TimingParams) -> Tuple[BlockStep, ...]:
    """Compile a verified block's payload into handler steps.

    ``payload`` is the :class:`~repro.sim.sofia._VerifiedBlock` payload:
    ``(instr, address, slot)`` triples in fetch order.
    """
    steps = []
    for instr, address, _slot in payload:
        seq, taken = cycle_costs(instr, timing)
        steps.append((compile_handler(instr), seq, taken,
                      step_kind(instr), address))
    return tuple(steps)


#: one fetch "run": consecutive block words on the same I-cache line,
#: as (line_index, line_tag, word_count)
FetchRun = Tuple[int, int, int]


def compile_fetch_runs(addresses, line_shift: int, lines_mask: int,
                       lines_shift: int) -> Tuple[FetchRun, ...]:
    """Group a block's fetch addresses into same-cache-line runs.

    Touching one line ``count`` times in a row behaves exactly like one
    tag check: the first access decides hit-or-fill, the rest must hit.
    Collapsing the per-word loop into per-run checks therefore preserves
    bit-identical hit/miss statistics and miss penalties while doing one
    tag comparison per line instead of one per word (a block usually
    occupies a single line).
    """
    runs = []
    prev_line = None
    for address in addresses:
        line = address >> line_shift
        if line == prev_line:
            runs[-1][2] += 1
        else:
            runs.append([line & lines_mask, line >> lines_shift, 1])
            prev_line = line
    return tuple(tuple(run) for run in runs)

"""Functional execution semantics of SRISC instructions.

``execute`` interprets one decoded instruction against a :class:`CPUState`
and a :class:`~repro.sim.memory.Memory`.  It is shared verbatim by the
vanilla machine and the SOFIA machine — SOFIA changes *what gets fetched
and whether it may execute*, never the ISA semantics.

All register values are canonical unsigned 32-bit integers; helpers convert
to signed views where the ISA requires signed comparisons or arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..errors import SimulationError
from ..isa.instructions import Instruction
from ..isa.program import STACK_TOP
from ..isa.registers import NUM_REGISTERS, RA, SP
from .memory import Memory

MASK32 = 0xFFFFFFFF


def to_signed(value: int) -> int:
    value &= MASK32
    return value - 0x100000000 if value & 0x80000000 else value


def _trunc_div(a: int, b: int) -> int:
    """Integer division truncating toward zero (C/SPARC semantics)."""
    quotient = abs(a) // abs(b)
    return -quotient if (a < 0) != (b < 0) else quotient


@dataclass
class CPUState:
    """Architectural register state."""

    regs: List[int] = field(default_factory=lambda: [0] * NUM_REGISTERS)
    pc: int = 0

    @classmethod
    def reset(cls, entry: int) -> "CPUState":
        state = cls(pc=entry)
        state.regs[SP] = STACK_TOP
        return state

    def read(self, reg: int) -> int:
        return self.regs[reg]

    def write(self, reg: int, value: int) -> None:
        if reg != 0:
            self.regs[reg] = value & MASK32


@dataclass(frozen=True)
class ExecOutcome:
    """Result of executing one instruction."""

    next_pc: Optional[int] = None  # None -> sequential (pc + 4)
    halted: bool = False
    branch_taken: bool = False


_LOAD_SIZES = {"lw": (4, False), "lh": (2, True), "lhu": (2, False),
               "lb": (1, True), "lbu": (1, False)}
_STORE_SIZES = {"sw": 4, "sh": 2, "sb": 1}


def execute(instr: Instruction, state: CPUState, memory: Memory,
            pc: int) -> ExecOutcome:
    """Execute ``instr`` located at address ``pc``."""
    name = instr.mnemonic
    regs = state.regs

    if name == "nop":
        return ExecOutcome()
    if name == "halt":
        return ExecOutcome(halted=True)

    # register ALU -------------------------------------------------------
    if name == "add":
        state.write(instr.rd, regs[instr.rs1] + regs[instr.rs2])
        return ExecOutcome()
    if name == "sub":
        state.write(instr.rd, regs[instr.rs1] - regs[instr.rs2])
        return ExecOutcome()
    if name == "and":
        state.write(instr.rd, regs[instr.rs1] & regs[instr.rs2])
        return ExecOutcome()
    if name == "or":
        state.write(instr.rd, regs[instr.rs1] | regs[instr.rs2])
        return ExecOutcome()
    if name == "xor":
        state.write(instr.rd, regs[instr.rs1] ^ regs[instr.rs2])
        return ExecOutcome()
    if name == "sll":
        state.write(instr.rd, regs[instr.rs1] << (regs[instr.rs2] & 31))
        return ExecOutcome()
    if name == "srl":
        state.write(instr.rd, (regs[instr.rs1] & MASK32) >> (regs[instr.rs2] & 31))
        return ExecOutcome()
    if name == "sra":
        state.write(instr.rd, to_signed(regs[instr.rs1]) >> (regs[instr.rs2] & 31))
        return ExecOutcome()
    if name == "mul":
        state.write(instr.rd, regs[instr.rs1] * regs[instr.rs2])
        return ExecOutcome()
    if name == "div":
        divisor = to_signed(regs[instr.rs2])
        if divisor == 0:
            state.write(instr.rd, MASK32)  # RISC-V-style div-by-zero result
        else:
            state.write(instr.rd, _trunc_div(to_signed(regs[instr.rs1]), divisor))
        return ExecOutcome()
    if name == "rem":
        divisor = to_signed(regs[instr.rs2])
        if divisor == 0:
            state.write(instr.rd, regs[instr.rs1])
        else:
            dividend = to_signed(regs[instr.rs1])
            state.write(instr.rd, dividend - divisor * _trunc_div(dividend, divisor))
        return ExecOutcome()
    if name == "slt":
        state.write(instr.rd,
                    int(to_signed(regs[instr.rs1]) < to_signed(regs[instr.rs2])))
        return ExecOutcome()
    if name == "sltu":
        state.write(instr.rd, int(regs[instr.rs1] < regs[instr.rs2]))
        return ExecOutcome()

    # immediate ALU -------------------------------------------------------
    if name == "addi":
        state.write(instr.rd, regs[instr.rs1] + instr.imm)
        return ExecOutcome()
    if name == "andi":
        state.write(instr.rd, regs[instr.rs1] & instr.imm)
        return ExecOutcome()
    if name == "ori":
        state.write(instr.rd, regs[instr.rs1] | instr.imm)
        return ExecOutcome()
    if name == "xori":
        state.write(instr.rd, regs[instr.rs1] ^ instr.imm)
        return ExecOutcome()
    if name == "slli":
        state.write(instr.rd, regs[instr.rs1] << (instr.imm & 31))
        return ExecOutcome()
    if name == "srli":
        state.write(instr.rd, (regs[instr.rs1] & MASK32) >> (instr.imm & 31))
        return ExecOutcome()
    if name == "srai":
        state.write(instr.rd, to_signed(regs[instr.rs1]) >> (instr.imm & 31))
        return ExecOutcome()
    if name == "slti":
        state.write(instr.rd, int(to_signed(regs[instr.rs1]) < instr.imm))
        return ExecOutcome()
    if name == "sltiu":
        state.write(instr.rd, int(regs[instr.rs1] < (instr.imm & MASK32)))
        return ExecOutcome()
    if name == "lui":
        state.write(instr.rd, instr.imm << 16)
        return ExecOutcome()

    # memory ---------------------------------------------------------------
    if name in _LOAD_SIZES:
        size, signed = _LOAD_SIZES[name]
        address = (regs[instr.rs1] + instr.imm) & MASK32
        state.write(instr.rd, memory.load(address, size, signed))
        return ExecOutcome()
    if name in _STORE_SIZES:
        size = _STORE_SIZES[name]
        address = (regs[instr.rs1] + instr.imm) & MASK32
        memory.store(address, regs[instr.rs2], size)
        return ExecOutcome()

    # control transfer ------------------------------------------------------
    if name in ("beq", "bne", "blt", "bge", "bltu", "bgeu"):
        a, b = regs[instr.rs1], regs[instr.rs2]
        if name == "beq":
            taken = a == b
        elif name == "bne":
            taken = a != b
        elif name == "blt":
            taken = to_signed(a) < to_signed(b)
        elif name == "bge":
            taken = to_signed(a) >= to_signed(b)
        elif name == "bltu":
            taken = a < b
        else:  # bgeu
            taken = a >= b
        if taken:
            return ExecOutcome(next_pc=instr.imm & MASK32, branch_taken=True)
        return ExecOutcome()
    if name == "jmp":
        return ExecOutcome(next_pc=instr.imm & MASK32)
    if name == "call":
        state.write(RA, pc + 4)
        return ExecOutcome(next_pc=instr.imm & MASK32)
    if name == "jr":
        return ExecOutcome(next_pc=regs[instr.rs1])
    if name == "jalr":
        target = regs[instr.rs1]
        state.write(instr.rd, pc + 4)
        return ExecOutcome(next_pc=target)

    raise SimulationError(f"no semantics for mnemonic {instr.mnemonic!r}")

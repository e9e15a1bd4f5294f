"""Peephole optimizer for minicc output: push/pop elimination.

The accumulator code generator keeps intermediate expression values on the
real stack::

    addi sp, sp, -4          # push t0
    sw   t0, 0(sp)
    ...evaluate the right operand into t0...
    lw   t1, 0(sp)           # pop into t1
    addi sp, sp, 4

When the bracketed span is short, straight-line and register-poor, the
round trip through memory is pure waste.  This pass rewrites matching
push/pop pairs into register moves through a free scratch register::

    addi s0, t0, 0           # mv s0, t0
    ...evaluate...
    addi t1, s0, 0           # mv t1, s0

Safety conditions (all checked):

* the span between push and pop contains no control transfer (calls
  clobber caller-saved registers; branches break the linear match),
* no label lands inside the rewritten window (no hidden entries),
* the span never touches ``sp`` (nested pushes are rewritten innermost-
  first, which removes their ``sp`` uses and unlocks the outer pair),
* the scratch register is referenced nowhere in the span.

The scratch pool uses the callee-saved registers s0..s7 — minicc's code
generator never touches them, so cross-call safety is not required (and
spans containing calls are rejected anyway).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..isa.instructions import (Instruction, registers_read,
                                registers_written)
from ..isa.program import AsmProgram
from ..isa.registers import SP

#: scratch registers: s0..s7 (never emitted by the code generator)
_SCRATCH_POOL = tuple(range(20, 28))

#: the accumulator register pushed by the code generator
_ACC = 12  # t0

#: upper bound on rewrite passes (each pass removes one push/pop pair)
_MAX_PASSES = 10_000


def _is_push(a: Instruction, b: Instruction) -> bool:
    return (a.mnemonic == "addi" and a.rd == SP and a.rs1 == SP
            and a.imm == -4
            and b.mnemonic == "sw" and b.rs2 == _ACC and b.rs1 == SP
            and b.imm == 0)


def _is_pop(a: Instruction, b: Instruction) -> Optional[int]:
    """Returns the pop destination register, or None."""
    if (a.mnemonic == "lw" and a.rs1 == SP and a.imm == 0
            and b.mnemonic == "addi" and b.rd == SP and b.rs1 == SP
            and b.imm == 4):
        return a.rd
    return None


def _touches_sp(instr: Instruction) -> bool:
    return SP in registers_read(instr) or SP in registers_written(instr)


def _span_is_safe(instructions: List[Instruction], start: int,
                  end: int) -> bool:
    """May instructions[start:end] sit between a rewritten push/pop?"""
    for instr in instructions[start:end]:
        spec = instr.spec
        if spec.is_cti or spec.is_halt:
            return False
        if _touches_sp(instr):
            return False
    return True


def _free_scratch(instructions: List[Instruction], start: int,
                  end: int) -> Optional[int]:
    used = set()
    for instr in instructions[start:end]:
        used |= registers_read(instr)
        used |= registers_written(instr)
    for reg in _SCRATCH_POOL:
        if reg not in used:
            return reg
    return None


@dataclass
class OptimizeStats:
    pairs_rewritten: int = 0
    instructions_removed: int = 0


def _find_rewritable_pair(program: AsmProgram
                          ) -> Optional[Tuple[int, int, int]]:
    """Innermost (push_index, pop_index, scratch) pair, if any."""
    instructions = program.instructions
    label_indices = set(program.labels.values())
    stack: List[int] = []
    i = 0
    while i + 1 < len(instructions):
        if _is_push(instructions[i], instructions[i + 1]):
            stack.append(i)
            i += 2
            continue
        pop_reg = _is_pop(instructions[i], instructions[i + 1])
        if pop_reg is not None and stack:
            push_index = stack.pop()
            span_start, span_end = push_index + 2, i
            window = range(push_index, i + 2)
            if (not any(li in window for li in label_indices)
                    and _span_is_safe(instructions, span_start, span_end)):
                scratch = _free_scratch(instructions, span_start, span_end)
                if scratch is not None and scratch != pop_reg:
                    return push_index, i, scratch
            i += 2
            continue
        i += 1
    return None


def _apply_rewrite(program: AsmProgram, push_index: int, pop_index: int,
                   scratch: int) -> None:
    instructions = program.instructions
    pop_reg = instructions[pop_index].rd
    line_push = instructions[push_index].line
    line_pop = instructions[pop_index].line
    # push: two instructions -> one move
    instructions[push_index:push_index + 2] = [
        Instruction("addi", rd=scratch, rs1=_ACC, imm=0, line=line_push)]
    pop_index -= 1  # everything after the push shifted left by one
    instructions[pop_index:pop_index + 2] = [
        Instruction("addi", rd=pop_reg, rs1=scratch, imm=0, line=line_pop)]

    def remap(index: int) -> int:
        adjusted = index
        if index > push_index:
            adjusted -= 1
        if index > pop_index + 1:
            adjusted -= 1
        return adjusted

    program.labels = {name: remap(index)
                      for name, index in program.labels.items()}


def optimize_pushpop(program: AsmProgram) -> OptimizeStats:
    """Rewrite push/pop pairs in place; returns what was done."""
    stats = OptimizeStats()
    for _ in range(_MAX_PASSES):
        found = _find_rewritable_pair(program)
        if found is None:
            break
        _apply_rewrite(program, *found)
        stats.pairs_rewritten += 1
        stats.instructions_removed += 2
    program.validate()
    return stats

"""SRISC instruction set definition.

Every mnemonic is described by an :class:`OpSpec` (opcode, encoding format,
behavioural flags, base cycle cost for the timing model).  Assembly-level
instructions are :class:`Instruction` records whose operands may still be
symbolic (label references); the transformer manipulates these records and
the encoder lowers them to 32-bit words once addresses are final.

Formats
-------
``R``  — ``op rd, rs1, rs2``          (register ALU)
``I``  — ``op rd, rs1, imm16``        (immediate ALU, ``lui`` ignores rs1)
``M``  — ``op rd, imm16(rs1)``        (loads) / ``op rs2, imm16(rs1)`` (stores)
``B``  — ``op rs1, rs2, label``       (compare-and-branch, PC-relative)
``J``  — ``op label``                 (jmp/call, absolute 26-bit word address)
``JR`` — ``op rs1``                   (indirect jump/call)
``N``  — no operands (nop, halt)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from .registers import register_name


@dataclass(frozen=True)
class OpSpec:
    """Static description of one mnemonic."""

    mnemonic: str
    opcode: int
    fmt: str
    #: base latency in cycles for the pipeline timing model
    cycles: int = 1
    is_branch: bool = False   # conditional, two successors
    is_jump: bool = False     # unconditional direct jump
    is_call: bool = False     # writes the return address
    is_indirect: bool = False  # target comes from a register
    is_store: bool = False
    is_load: bool = False
    is_halt: bool = False

    @property
    def is_cti(self) -> bool:
        """True for every control-transfer instruction."""
        return self.is_branch or self.is_jump or self.is_call or self.is_indirect


def _specs() -> Dict[str, OpSpec]:
    table = [
        OpSpec("nop", 0x00, "N"),
        # register ALU
        OpSpec("add", 0x01, "R"), OpSpec("sub", 0x02, "R"),
        OpSpec("and", 0x03, "R"), OpSpec("or", 0x04, "R"),
        OpSpec("xor", 0x05, "R"), OpSpec("sll", 0x06, "R"),
        OpSpec("srl", 0x07, "R"), OpSpec("sra", 0x08, "R"),
        OpSpec("mul", 0x09, "R", cycles=4),
        OpSpec("div", 0x0A, "R", cycles=35),
        OpSpec("rem", 0x0B, "R", cycles=35),
        OpSpec("slt", 0x0C, "R"), OpSpec("sltu", 0x0D, "R"),
        # immediate ALU
        OpSpec("addi", 0x10, "I"), OpSpec("andi", 0x11, "I"),
        OpSpec("ori", 0x12, "I"), OpSpec("xori", 0x13, "I"),
        OpSpec("slli", 0x14, "I"), OpSpec("srli", 0x15, "I"),
        OpSpec("srai", 0x16, "I"), OpSpec("slti", 0x17, "I"),
        OpSpec("sltiu", 0x18, "I"), OpSpec("lui", 0x19, "I"),
        # memory
        OpSpec("lw", 0x20, "M", cycles=2, is_load=True),
        OpSpec("lh", 0x21, "M", cycles=2, is_load=True),
        OpSpec("lhu", 0x22, "M", cycles=2, is_load=True),
        OpSpec("lb", 0x23, "M", cycles=2, is_load=True),
        OpSpec("lbu", 0x24, "M", cycles=2, is_load=True),
        OpSpec("sw", 0x25, "M", cycles=2, is_store=True),
        OpSpec("sh", 0x26, "M", cycles=2, is_store=True),
        OpSpec("sb", 0x27, "M", cycles=2, is_store=True),
        # compare-and-branch (taken-branch penalty added by the timing model)
        OpSpec("beq", 0x28, "B", is_branch=True),
        OpSpec("bne", 0x29, "B", is_branch=True),
        OpSpec("blt", 0x2A, "B", is_branch=True),
        OpSpec("bge", 0x2B, "B", is_branch=True),
        OpSpec("bltu", 0x2C, "B", is_branch=True),
        OpSpec("bgeu", 0x2D, "B", is_branch=True),
        # jumps and calls
        OpSpec("jmp", 0x30, "J", is_jump=True),
        OpSpec("call", 0x31, "J", is_call=True),
        OpSpec("jr", 0x32, "JR", is_indirect=True),
        OpSpec("jalr", 0x33, "JR", is_indirect=True, is_call=True),
        # system
        OpSpec("halt", 0x3E, "N", is_halt=True),
    ]
    return {spec.mnemonic: spec for spec in table}


SPECS: Dict[str, OpSpec] = _specs()
OPCODE_TO_SPEC: Dict[int, OpSpec] = {spec.opcode: spec for spec in SPECS.values()}

#: mnemonics whose I-format immediate is zero-extended rather than sign-extended
ZERO_EXTENDED_IMM = frozenset({"andi", "ori", "xori", "sltiu", "lui"})
#: shift immediates are 5-bit
SHIFT_IMMS = frozenset({"slli", "srli", "srai"})


@dataclass(frozen=True)
class Instruction:
    """One assembly-level SRISC instruction.

    ``symbol`` holds an unresolved label for branch/jump/call targets (and
    for ``lui``/``ori`` pairs produced by the ``la`` pseudo-instruction,
    which the assembler resolves before encoding).  ``targets`` is the
    static target annotation (``.targets``) required on indirect CTIs by the
    SOFIA transformer.
    """

    mnemonic: str
    rd: Optional[int] = None
    rs1: Optional[int] = None
    rs2: Optional[int] = None
    imm: Optional[int] = None
    symbol: Optional[str] = None
    reloc: Optional[str] = None  # None | "hi" | "lo" for la-split symbols
    targets: Tuple[str, ...] = field(default=())
    line: int = 0

    @property
    def spec(self) -> OpSpec:
        return SPECS[self.mnemonic]

    @property
    def is_cti(self) -> bool:
        return self.spec.is_cti

    @property
    def is_store(self) -> bool:
        return self.spec.is_store

    def render(self) -> str:
        """Assembly text for this instruction."""
        spec = self.spec
        name = self.mnemonic
        if spec.fmt == "N":
            return name
        if spec.fmt == "R":
            return (f"{name} {register_name(self.rd)}, "
                    f"{register_name(self.rs1)}, {register_name(self.rs2)}")
        if spec.fmt == "I":
            imm = self.symbol if self.imm is None else self.imm
            if self.reloc and self.symbol is not None:
                imm = f"%{self.reloc}({self.symbol})"
            if name == "lui":
                return f"{name} {register_name(self.rd)}, {imm}"
            return f"{name} {register_name(self.rd)}, {register_name(self.rs1)}, {imm}"
        if spec.fmt == "M":
            imm = self.imm if self.imm is not None else self.symbol
            reg = self.rs2 if spec.is_store else self.rd
            return f"{name} {register_name(reg)}, {imm}({register_name(self.rs1)})"
        if spec.fmt == "B":
            target = self.symbol if self.symbol is not None else self.imm
            return (f"{name} {register_name(self.rs1)}, "
                    f"{register_name(self.rs2)}, {target}")
        if spec.fmt == "J":
            target = self.symbol if self.symbol is not None else self.imm
            return f"{name} {target}"
        if spec.fmt == "JR":
            if self.mnemonic == "jalr":
                return f"{name} {register_name(self.rd)}, {register_name(self.rs1)}"
            return f"{name} {register_name(self.rs1)}"
        raise AssertionError(f"unhandled format {spec.fmt}")

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()


#: Canonical nop used for padding and for MAC-word replacement in hardware.
NOP = Instruction("nop")


def make_nop() -> Instruction:
    """Return the canonical nop instruction."""
    return NOP


def registers_read(instr: Instruction) -> frozenset:
    """Registers whose values the instruction consumes."""
    spec = instr.spec
    reads = set()
    if spec.fmt == "R":
        reads.update((instr.rs1, instr.rs2))
    elif spec.fmt == "I" and instr.mnemonic != "lui":
        reads.add(instr.rs1)
    elif spec.fmt == "M":
        reads.add(instr.rs1)            # base address
        if spec.is_store:
            reads.add(instr.rs2)        # stored data
    elif spec.fmt == "B":
        reads.update((instr.rs1, instr.rs2))
    elif spec.fmt == "JR":
        reads.add(instr.rs1)
    reads.discard(None)
    return frozenset(reads)


def registers_written(instr: Instruction) -> frozenset:
    """Registers the instruction writes (r0 writes are discarded)."""
    spec = instr.spec
    writes = set()
    if spec.fmt in ("R", "I") or (spec.fmt == "M" and spec.is_load):
        writes.add(instr.rd)
    elif spec.is_call:                  # call writes ra; jalr writes rd
        writes.add(1 if instr.rd is None else instr.rd)
    writes.discard(None)
    writes.discard(0)
    return frozenset(writes)

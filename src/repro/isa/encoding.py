"""Binary encoding/decoding of SRISC instructions.

Layout (32-bit words, bit 31 is the MSB)::

    [31:26] opcode
    R   : [25:21] rd   [20:16] rs1  [15:11] rs2
    I   : [25:21] rd   [20:16] rs1  [15:0]  imm16
    M ld: [25:21] rd   [20:16] base [15:0]  imm16
    M st: [25:21] data [20:16] base [15:0]  imm16
    B   : [25:21] rs1  [20:16] rs2  [15:0]  imm16 (signed word offset,
                                                   target = pc + 4*imm)
    J   : [25:0]  imm26 (absolute word address, target = imm26 << 2)
    JR  : [25:21] rd (jalr only)  [20:16] rs1

Immediates for ``andi/ori/xori/sltiu/lui`` are zero-extended 16-bit values;
the remaining I/M immediates are signed 16-bit; shift amounts are 0..31.
"""

from __future__ import annotations

from ..errors import DecodingError, EncodingError
from .instructions import (Instruction, OPCODE_TO_SPEC, SHIFT_IMMS,
                           ZERO_EXTENDED_IMM)

WORD_MASK = 0xFFFFFFFF
IMM16_MASK = 0xFFFF
IMM26_MASK = 0x3FFFFFF


def _check_reg(value: int, name: str, mnemonic: str) -> int:
    if value is None:
        raise EncodingError(f"{mnemonic}: missing {name}")
    if not 0 <= value < 32:
        raise EncodingError(f"{mnemonic}: {name}={value} out of range")
    return value


def _encode_imm16(value: int, mnemonic: str) -> int:
    if value is None:
        raise EncodingError(f"{mnemonic}: missing immediate")
    if mnemonic in SHIFT_IMMS:
        if not 0 <= value < 32:
            raise EncodingError(f"{mnemonic}: shift amount {value} out of 0..31")
        return value
    if mnemonic in ZERO_EXTENDED_IMM:
        if not 0 <= value <= 0xFFFF:
            raise EncodingError(f"{mnemonic}: immediate {value} out of 0..65535")
        return value
    if not -0x8000 <= value <= 0x7FFF:
        raise EncodingError(f"{mnemonic}: immediate {value} out of signed 16-bit range")
    return value & IMM16_MASK


def _decode_imm16(raw: int, mnemonic: str) -> int:
    if mnemonic in ZERO_EXTENDED_IMM or mnemonic in SHIFT_IMMS:
        return raw
    return raw - 0x10000 if raw & 0x8000 else raw


def encode(instr: Instruction, pc: int = 0) -> int:
    """Encode an instruction (with fully numeric operands) at address ``pc``.

    Branch instructions must carry ``imm`` = absolute byte target; jumps and
    calls likewise.  The assembler resolves symbols before calling this.
    """
    spec = instr.spec
    op = spec.opcode << 26
    name = instr.mnemonic
    if instr.symbol is not None:
        raise EncodingError(f"{name}: unresolved symbol {instr.symbol!r}")
    if spec.fmt == "N":
        return op
    if spec.fmt == "R":
        return (op
                | (_check_reg(instr.rd, "rd", name) << 21)
                | (_check_reg(instr.rs1, "rs1", name) << 16)
                | (_check_reg(instr.rs2, "rs2", name) << 11))
    if spec.fmt == "I":
        rs1 = 0 if name == "lui" else _check_reg(instr.rs1, "rs1", name)
        return (op
                | (_check_reg(instr.rd, "rd", name) << 21)
                | (rs1 << 16)
                | _encode_imm16(instr.imm, name))
    if spec.fmt == "M":
        data_reg = instr.rs2 if spec.is_store else instr.rd
        return (op
                | (_check_reg(data_reg, "data register", name) << 21)
                | (_check_reg(instr.rs1, "base register", name) << 16)
                | _encode_imm16(instr.imm, name))
    if spec.fmt == "B":
        target = instr.imm
        if target is None:
            raise EncodingError(f"{name}: missing branch target")
        delta = target - pc
        if delta % 4:
            raise EncodingError(f"{name}: misaligned branch target 0x{target:x}")
        offset = delta // 4
        if not -0x8000 <= offset <= 0x7FFF:
            raise EncodingError(
                f"{name}: branch from 0x{pc:x} to 0x{target:x} out of range")
        return (op
                | (_check_reg(instr.rs1, "rs1", name) << 21)
                | (_check_reg(instr.rs2, "rs2", name) << 16)
                | (offset & IMM16_MASK))
    if spec.fmt == "J":
        target = instr.imm
        if target is None:
            raise EncodingError(f"{name}: missing jump target")
        if target % 4:
            raise EncodingError(f"{name}: misaligned target 0x{target:x}")
        word_addr = target >> 2
        if word_addr > IMM26_MASK:
            raise EncodingError(f"{name}: target 0x{target:x} exceeds 26-bit word space")
        return op | word_addr
    if spec.fmt == "JR":
        rd = _check_reg(instr.rd, "rd", name) if name == "jalr" else 0
        return op | (rd << 21) | (_check_reg(instr.rs1, "rs1", name) << 16)
    raise AssertionError(f"unhandled format {spec.fmt}")


def decode(word: int, pc: int = 0) -> Instruction:
    """Decode a 32-bit word fetched from address ``pc``.

    Raises :class:`DecodingError` for unknown opcodes — the simulated
    processor treats that as an illegal-instruction trap, which is how
    "random data" from a SOFIA decryption error usually manifests.

    Decoding is **canonical**: a word whose format leaves field bits
    unused (nop/halt operand bits, R-format bits [10:0], the ``lui`` rs1
    field, the ``jr`` rd field, the ``jalr`` imm16 field) only decodes
    when those bits are zero — exactly the words :func:`encode` can
    produce, so ``encode(decode(w), pc) == w`` for every decodable word
    (the round-trip property the fuzzer pins).
    """
    word &= WORD_MASK
    spec = OPCODE_TO_SPEC.get(word >> 26)
    if spec is None:
        raise DecodingError(f"invalid opcode 0x{word >> 26:02x} in word 0x{word:08x}")
    name = spec.mnemonic
    f21 = (word >> 21) & 0x1F
    f16 = (word >> 16) & 0x1F
    f11 = (word >> 11) & 0x1F
    raw16 = word & IMM16_MASK
    if spec.fmt == "N":
        if word & IMM26_MASK:
            raise DecodingError(
                f"{name}: non-canonical operand bits in word 0x{word:08x}")
        return Instruction(name)
    if spec.fmt == "R":
        if word & 0x7FF:
            raise DecodingError(
                f"{name}: non-canonical low bits in word 0x{word:08x}")
        return Instruction(name, rd=f21, rs1=f16, rs2=f11)
    if spec.fmt == "I":
        imm = _decode_imm16(raw16, name)
        if name in SHIFT_IMMS and imm >= 32:
            raise DecodingError(f"{name}: shift amount {imm} out of range")
        if name == "lui" and f16:
            raise DecodingError(
                f"lui: non-canonical rs1 field in word 0x{word:08x}")
        rs1 = 0 if name == "lui" else f16
        return Instruction(name, rd=f21, rs1=rs1, imm=imm)
    if spec.fmt == "M":
        imm = _decode_imm16(raw16, name)
        if spec.is_store:
            return Instruction(name, rs2=f21, rs1=f16, imm=imm)
        return Instruction(name, rd=f21, rs1=f16, imm=imm)
    if spec.fmt == "B":
        offset = raw16 - 0x10000 if raw16 & 0x8000 else raw16
        return Instruction(name, rs1=f21, rs2=f16, imm=pc + 4 * offset)
    if spec.fmt == "J":
        return Instruction(name, imm=(word & IMM26_MASK) << 2)
    if spec.fmt == "JR":
        if raw16:
            raise DecodingError(
                f"{name}: non-canonical low bits in word 0x{word:08x}")
        if name == "jalr":
            return Instruction(name, rd=f21, rs1=f16)
        if f21:
            raise DecodingError(
                f"jr: non-canonical rd field in word 0x{word:08x}")
        return Instruction(name, rs1=f16)
    raise AssertionError(f"unhandled format {spec.fmt}")


def is_valid_word(word: int) -> bool:
    """True when ``word`` decodes to a well-formed instruction."""
    try:
        decode(word)
    except DecodingError:
        return False
    return True

"""Two-pass SRISC assembler.

``parse`` turns assembly text into an :class:`AsmProgram` (labels bound to
instruction indices, pseudo-instructions expanded, data section built).
``assemble`` links an :class:`AsmProgram` at fixed base addresses and encodes
it into an :class:`Executable` for the vanilla core.  The SOFIA toolchain
instead feeds the parsed program to :mod:`repro.transform`.

Syntax
------
* one instruction, label (``name:``) or directive per line;
* comments start with ``#`` or ``;``;
* registers accept numeric (``r4``) or ABI (``a0``) names;
* memory operands are written ``offset(base)``;
* ``.text`` / ``.data`` switch sections; ``.word``, ``.half``, ``.byte``,
  ``.space``, ``.align``, ``.asciz`` populate data; ``.entry name`` sets the
  entry symbol; ``.targets a, b`` annotates the next (indirect) CTI with its
  static target set; ``.globl`` is accepted and ignored.

Pseudo-instructions: ``li``, ``la``, ``mv``, ``not``, ``neg``, ``seqz``,
``snez``, ``b``, ``ret``, ``bgt``, ``ble``, ``bgtu``, ``bleu``.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from ..errors import AssemblyError, EncodingError
from .encoding import encode
from .instructions import Instruction, SPECS
from .program import (AsmProgram, CODE_BASE, DATA_BASE, Executable,
                      resolve_data_references)
from .registers import AT, RA, ZERO, parse_register

_LABEL_RE = re.compile(r"^([A-Za-z_.$][\w.$]*):")
_NAME_RE = re.compile(r"^[A-Za-z_.$][\w.$]*$")
_MEM_RE = re.compile(r"^(.*)\((\w+)\)$")
_RELOC_RE = re.compile(r"^%(hi|lo)\(([A-Za-z_.$][\w.$]*)\)$")


def _parse_int(token: str, line: int) -> int:
    token = token.strip()
    try:
        if len(token) == 3 and token[0] == token[2] == "'":
            return ord(token[1])
        return int(token, 0)
    except ValueError:
        raise AssemblyError(f"invalid integer {token!r}", line) from None


def _split_operands(rest: str) -> List[str]:
    return [tok.strip() for tok in rest.split(",")] if rest.strip() else []


class _Parser:
    """Single-pass parser building an AsmProgram."""

    def __init__(self) -> None:
        self.program = AsmProgram()
        self.section = "text"
        self.pending_targets: Tuple[str, ...] = ()
        self.entry_set = False

    # -- data section helpers ------------------------------------------

    def _data_label(self, name: str, line: int) -> None:
        if name in self.program.data_symbols or name in self.program.labels:
            raise AssemblyError(f"duplicate symbol {name!r}", line)
        self.program.data_symbols[name] = len(self.program.data)

    def _emit_data_value(self, value: int, size: int) -> None:
        self.program.data += (value & ((1 << (8 * size)) - 1)).to_bytes(size, "big")

    # -- text section helpers ------------------------------------------

    def _code_label(self, name: str, line: int) -> None:
        if name in self.program.labels or name in self.program.data_symbols:
            raise AssemblyError(f"duplicate symbol {name!r}", line)
        self.program.labels[name] = len(self.program.instructions)

    def _emit(self, instr: Instruction) -> None:
        if self.pending_targets and instr.spec.is_indirect:
            instr = Instruction(
                instr.mnemonic, rd=instr.rd, rs1=instr.rs1, rs2=instr.rs2,
                imm=instr.imm, symbol=instr.symbol, reloc=instr.reloc,
                targets=self.pending_targets, line=instr.line)
            self.pending_targets = ()
        self.program.instructions.append(instr)

    # -- directive handling --------------------------------------------

    def directive(self, name: str, rest: str, line: int) -> None:
        if name == ".text":
            self.section = "text"
        elif name == ".data":
            self.section = "data"
        elif name == ".globl":
            pass
        elif name == ".entry":
            symbol = rest.strip()
            if not _NAME_RE.match(symbol):
                raise AssemblyError(f"bad entry symbol {symbol!r}", line)
            self.program.entry = symbol
            self.entry_set = True
        elif name == ".targets":
            targets = tuple(tok for tok in _split_operands(rest))
            if not targets or not all(_NAME_RE.match(t) for t in targets):
                raise AssemblyError(".targets requires a label list", line)
            self.pending_targets = targets
        elif name in (".word", ".half", ".byte"):
            if self.section != "data":
                raise AssemblyError(f"{name} outside .data", line)
            size = {".word": 4, ".half": 2, ".byte": 1}[name]
            for token in _split_operands(rest):
                self._emit_data_value(_parse_int(token, line), size)
        elif name == ".space":
            if self.section != "data":
                raise AssemblyError(".space outside .data", line)
            count = _parse_int(rest, line)
            if count < 0:
                raise AssemblyError(".space size must be non-negative", line)
            self.program.data += bytes(count)
        elif name == ".align":
            if self.section != "data":
                raise AssemblyError(".align outside .data", line)
            alignment = _parse_int(rest, line)
            if alignment <= 0 or alignment & (alignment - 1):
                raise AssemblyError(".align requires a power of two", line)
            while len(self.program.data) % alignment:
                self.program.data.append(0)
        elif name == ".asciz":
            if self.section != "data":
                raise AssemblyError(".asciz outside .data", line)
            text = rest.strip()
            if len(text) < 2 or text[0] != '"' or text[-1] != '"':
                raise AssemblyError(".asciz requires a quoted string", line)
            body = text[1:-1].encode().decode("unicode_escape")
            self.program.data += body.encode("latin-1") + b"\x00"
        else:
            raise AssemblyError(f"unknown directive {name}", line)

    # -- instruction parsing --------------------------------------------

    def instruction(self, mnemonic: str, rest: str, line: int) -> None:
        if self.section != "text":
            raise AssemblyError("instruction outside .text", line)
        ops = _split_operands(rest)
        for instr in _lower(mnemonic, ops, line):
            self._emit(instr)

    def line(self, raw: str, line_no: int) -> None:
        text = raw.split("#", 1)[0].split(";", 1)[0].strip()
        while text:
            match = _LABEL_RE.match(text)
            if not match:
                break
            name = match.group(1)
            if self.section == "text":
                self._code_label(name, line_no)
            else:
                self._data_label(name, line_no)
            text = text[match.end():].strip()
        if not text:
            return
        parts = text.split(None, 1)
        head = parts[0].lower()
        rest = parts[1] if len(parts) > 1 else ""
        if head.startswith("."):
            self.directive(head, rest, line_no)
        else:
            self.instruction(head, rest, line_no)


def _reg(token: str, line: int) -> int:
    try:
        return parse_register(token)
    except ValueError as exc:
        raise AssemblyError(str(exc), line) from None


def _imm_or_symbol(token: str, line: int) -> Tuple[Optional[int], Optional[str], Optional[str]]:
    """Return (imm, symbol, reloc) for an operand token."""
    reloc_match = _RELOC_RE.match(token)
    if reloc_match:
        return None, reloc_match.group(2), reloc_match.group(1)
    if _NAME_RE.match(token):
        return None, token, None
    return _parse_int(token, line), None, None


def _expect(ops: List[str], count: int, mnemonic: str, line: int) -> None:
    if len(ops) != count:
        raise AssemblyError(
            f"{mnemonic} expects {count} operand(s), got {len(ops)}", line)


def _lower(mnemonic: str, ops: List[str], line: int) -> List[Instruction]:
    """Lower one source mnemonic (possibly a pseudo) to real instructions."""
    # --- pseudo-instructions ---
    if mnemonic == "li":
        _expect(ops, 2, mnemonic, line)
        rd = _reg(ops[0], line)
        value = _parse_int(ops[1], line) & 0xFFFFFFFF
        signed = value - 0x100000000 if value & 0x80000000 else value
        if -0x8000 <= signed <= 0x7FFF:
            return [Instruction("addi", rd=rd, rs1=ZERO, imm=signed, line=line)]
        high, low = value >> 16, value & 0xFFFF
        seq = [Instruction("lui", rd=rd, imm=high, line=line)]
        if low:
            seq.append(Instruction("ori", rd=rd, rs1=rd, imm=low, line=line))
        return seq
    if mnemonic == "la":
        _expect(ops, 2, mnemonic, line)
        rd = _reg(ops[0], line)
        symbol = ops[1]
        if not _NAME_RE.match(symbol):
            raise AssemblyError(f"la expects a symbol, got {symbol!r}", line)
        return [
            Instruction("lui", rd=rd, symbol=symbol, reloc="hi", line=line),
            Instruction("ori", rd=rd, rs1=rd, symbol=symbol, reloc="lo", line=line),
        ]
    if mnemonic == "mv":
        _expect(ops, 2, mnemonic, line)
        return [Instruction("addi", rd=_reg(ops[0], line),
                            rs1=_reg(ops[1], line), imm=0, line=line)]
    if mnemonic == "not":
        _expect(ops, 2, mnemonic, line)
        rd, rs = _reg(ops[0], line), _reg(ops[1], line)
        return [Instruction("addi", rd=AT, rs1=ZERO, imm=-1, line=line),
                Instruction("xor", rd=rd, rs1=rs, rs2=AT, line=line)]
    if mnemonic == "neg":
        _expect(ops, 2, mnemonic, line)
        return [Instruction("sub", rd=_reg(ops[0], line), rs1=ZERO,
                            rs2=_reg(ops[1], line), line=line)]
    if mnemonic == "seqz":
        _expect(ops, 2, mnemonic, line)
        return [Instruction("sltiu", rd=_reg(ops[0], line),
                            rs1=_reg(ops[1], line), imm=1, line=line)]
    if mnemonic == "snez":
        _expect(ops, 2, mnemonic, line)
        return [Instruction("sltu", rd=_reg(ops[0], line), rs1=ZERO,
                            rs2=_reg(ops[1], line), line=line)]
    if mnemonic == "b":
        _expect(ops, 1, mnemonic, line)
        imm, symbol, _ = _imm_or_symbol(ops[0], line)
        return [Instruction("jmp", imm=imm, symbol=symbol, line=line)]
    if mnemonic == "ret":
        _expect(ops, 0, mnemonic, line)
        return [Instruction("jr", rs1=RA, line=line)]
    if mnemonic in ("bgt", "ble", "bgtu", "bleu"):
        _expect(ops, 3, mnemonic, line)
        real = {"bgt": "blt", "ble": "bge", "bgtu": "bltu", "bleu": "bgeu"}[mnemonic]
        imm, symbol, _ = _imm_or_symbol(ops[2], line)
        return [Instruction(real, rs1=_reg(ops[1], line), rs2=_reg(ops[0], line),
                            imm=imm, symbol=symbol, line=line)]

    # --- real instructions ---
    spec = SPECS.get(mnemonic)
    if spec is None:
        raise AssemblyError(f"unknown mnemonic {mnemonic!r}", line)
    if spec.fmt == "N":
        _expect(ops, 0, mnemonic, line)
        return [Instruction(mnemonic, line=line)]
    if spec.fmt == "R":
        _expect(ops, 3, mnemonic, line)
        return [Instruction(mnemonic, rd=_reg(ops[0], line),
                            rs1=_reg(ops[1], line), rs2=_reg(ops[2], line),
                            line=line)]
    if spec.fmt == "I":
        if mnemonic == "lui":
            _expect(ops, 2, mnemonic, line)
            imm, symbol, reloc = _imm_or_symbol(ops[1], line)
            return [Instruction(mnemonic, rd=_reg(ops[0], line), imm=imm,
                                symbol=symbol, reloc=reloc, line=line)]
        _expect(ops, 3, mnemonic, line)
        imm, symbol, reloc = _imm_or_symbol(ops[2], line)
        return [Instruction(mnemonic, rd=_reg(ops[0], line),
                            rs1=_reg(ops[1], line), imm=imm, symbol=symbol,
                            reloc=reloc, line=line)]
    if spec.fmt == "M":
        _expect(ops, 2, mnemonic, line)
        match = _MEM_RE.match(ops[1])
        if not match:
            raise AssemblyError(
                f"{mnemonic} expects offset(base), got {ops[1]!r}", line)
        offset_text = match.group(1).strip() or "0"
        offset = _parse_int(offset_text, line)
        base = _reg(match.group(2), line)
        data_reg = _reg(ops[0], line)
        if spec.is_store:
            return [Instruction(mnemonic, rs2=data_reg, rs1=base, imm=offset,
                                line=line)]
        return [Instruction(mnemonic, rd=data_reg, rs1=base, imm=offset,
                            line=line)]
    if spec.fmt == "B":
        _expect(ops, 3, mnemonic, line)
        imm, symbol, _ = _imm_or_symbol(ops[2], line)
        return [Instruction(mnemonic, rs1=_reg(ops[0], line),
                            rs2=_reg(ops[1], line), imm=imm, symbol=symbol,
                            line=line)]
    if spec.fmt == "J":
        _expect(ops, 1, mnemonic, line)
        imm, symbol, _ = _imm_or_symbol(ops[0], line)
        return [Instruction(mnemonic, imm=imm, symbol=symbol, line=line)]
    if spec.fmt == "JR":
        if mnemonic == "jalr":
            _expect(ops, 2, mnemonic, line)
            return [Instruction(mnemonic, rd=_reg(ops[0], line),
                                rs1=_reg(ops[1], line), line=line)]
        _expect(ops, 1, mnemonic, line)
        return [Instruction(mnemonic, rs1=_reg(ops[0], line), line=line)]
    raise AssertionError(f"unhandled format {spec.fmt}")


def parse(text: str) -> AsmProgram:
    """Parse assembly source into an :class:`AsmProgram`."""
    parser = _Parser()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        parser.line(raw, line_no)
    program = parser.program
    if (not parser.entry_set and "main" not in program.labels
            and "_start" in program.labels):
        program.entry = "_start"
    program.validate()
    _check_symbols(program)
    return program


def _check_symbols(program: AsmProgram) -> None:
    """Verify that every referenced symbol is defined somewhere."""
    known = set(program.labels) | set(program.data_symbols)
    for instr in program.instructions:
        if instr.symbol is not None and instr.symbol not in known:
            raise AssemblyError(
                f"undefined symbol {instr.symbol!r}", instr.line)
        for target in instr.targets:
            if target not in program.labels:
                raise AssemblyError(
                    f".targets names unknown code label {target!r}", instr.line)


def resolve_instruction(
    instr: Instruction, symbols: Dict[str, int]
) -> Instruction:
    """Replace a symbolic operand with its numeric value.

    ``symbols`` must hold absolute addresses for every label.  ``%hi``/
    ``%lo`` relocations are applied here.
    """
    if instr.symbol is None:
        return instr
    address = symbols.get(instr.symbol)
    if address is None:
        raise AssemblyError(f"undefined symbol {instr.symbol!r}", instr.line)
    if instr.reloc == "hi":
        value = (address >> 16) & 0xFFFF
    elif instr.reloc == "lo":
        value = address & 0xFFFF
    else:
        value = address
    return Instruction(instr.mnemonic, rd=instr.rd, rs1=instr.rs1,
                       rs2=instr.rs2, imm=value, symbol=None, reloc=None,
                       targets=instr.targets, line=instr.line)


def assemble(
    program: AsmProgram,
    code_base: int = CODE_BASE,
    data_base: int = DATA_BASE,
) -> Executable:
    """Link and encode a parsed program into a vanilla executable."""
    program.validate()
    symbols = {name: code_base + 4 * index
               for name, index in program.labels.items()}
    symbols.update(resolve_data_references(program, data_base))
    words: List[int] = []
    source: List[Instruction] = []
    for index, instr in enumerate(program.instructions):
        pc = code_base + 4 * index
        resolved = resolve_instruction(instr, symbols)
        try:
            words.append(encode(resolved, pc))
        except EncodingError as exc:
            raise AssemblyError(str(exc), instr.line) from exc
        source.append(resolved)
    return Executable(code_words=words, data=bytes(program.data),
                      symbols=symbols, entry=symbols[program.entry],
                      code_base=code_base, data_base=data_base, source=source)


def assemble_text(text: str, **kwargs) -> Executable:
    """Convenience: parse + assemble in one call."""
    return assemble(parse(text), **kwargs)

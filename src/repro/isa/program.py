"""Program containers: parsed assembly and linked executables.

:class:`AsmProgram` is the assembler's (and minicc's) output and the SOFIA
transformer's input: a flat list of instructions with labels attached to
instruction indices, plus an initialized data section.  Addresses are not
assigned yet — the transformer is free to relocate everything into blocks.

:class:`Executable` is a linked vanilla binary: encoded code words at
``CODE_BASE``, data at ``DATA_BASE``, resolved symbols, an entry address.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import AssemblyError
from .instructions import Instruction

#: Default memory map (see DESIGN.md).
CODE_BASE = 0x0000_0000
DATA_BASE = 0x0010_0000
STACK_TOP = 0x0020_0000
MMIO_BASE = 0xFFFF_0000

MMIO_PUTCHAR = MMIO_BASE + 0x0
MMIO_PUTINT = MMIO_BASE + 0x4
MMIO_EXIT = MMIO_BASE + 0x8
MMIO_PUTWORD = MMIO_BASE + 0xC
#: A simulated safety-critical actuator (the paper's motivating example is
#: a store that disables the brakes of a car, §II-B2).  The attack harness
#: treats any unsanctioned write here as a successful compromise.
MMIO_ACTUATOR = MMIO_BASE + 0x10


@dataclass
class AsmProgram:
    """Parsed (unlinked) assembly program.

    ``labels`` maps a code label to the index of the instruction it
    precedes; a label equal to ``len(instructions)`` marks the end of the
    text section.  ``data_symbols`` maps data labels to byte offsets within
    ``data``.
    """

    instructions: List[Instruction] = field(default_factory=list)
    labels: Dict[str, int] = field(default_factory=dict)
    data: bytearray = field(default_factory=bytearray)
    data_symbols: Dict[str, int] = field(default_factory=dict)
    entry: str = "main"

    def labels_by_index(self) -> Dict[int, List[str]]:
        """index -> labels map (stable order by name)."""
        result: Dict[int, List[str]] = {}
        for name in sorted(self.labels):
            result.setdefault(self.labels[name], []).append(name)
        return result

    def validate(self) -> None:
        """Check structural invariants shared by assembler and compiler."""
        n = len(self.instructions)
        for name, index in self.labels.items():
            if not 0 <= index <= n:
                raise AssemblyError(f"label {name!r} points outside the program")
        if self.entry not in self.labels:
            raise AssemblyError(f"entry symbol {self.entry!r} is not defined")
        for name, offset in self.data_symbols.items():
            if not 0 <= offset <= len(self.data):
                raise AssemblyError(f"data symbol {name!r} points outside .data")


@dataclass
class Executable:
    """A linked vanilla (unprotected) binary image."""

    code_words: List[int]
    data: bytes
    symbols: Dict[str, int]
    entry: int
    code_base: int = CODE_BASE
    data_base: int = DATA_BASE
    #: per-word source instruction (for tracing/diagnostics)
    source: Optional[List[Instruction]] = None
    #: the decode planes of the machines that run this binary, one per
    #: timing (see ``repro.sim.vanilla``): a pure cache, never compared,
    #: printed, copied by ``replace`` or pickled
    step_planes: Dict = field(default_factory=dict, init=False,
                              compare=False, repr=False)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["step_planes"] = {}
        return state

    @property
    def code_size_bytes(self) -> int:
        """Size of the text section in bytes (the paper's code-size metric)."""
        return 4 * len(self.code_words)

    def word_at(self, address: int) -> int:
        index = (address - self.code_base) // 4
        if not 0 <= index < len(self.code_words):
            raise AssemblyError(f"address 0x{address:08x} outside text section")
        return self.code_words[index]

    def symbol(self, name: str) -> int:
        try:
            return self.symbols[name]
        except KeyError:
            raise AssemblyError(f"unknown symbol {name!r}") from None


def resolve_data_references(
    program: AsmProgram, data_base: int = DATA_BASE
) -> Dict[str, int]:
    """Absolute addresses of all data symbols."""
    return {name: data_base + off for name, off in program.data_symbols.items()}


def split_functions(program: AsmProgram) -> List[Tuple[str, int, int]]:
    """Partition the text section into (label, start, end) function ranges.

    A function starts at every label that is the target of a ``call`` or is
    the entry symbol; ranges run to the next function start.  Used by
    analyses and by the transformer's single-ret canonicalization.
    """
    starts = {program.labels[program.entry]}
    for instr in program.instructions:
        if instr.spec.is_call and instr.symbol is not None:
            if instr.symbol in program.labels:
                starts.add(program.labels[instr.symbol])
        if instr.spec.is_call and instr.spec.is_indirect:
            for target in instr.targets:
                if target in program.labels:
                    starts.add(program.labels[target])
    ordered = sorted(starts)
    by_index = program.labels_by_index()
    result = []
    for i, start in enumerate(ordered):
        end = ordered[i + 1] if i + 1 < len(ordered) else len(program.instructions)
        names = by_index.get(start, [f"func_{start}"])
        result.append((names[0], start, end))
    return result

"""SRISC instruction-set substrate (stands in for LEON3's SPARCv8)."""

from .._lazy import lazy_facade

lazy_facade(__name__, {
    "assembler": ("assemble", "assemble_text", "parse", "resolve_instruction"),
    "disassembler": ("disassemble", "disassemble_word", "dump"),
    "encoding": ("decode", "encode", "is_valid_word"),
    "instructions": ("NOP", "Instruction", "OpSpec", "SPECS", "make_nop"),
    "program": ("AsmProgram", "CODE_BASE", "DATA_BASE", "Executable",
                "MMIO_BASE", "MMIO_EXIT", "MMIO_PUTCHAR", "MMIO_PUTINT",
                "MMIO_PUTWORD", "STACK_TOP", "split_functions"),
    "registers": ("ALIASES", "NUM_REGISTERS", "parse_register",
                  "register_name"),
})

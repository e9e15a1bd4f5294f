"""Build a precise instruction-level CFG from a parsed program.

The builder implements the control-flow model shared by the SOFIA
transformer and the simulator:

* plain instructions fall through to their successor;
* conditional branches have a taken edge and a fall-through edge;
* ``jmp``/``call`` have direct edges to their label;
* a direct ``call`` additionally induces ``return`` edges from every ``ret``
  of the callee to the instruction after the call (its *return point*);
* indirect CTIs must carry a ``.targets`` annotation; an annotated ``jalr``
  induces call edges to each target and return edges from each target's
  rets;
* ``halt`` terminates; ``jr ra`` (``ret``) has only the return edges
  attached at its call sites;
* a virtual ``reset`` edge enters the program entry.

Precision requirements (paper §II-D: "this mechanism only works when
control flow can be modeled accurately") are enforced with
:class:`~repro.errors.CFGError`: unannotated indirect CTIs, jumps that cross
function boundaries (tail calls), and code that falls off the end of the
program are rejected.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import CFGError
from ..isa.instructions import Instruction
from ..isa.program import AsmProgram, split_functions
from ..isa.registers import RA
from .graph import ControlFlowGraph, RESET_NODE


def is_return(instr: Instruction) -> bool:
    """True for the canonical return instruction ``jr ra``."""
    return instr.mnemonic == "jr" and instr.rs1 == RA


def function_ranges(program: AsmProgram) -> Dict[str, Tuple[int, int]]:
    """name -> (start, end) index range for every function."""
    return {name: (start, end)
            for name, start, end in split_functions(program)}


def function_of(index: int, ranges: Dict[str, Tuple[int, int]]) -> Optional[str]:
    for name, (start, end) in ranges.items():
        if start <= index < end:
            return name
    return None


def returns_of(program: AsmProgram, start: int, end: int) -> List[int]:
    """Indices of every ``ret`` in the instruction range [start, end)."""
    return [i for i in range(start, end)
            if is_return(program.instructions[i])]


def build_cfg(program: AsmProgram) -> ControlFlowGraph:
    """Construct the precise instruction-level CFG of ``program``."""
    program.validate()
    instructions = program.instructions
    n = len(instructions)
    if n == 0:
        raise CFGError("cannot build a CFG for an empty program")
    entry_index = program.labels[program.entry]
    if entry_index >= n:
        # same fuzzer-found class as trailing CTI targets below: an
        # entry label bound past the last instruction names no code
        raise CFGError(
            f"entry label {program.entry!r} points past the end of "
            f"the program")
    cfg = ControlFlowGraph(num_nodes=n, entry=entry_index)
    cfg.add_edge(RESET_NODE, cfg.entry, "reset")

    ranges = function_ranges(program)
    rets_by_function = {name: returns_of(program, start, end)
                        for name, (start, end) in ranges.items()}

    def target_index(instr: Instruction, symbol: str) -> int:
        index = program.labels.get(symbol)
        if index is None:
            raise CFGError(
                f"CTI at index targets unknown label {symbol!r} "
                f"(line {instr.line})")
        if index >= n:
            # a trailing label parses and assembles (the vanilla core
            # would fetch-fault there), but it names no instruction, so
            # no precise CFG exists — fuzzer-found totality bug: this
            # used to escape as a raw ValueError from add_edge
            raise CFGError(
                f"CTI targets label {symbol!r} past the end of the "
                f"program (line {instr.line})")
        return index

    for i, instr in enumerate(instructions):
        spec = instr.spec
        if spec.is_halt:
            continue
        if spec.is_branch:
            if instr.symbol is None:
                raise CFGError(f"branch without symbolic target (line {instr.line})")
            cfg.add_edge(i, target_index(instr, instr.symbol), "taken")
            _add_fallthrough(cfg, i, n, instr)
            continue
        if spec.is_jump:  # jmp
            if instr.symbol is None:
                raise CFGError(f"jmp without symbolic target (line {instr.line})")
            dst = target_index(instr, instr.symbol)
            src_fn = function_of(i, ranges)
            dst_fn = function_of(dst, ranges)
            if src_fn != dst_fn:
                raise CFGError(
                    f"jmp from function {src_fn!r} into {dst_fn!r} "
                    f"(tail call) is not supported (line {instr.line})")
            cfg.add_edge(i, dst, "jump")
            continue
        if spec.is_call and not spec.is_indirect:  # call
            if instr.symbol is None:
                raise CFGError(f"call without symbolic target (line {instr.line})")
            callee = instr.symbol
            entry_index = target_index(instr, callee)
            cfg.add_edge(i, entry_index, "call")
            _add_return_edges(cfg, program, i, callee, ranges,
                              rets_by_function, n, instr)
            continue
        if spec.is_indirect:
            if is_return(instr):
                continue  # return edges were attached at call sites
            if not instr.targets:
                raise CFGError(
                    f"indirect {instr.mnemonic} without .targets annotation "
                    f"(line {instr.line}); SOFIA requires a precise CFG")
            for symbol in instr.targets:
                dst = target_index(instr, symbol)
                cfg.add_edge(i, dst, "icall")
                if spec.is_call:
                    _add_return_edges(cfg, program, i, symbol, ranges,
                                      rets_by_function, n, instr)
            continue
        # plain instruction
        _add_fallthrough(cfg, i, n, instr)
    return cfg


def _add_fallthrough(cfg: ControlFlowGraph, i: int, n: int,
                     instr: Instruction) -> None:
    if i + 1 >= n:
        raise CFGError(
            f"control falls off the end of the program after "
            f"{instr.mnemonic!r} (line {instr.line})")
    cfg.add_edge(i, i + 1, "fall")


def _add_return_edges(cfg: ControlFlowGraph, program: AsmProgram,
                      call_index: int, callee: str,
                      ranges: Dict[str, Tuple[int, int]],
                      rets_by_function: Dict[str, List[int]],
                      n: int, instr: Instruction) -> None:
    if call_index + 1 >= n:
        raise CFGError(
            f"call at the end of the program has no return point "
            f"(line {instr.line})")
    if callee not in ranges:
        raise CFGError(
            f"call target {callee!r} is not a function entry (line {instr.line})")
    for ret_index in rets_by_function[callee]:
        cfg.add_edge(ret_index, call_index + 1, "return")

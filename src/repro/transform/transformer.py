"""End-to-end SOFIA binary transformation (paper §III).

``transform`` is the toolchain entry point standing in for the paper's
assembly-rewriting step: canonicalize the program, build its precise CFG,
rewrite indirectly-reachable returns, lay the code out into execution and
multiplexor blocks, then MAC-and-encrypt everything into a
:class:`~repro.transform.image.SofiaImage`.

Canonicalization passes:

* **single-ret** — every function keeps one ``jr ra``; additional returns
  are rewritten into ``jmp`` to the canonical one, so each return point has
  exactly one static predecessor instruction.
* **indirect-return rewriting** — a function reached through a
  ``.targets``-annotated ``jalr`` must be exclusive to that call site
  (checked); its ``ret`` is rewritten to a direct ``jmp`` to the call
  site's return point, making the return edge statically resolvable.
  This mirrors the paper's restriction that control flow must be precisely
  analyzable (§II-D).
"""

from __future__ import annotations

from typing import Dict, Set

from ..cfg.builder import build_cfg, function_ranges, returns_of
from ..cfg.graph import ControlFlowGraph
from ..crypto.keys import DeviceKeys
from ..errors import TransformError
from ..isa.instructions import Instruction
from ..isa.program import AsmProgram
from .encrypt import seal
from .image import SofiaImage
from .layout import Layout, build_layout
from .profile import DEFAULT_PROFILE, ProtectionProfile


def _copy_program(program: AsmProgram) -> AsmProgram:
    return AsmProgram(instructions=list(program.instructions),
                      labels=dict(program.labels),
                      data=bytearray(program.data),
                      data_symbols=dict(program.data_symbols),
                      entry=program.entry)


def canonicalize_returns(program: AsmProgram) -> AsmProgram:
    """Rewrite every function to have at most one ``jr ra``."""
    result = _copy_program(program)
    ranges = function_ranges(result)
    for name, (start, end) in sorted(ranges.items()):
        rets = returns_of(result, start, end)
        if len(rets) <= 1:
            continue
        canonical = rets[-1]
        label = f"__ret_{name}"
        if label in result.labels or label in result.data_symbols:
            raise TransformError(f"reserved label {label!r} already defined")
        result.labels[label] = canonical
        for index in rets[:-1]:
            old = result.instructions[index]
            result.instructions[index] = Instruction(
                "jmp", symbol=label, line=old.line)
    return result


def rewrite_indirect_returns(program: AsmProgram,
                             cfg: ControlFlowGraph) -> None:
    """Make indirect-call targets statically returnable (in place).

    For each ``jalr`` site: every target function's ``ret`` becomes
    ``jmp __iret_<site>`` where the label marks the site's return point.
    Validates the exclusivity restrictions documented in DESIGN.md.
    """
    ranges = function_ranges(program)
    direct_call_targets: Set[int] = {
        e.dst for e in cfg.edges if e.kind == "call"}
    claimed: Dict[str, int] = {}  # target symbol -> claiming site index
    for site_index, instr in enumerate(program.instructions):
        spec = instr.spec
        if not (spec.is_indirect and instr.targets):
            continue
        for symbol in instr.targets:
            owner = claimed.get(symbol)
            if owner is not None and owner != site_index:
                raise TransformError(
                    f"indirect target {symbol!r} is used by two call "
                    f"sites (instructions {owner} and {site_index}); "
                    f"SOFIA needs a distinct entry per caller")
            claimed[symbol] = site_index
            target_index = program.labels[symbol]
            if spec.is_call and target_index in direct_call_targets:
                raise TransformError(
                    f"function {symbol!r} is both directly called and an "
                    f"indirect target; rewrite one of the call styles")
        if not spec.is_call:
            continue  # computed goto: no return edge to rewrite
        return_label = f"__iret_{site_index}"
        if return_label not in program.labels:
            if site_index + 1 >= len(program.instructions):
                raise TransformError(
                    "indirect call at the end of the program")
            program.labels[return_label] = site_index + 1
        for symbol in instr.targets:
            start, end = ranges[symbol]
            rets = returns_of(program, start, end)
            if len(rets) > 1:
                raise TransformError(
                    f"function {symbol!r} still has multiple returns")
            for ret_index in rets:
                old = program.instructions[ret_index]
                program.instructions[ret_index] = Instruction(
                    "jmp", symbol=return_label, line=old.line)


def prepare(program: AsmProgram,
            profile: ProtectionProfile = DEFAULT_PROFILE) -> Layout:
    """Canonicalize + CFG + layout, without sealing (useful for tests)."""
    canonical = canonicalize_returns(program)
    cfg = build_cfg(canonical)
    rewrite_indirect_returns(canonical, cfg)
    return build_layout(canonical, cfg, profile)


def transform(program: AsmProgram, keys: DeviceKeys, nonce: int,
              profile: ProtectionProfile = DEFAULT_PROFILE) -> SofiaImage:
    """Transform a parsed program into an encrypted SOFIA image.

    ``profile`` is the design point (cipher, seal width, renonce policy,
    geometry — the E17 sweep axis); the default is the paper's.  The
    image is sealed under the profile's cipher whatever cipher ``keys``
    were bound to.
    """
    canonical = canonicalize_returns(program)
    cfg = build_cfg(canonical)
    rewrite_indirect_returns(canonical, cfg)
    layout = build_layout(canonical, cfg, profile)
    return seal(layout, canonical, keys, nonce)

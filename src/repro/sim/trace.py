"""Execution tracing and image listing utilities.

Debug tooling around the simulators:

* :func:`trace_vanilla` / :func:`trace_sofia` — single-step a machine and
  record every committed instruction (pc, disassembly, changed register);
* :func:`diff_traces` — align a vanilla trace with a SOFIA trace by
  filtering the padding nops, to localize the first divergence when a
  transformation bug is suspected;
* :func:`list_image` — a decrypted disassembly listing of a SOFIA image
  (requires the device keys), block by block, with MAC words and entry
  prevPCs annotated — the view the software provider's tooling shows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..crypto.keys import DeviceKeys
from ..errors import DecodingError
from ..isa.encoding import decode
from ..isa.registers import register_name
from ..transform.image import SofiaImage
from ..transform.verify import ImageVerifier
from .sofia import SofiaMachine
from .vanilla import VanillaMachine


@dataclass(frozen=True)
class TraceEntry:
    """One committed instruction."""

    index: int
    pc: int
    text: str
    changed_reg: Optional[int] = None
    new_value: Optional[int] = None

    def render(self) -> str:
        line = f"{self.index:>6d}  {self.pc:08x}  {self.text:<28s}"
        if self.changed_reg is not None:
            line += (f"{register_name(self.changed_reg)} <- "
                     f"0x{self.new_value:08x}")
        return line


def _record_via_hook(machine, max_instructions: int) -> List[TraceEntry]:
    """Run a machine with the on_commit hook recording every instruction.

    A hooked run is executed by the reference oracle whatever the
    machine's engine (see :mod:`repro.sim.engine`): the hook fires once
    per committed instruction, after its register/memory effects and
    before the PC advances, so traces are engine-independent.
    """
    trace: List[TraceEntry] = []
    last_regs = list(machine.state.regs)

    def hook(pc: int, instr) -> None:
        changed_reg = None
        new_value = None
        regs = machine.state.regs
        for reg in range(32):
            if regs[reg] != last_regs[reg]:
                if changed_reg is None:
                    changed_reg, new_value = reg, regs[reg]
                last_regs[reg] = regs[reg]
        trace.append(TraceEntry(index=len(trace), pc=pc,
                                text=instr.render(),
                                changed_reg=changed_reg,
                                new_value=new_value))

    machine.on_commit = hook
    try:
        machine.run(max_instructions=max_instructions)
    finally:
        machine.on_commit = None
    return trace


def trace_vanilla(machine: VanillaMachine,
                  max_instructions: int = 10_000) -> List[TraceEntry]:
    """Run a vanilla machine, recording each committed instruction."""
    return _record_via_hook(machine, max_instructions)


def trace_sofia(machine: SofiaMachine, keys: Optional[DeviceKeys] = None,
                max_instructions: int = 10_000) -> List[TraceEntry]:
    """Run a SOFIA machine, recording each committed instruction.

    The instruction text comes straight from the decrypt-verify unit
    (the hook receives decoded instructions), so no keys are needed —
    the ``keys`` parameter is kept for API symmetry with the listing
    tools and ignored.
    """
    return _record_via_hook(machine, max_instructions)


def diff_traces(vanilla: List[TraceEntry],
                sofia: List[TraceEntry]) -> Optional[Tuple[int, str]]:
    """First semantic divergence between the two traces, if any.

    Padding nops in the SOFIA trace are skipped; entries are compared by
    instruction text and register effect (addresses necessarily differ).
    Returns ``None`` when the filtered traces agree, else
    ``(index, explanation)``.
    """
    meaningful = [e for e in sofia if e.text != "nop"]
    plain = [e for e in vanilla if e.text != "nop"]
    for i, (a, b) in enumerate(zip(plain, meaningful)):
        same_effect = (a.changed_reg == b.changed_reg
                       and a.new_value == b.new_value)
        if a.text.split()[0] != b.text.split()[0] or not same_effect:
            return i, (f"vanilla[{a.index}] {a.render()} vs "
                       f"sofia[{b.index}] {b.render()}")
    if len(plain) != len(meaningful):
        return min(len(plain), len(meaningful)), "trace lengths differ"
    return None


def list_image(image: SofiaImage, keys: DeviceKeys) -> str:
    """Decrypted, annotated disassembly listing of a SOFIA image."""
    verifier = ImageVerifier(image, keys)
    lines = [f"SOFIA image: {image.num_blocks} blocks, nonce=0x{image.nonce:04x}, "
             f"entry=0x{image.entry:08x}"]
    for record in image.blocks:
        labels = f" <{', '.join(record.labels)}>" if record.labels else ""
        prevs = ", ".join(f"0x{p:08x}" for p in record.entry_prev_pcs)
        lines.append(f"\nblock @ 0x{record.base:08x} [{record.kind}]"
                     f"{labels}  sealed prevPC: {prevs or 'unreachable'}")
        mac_count = image.block_words - record.capacity
        if record.entry_prev_pcs:
            words = verifier._decrypt_block(record, 0,
                                            record.entry_prev_pcs[0])
        else:
            words = [0] * image.block_words
        for j in range(mac_count):
            if record.kind == "mux":
                # mux heads duplicate M1 as the two entry points
                name = ("M1e1", "M1e2")[j] if j < 2 else f"M{j}"
            else:
                name = f"M{j + 1}"
            lines.append(f"  {record.base + 4 * j:08x}:  "
                         f"{words[j]:08x}  ; MAC word {name}")
        for slot in range(record.capacity):
            address = record.base + 4 * (mac_count + slot)
            word = words[mac_count + slot]
            try:
                text = decode(word, address).render()
            except DecodingError:
                text = f".word 0x{word:08x}"
            lines.append(f"  {address:08x}:  {word:08x}  {text}")
    return "\n".join(lines)

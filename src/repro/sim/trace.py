"""Execution tracing and image listing utilities.

Debug tooling around the simulators:

* :func:`trace` — run a vanilla or SOFIA machine and record every
  committed instruction (pc, disassembly, changed register);
* :func:`list_image` — a decrypted disassembly listing of a SOFIA image
  (requires the device keys), block by block, with MAC words and entry
  prevPCs annotated — the view the software provider's tooling shows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..crypto.keys import DeviceKeys
from ..errors import DecodingError
from ..isa.encoding import decode
from ..isa.registers import register_name
from ..transform.image import SofiaImage
from ..transform.verify import ImageVerifier


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


def trace(machine, max_instructions: int = 10_000) -> List[TraceEntry]:
    """Run a vanilla or SOFIA machine, recording each committed instruction.

    A hooked run is executed by the reference oracle whatever the
    machine's engine (see :mod:`repro.sim.engine`): the hook fires once
    per committed instruction, after its register/memory effects and
    before the PC advances, so traces are engine-independent.  On a SOFIA
    machine the instruction text comes straight from the decrypt-verify
    unit, so no keys are needed.
    """
    entries: List[TraceEntry] = []
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
        entries.append(TraceEntry(index=len(entries), pc=pc,
                                  text=instr.render(),
                                  changed_reg=changed_reg,
                                  new_value=new_value))

    machine.on_commit = hook
    try:
        machine.run(max_instructions=max_instructions)
    finally:
        machine.on_commit = None
    return entries


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
        # each word as decrypted by the first sealed entry that fetches
        # it (so a mux block lists both of its M1 copies)
        words = {}
        for slot, prev_pc in enumerate(record.entry_prev_pcs):
            for address, word in verifier.decrypt_traversal(record, slot,
                                                            prev_pc):
                words.setdefault(address, word)
        for j in range(mac_count):
            if record.kind == "mux":
                # mux heads duplicate M1 as the two entry points
                name = ("M1e1", "M1e2")[j] if j < 2 else f"M{j}"
            else:
                name = f"M{j + 1}"
            address = record.base + 4 * j
            lines.append(f"  {address:08x}:  "
                         f"{words.get(address, 0):08x}  ; MAC word {name}")
        for slot in range(record.capacity):
            address = record.base + 4 * (mac_count + slot)
            word = words.get(address, 0)
            try:
                text = decode(word, address).render()
            except DecodingError:
                text = f".word 0x{word:08x}"
            lines.append(f"  {address:08x}:  {word:08x}  {text}")
    return "\n".join(lines)

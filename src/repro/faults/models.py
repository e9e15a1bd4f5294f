"""Fault models for the fault-injection campaign (paper §V future work).

The paper closes with "we further plan to test the architecture's
resistance to fault-based attacks".  This package implements that study
for the functional model: physical fault effects (voltage/clock glitches,
laser shots) are abstracted as architectural-state corruptions injected at
a chosen dynamic instant:

* ``CodeBitFlip``      — a bit flips in stored program memory (SEU in the
                         flash/SRAM holding the encrypted binary);
* ``FetchGlitch``      — one fetched word is corrupted on the bus for a
                         single traversal (transient, memory unchanged);
* ``PCGlitch``         — the program counter is forced to an arbitrary
                         value (classic instruction-skip / jump glitch);
* ``RegisterFault``    — a register bit flips (datapath SEU);
* ``VerifySkip``       — the MAC comparison itself is glitched to pass
                         once (the canonical attack on any checker).

Each model reports what SOFIA *can* and *cannot* promise: code/fetch/PC
faults perturb the decrypt-verify pipeline and are detected like software
attacks; register faults and checker glitches are outside the threat model
(the paper protects instruction integrity, not datapath state).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from ..sim.sofia import SofiaMachine


@dataclass(frozen=True)
class FaultSpec:
    """Base class: when (dynamic instruction index) and what to corrupt."""

    trigger_instructions: int  # inject after this many committed instrs

    def inject(self, machine: SofiaMachine) -> str:
        """Apply the fault; returns a short description for the report."""
        raise NotImplementedError


@dataclass(frozen=True)
class CodeBitFlip(FaultSpec):
    """Flip ``bit`` of the stored code word at ``address``."""

    address: int = 0
    bit: int = 0

    def inject(self, machine: SofiaMachine) -> str:
        word = machine.memory.fetch_word(self.address)
        machine.memory.poke_code(self.address, word ^ (1 << self.bit))
        return f"code bit {self.bit} @ 0x{self.address:08x}"


@dataclass(frozen=True)
class FetchGlitch(FaultSpec):
    """Corrupt the next fetch of ``address`` once (bus transient)."""

    address: int = 0
    xor_mask: int = 1

    def inject(self, machine: SofiaMachine) -> str:
        original = machine.memory.fetch_word(self.address)
        machine.memory.poke_code(self.address, original ^ self.xor_mask)

        # restore after one block traversal: the poke dropped every
        # cached block that fetches this word, so the next decrypt of one
        # sees the glitched word; the machine pokes the original back
        # after the next traversal (dropping those blocks again),
        # modelling a transient that affected exactly one traversal window.
        machine.pending_fetch_restore = (self.address, original)
        return f"fetch glitch @ 0x{self.address:08x} mask 0x{self.xor_mask:x}"


@dataclass(frozen=True)
class PCGlitch(FaultSpec):
    """Force the PC to ``target`` (instruction-skip / jump glitch)."""

    target: int = 0

    def inject(self, machine: SofiaMachine) -> str:
        machine.state.pc = self.target
        return f"pc glitch -> 0x{self.target:08x}"


@dataclass(frozen=True)
class RegisterFault(FaultSpec):
    """Flip ``bit`` of register ``reg`` (datapath SEU)."""

    reg: int = 4
    bit: int = 0

    def inject(self, machine: SofiaMachine) -> str:
        machine.state.regs[self.reg] ^= (1 << self.bit)
        machine.state.regs[self.reg] &= 0xFFFFFFFF
        if self.reg == 0:
            machine.state.regs[0] = 0  # r0 is hard-wired
        return f"register r{self.reg} bit {self.bit}"


@dataclass(frozen=True)
class VerifySkip(FaultSpec):
    """Glitch the MAC comparator to accept the next failing block."""

    def inject(self, machine: SofiaMachine) -> str:
        machine.verify_skip_budget = getattr(
            machine, "verify_skip_budget", 0) + 1
        return "verify comparator glitched (one acceptance)"


@dataclass(frozen=True)
class CombinedFault(FaultSpec):
    """Several faults injected at the same instant.

    The canonical fault *attack* on SOFIA: flip a code bit **and** glitch
    the MAC comparator in the same window — the glitch lets exactly one
    tampered block through, turning a deterministic detection into silent
    data corruption.  This is what the paper's planned fault study must
    defend against (e.g. by a redundant comparator).
    """

    parts: tuple = ()

    def inject(self, machine: SofiaMachine) -> str:
        return " + ".join(part.inject(machine) for part in self.parts)


def with_trigger(spec: FaultSpec, trigger: int) -> FaultSpec:
    """Copy of ``spec`` with a different trigger instant."""
    return dataclasses.replace(spec, trigger_instructions=trigger)

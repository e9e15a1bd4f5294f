"""Target systems for the attack campaign: one victim, four defenses."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..baselines.isr import EcbIsrMachine, XorIsrMachine
from ..crypto.keys import DeviceKeys, derive_key
from ..isa.assembler import assemble
from ..isa.program import AsmProgram, Executable
from ..sim.sofia import SofiaMachine
from ..sim.vanilla import VanillaMachine
from ..transform.image import SofiaImage
from ..transform.transformer import transform


@dataclass
class Target:
    """One defended (or undefended) instantiation of the victim."""

    name: str
    make: Callable[[], object]        # fresh machine per attack run
    #: symbol -> runtime entry address (per-defense address space)
    symbols: Dict[str, int]
    code_base: int
    code_words: int                   # text-section length in words
    #: granularity (in words) at which code relocation is meaningful
    relocation_unit: int
    executable: Optional[Executable] = None
    image: Optional[SofiaImage] = None

    def unit_base(self, address: int) -> int:
        """Start address of the encryption unit containing ``address``."""
        unit_bytes = 4 * self.relocation_unit
        return address - (address - self.code_base) % unit_bytes

    def control_target(self, address: int) -> int:
        """The address an attacker diverts control to for a gadget.

        On SOFIA the only plausible entries are block entry points, so the
        attacker aims at the containing block's base; elsewhere the gadget
        instruction's own address is the target.
        """
        if self.image is not None:
            return self.unit_base(address)
        return address


def build_targets(program: AsmProgram, seed: int = 1337,
                  nonce: int = 0x50F1) -> List[Target]:
    """Instantiate the victim under every defense."""
    exe = assemble(program)
    keys = DeviceKeys.from_seed(seed)
    image = transform(program, keys, nonce=nonce)
    xor_key = derive_key(seed, "xor-isr") & 0xFFFFFFFF
    ecb_key = derive_key(seed, "ecb-isr")

    targets = [
        Target(name="vanilla",
               make=lambda: VanillaMachine(exe),
               symbols=dict(exe.symbols), code_base=exe.code_base,
               code_words=len(exe.code_words), relocation_unit=1,
               executable=exe),
        Target(name="xor-isr",
               make=lambda: XorIsrMachine(exe, xor_key),
               symbols=dict(exe.symbols), code_base=exe.code_base,
               code_words=len(exe.code_words), relocation_unit=1,
               executable=exe),
        Target(name="ecb-isr",
               make=lambda: EcbIsrMachine(exe, ecb_key),
               symbols=dict(exe.symbols), code_base=exe.code_base,
               code_words=len(exe.code_words), relocation_unit=2,
               executable=exe),
        Target(name="sofia",
               make=lambda: SofiaMachine(image, keys),
               symbols=dict(image.symbols), code_base=image.code_base,
               code_words=len(image.words),
               relocation_unit=image.block_words,
               image=image),
    ]
    return targets

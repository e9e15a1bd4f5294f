"""Instruction Set Randomization baselines (paper §I related work).

Two comparison defenses from the literature, built on the vanilla core:

* :class:`XorIsrMachine` — ASIST-style [29]: every instruction word is
  XORed with one 32-bit key.  Injected plaintext code decrypts to garbage,
  but the scheme is position-independent: *relocating* encrypted words, and
  any code-reuse attack, go undetected.
* :class:`EcbIsrMachine` — AES-ECB-style [3] (RECTANGLE-ECB here): adjacent
  word *pairs* are encrypted as one 64-bit ECB block.  Stronger keying than
  XOR, but ECB is still position-independent at pair granularity, so
  pair-aligned relocation of encrypted code executes correctly — the
  weakness the paper calls out for [3].

Both "detect" attacks only probabilistically, when garbage fails to decode
(an illegal-instruction trap) or crashes; there is no integrity guarantee
and no control-flow binding.
"""

from __future__ import annotations

from typing import List, Optional

from ..crypto.rectangle import Rectangle80
from ..errors import DecodingError, SimulationError
from ..isa.encoding import decode
from ..isa.instructions import Instruction
from ..isa.program import Executable
from ..sim.timing import DEFAULT_TIMING, TimingParams
from ..sim.vanilla import VanillaMachine


def xor_encrypt_words(words: List[int], key: int) -> List[int]:
    """Encrypt a text section with the XOR-ISR scheme."""
    key &= 0xFFFFFFFF
    return [(w ^ key) & 0xFFFFFFFF for w in words]


def ecb_encrypt_words(words: List[int], cipher: Rectangle80) -> List[int]:
    """Encrypt a text section pairwise with RECTANGLE in ECB mode.

    Odd-length sections are nop-padded to a pair boundary first — both
    halves of a ciphertext block must be stored or the final instruction
    cannot be reconstructed.
    """
    padded = list(words)
    if len(padded) % 2:
        padded.append(0)  # canonical nop
    out: List[int] = []
    for i in range(0, len(padded), 2):
        block = cipher.encrypt((padded[i] << 32) | padded[i + 1])
        out.append((block >> 32) & 0xFFFFFFFF)
        out.append(block & 0xFFFFFFFF)
    return out


class XorIsrMachine(VanillaMachine):
    """Vanilla core with an XOR decryption stage in instruction fetch."""

    def __init__(self, executable: Executable, key: int,
                 timing: TimingParams = DEFAULT_TIMING,
                 engine: Optional[str] = None) -> None:
        encrypted = Executable(
            code_words=xor_encrypt_words(executable.code_words, key),
            data=executable.data, symbols=executable.symbols,
            entry=executable.entry, code_base=executable.code_base,
            data_base=executable.data_base)
        super().__init__(encrypted, timing, engine=engine)
        self.key = key & 0xFFFFFFFF

    def _fetch_decode(self, pc: int) -> Instruction:
        cached = self._decoded.get(pc)
        if cached is not None:
            return cached
        word = self.memory.fetch_word(pc) ^ self.key
        instr = decode(word, pc)
        self._decoded[pc] = instr
        return instr


class EcbIsrMachine(VanillaMachine):
    """Vanilla core with pairwise RECTANGLE-ECB instruction decryption."""

    def __init__(self, executable: Executable, key: int,
                 timing: TimingParams = DEFAULT_TIMING,
                 engine: Optional[str] = None) -> None:
        self.cipher = Rectangle80(key)
        encrypted = Executable(
            code_words=ecb_encrypt_words(executable.code_words, self.cipher),
            data=executable.data, symbols=executable.symbols,
            entry=executable.entry, code_base=executable.code_base,
            data_base=executable.data_base)
        super().__init__(encrypted, timing, engine=engine)

    def _on_code_write(self, address: int) -> None:
        # ECB pairs couple adjacent words: a write to either invalidates
        # both decoded entries, so just drop everything on any code write.
        self._flush_decoded()

    def _fetch_decode(self, pc: int) -> Instruction:
        cached = self._decoded.get(pc)
        if cached is not None:
            return cached
        index = (pc - self.memory.code_base) >> 2
        pair_base = pc - 4 * (index & 1)
        high = self.memory.fetch_word(pair_base)
        try:
            low = self.memory.fetch_word(pair_base + 4)
        except SimulationError:
            low = 0
        block = self.cipher.decrypt((high << 32) | low)
        word = (block >> 32) & 0xFFFFFFFF if pc == pair_base else block & 0xFFFFFFFF
        instr = decode(word, pc)
        self._decoded[pc] = instr
        return instr

"""Offline image verifier — the toolchain's post-transformation QA gate.

Before a binary is flashed, the software provider (who holds the device
keys) can independently re-derive every check the hardware will perform:

* every sealed inbound edge of every block decrypts to a payload whose
  CBC-MAC matches the interleaved MAC words,
* no store sits in a slot that would reach the MA stage before
  verification, and control leaves blocks only from the last slot,
* every direct CTI in the image targets a *valid entry* of a block of the
  matching kind (offset 0 of an execution block; offset 4/8 of a
  multiplexor block),
* the image's reset entry is one of those valid entries.

The verifier consumes the block metadata the transformer records on the
image (kinds, sealed prevPCs) — it is a build-time tool, not something a
device needs.  An empty finding list means the image is sound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..crypto.ctr import EdgeKeystream
from ..crypto.keys import DeviceKeys
from ..errors import DecodingError
from ..isa.encoding import decode
from .encrypt import unseal_block
from .image import BlockRecord, SofiaImage
from .profile import store_forbidden_slots


@dataclass(frozen=True)
class Finding:
    """One verification failure."""

    kind: str      # "mac" | "store-slot" | "cti-slot" | "target" | "entry"
    block_base: int
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind}] block 0x{self.block_base:08x}: {self.detail}"


class ImageVerifier:
    """Re-derives the hardware checks for a whole image."""

    def __init__(self, image: SofiaImage, keys: DeviceKeys) -> None:
        if not image.blocks:
            raise ValueError(
                "the verifier needs the transformer's block metadata")
        self.image = image
        self.profile = image.profile
        self.keys = keys.for_profile(self.profile)
        self.keystream = EdgeKeystream(self.keys.encryption_cipher,
                                       image.nonce)
        self._records: Dict[int, BlockRecord] = {
            record.base: record for record in image.blocks}

    # -- decryption helpers ----------------------------------------------

    def _decrypt_block(self, record: BlockRecord, entry_slot: int,
                       prev_pc: int) -> Optional[List[int]]:
        """Decrypt along one sealed edge; returns all words by index."""
        bw = self.image.block_words
        base = record.base
        if record.kind == "exec":
            indices = list(range(bw))
        elif entry_slot == 0:
            indices = [0] + list(range(2, bw))
        else:
            indices = list(range(1, bw))
        words: Dict[int, int] = {}
        for position, j in enumerate(indices):
            address = base + 4 * j
            if position == 0:
                prev = prev_pc
            elif record.kind == "mux" and j == 2:
                prev = base + 4
            else:
                prev = base + 4 * (j - 1)
            words[j] = self.keystream.decrypt_word(
                self.image.word_at(address), prev, address)
        return [words.get(j, 0) for j in range(bw)]

    def _verify_block_edges(self, record: BlockRecord) -> List[Finding]:
        findings = []
        for slot, prev_pc in enumerate(record.entry_prev_pcs):
            words = self._decrypt_block(record, slot, prev_pc)
            # fetch order: the entry's M1 copy first, then everything
            # after the M1 pair (for exec blocks that is simply all words)
            if record.kind == "exec":
                fetched = words
            else:
                fetched = [words[slot]] + words[2:]
            _payload, stored, computed = unseal_block(
                record.kind, fetched, self.keys, self.profile.mac_words)
            if stored != computed:
                findings.append(Finding(
                    "mac", record.base,
                    f"entry slot {slot} (prevPC=0x{prev_pc:08x}) fails "
                    f"MAC verification"))
        return findings

    # -- structural checks ----------------------------------------------------

    def _entry_kind(self, address: int) -> Optional[str]:
        """'exec'/'mux' if ``address`` is a valid entry of some block."""
        offset = (address - self.image.code_base) % self.image.block_bytes
        base = address - offset
        record = self._records.get(base)
        if record is None:
            return None
        if offset == 0 and record.kind == "exec":
            return "exec"
        if offset in (4, 8) and record.kind == "mux":
            return "mux"
        return None

    def _verify_block_payload(self, record: BlockRecord) -> List[Finding]:
        findings = []
        capacity = record.capacity
        forbidden = store_forbidden_slots(capacity)
        mac_count = self.image.block_words - capacity
        for slot, word in enumerate(record.plain_payload):
            address = record.base + 4 * (mac_count + slot)
            try:
                instr = decode(word, address)
            except DecodingError as exc:
                findings.append(Finding(
                    "decode", record.base,
                    f"slot {slot}: {exc}"))
                continue
            if instr.is_store and slot in forbidden:
                findings.append(Finding(
                    "store-slot", record.base,
                    f"store {instr.mnemonic} in forbidden slot {slot}"))
            if instr.is_cti and slot != capacity - 1:
                findings.append(Finding(
                    "cti-slot", record.base,
                    f"{instr.mnemonic} in mid-block slot {slot}"))
            if (instr.mnemonic in ("jmp", "call", "beq", "bne", "blt",
                                   "bge", "bltu", "bgeu")
                    and instr.imm is not None):
                if self._entry_kind(instr.imm) is None:
                    findings.append(Finding(
                        "target", record.base,
                        f"{instr.mnemonic} targets 0x{instr.imm:08x}, "
                        f"which is not a valid block entry"))
        return findings

    def verify(self) -> List[Finding]:
        """Run all checks; an empty list means the image is sound."""
        findings: List[Finding] = []
        if self._entry_kind(self.image.entry) is None:
            findings.append(Finding(
                "entry", self.image.entry,
                "the reset entry is not a valid block entry"))
        for record in self.image.blocks:
            findings.extend(self._verify_block_edges(record))
            findings.extend(self._verify_block_payload(record))
        return findings


def verify_image(image: SofiaImage, keys: DeviceKeys) -> List[Finding]:
    """Convenience wrapper around :class:`ImageVerifier`."""
    return ImageVerifier(image, keys).verify()

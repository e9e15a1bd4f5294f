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
from typing import Dict, List, Optional, Tuple

from ..crypto.ctr import EdgeKeystream
from ..crypto.keys import DeviceKeys
from ..errors import DecodingError, ImageError
from ..isa.encoding import decode
from .blocks import ENTRY_OFFSETS, classify_offset
from .encrypt import traversal_ciphertext, unseal_block
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

    def decrypt_traversal(self, record: BlockRecord, slot: int,
                          prev_pc: int) -> List[Tuple[int, int]]:
        """``(address, plaintext word)`` of each word one traversal of
        ``record`` through entry ``slot`` fetches, in fetch order."""
        entry_pc = record.base + ENTRY_OFFSETS[record.kind][slot]
        traversal = traversal_ciphertext(self.image, prev_pc, entry_pc)
        if traversal is None:
            raise ImageError(f"block 0x{record.base:08x} reaches outside "
                             f"the image")
        _kind, words, edges = traversal
        stream = self.keystream.keystream_many(edges)
        return [(address, word ^ key) for word, (_prev, address), key
                in zip(words, edges, stream)]

    def _verify_block_edges(self, record: BlockRecord) -> List[Finding]:
        findings = []
        for slot, prev_pc in enumerate(record.entry_prev_pcs):
            fetched = [word for _address, word
                       in self.decrypt_traversal(record, slot, prev_pc)]
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
        record = self._records.get(address - offset)
        entry = classify_offset(offset)
        if record is None or entry is None or entry[0] != record.kind:
            return None
        return record.kind

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

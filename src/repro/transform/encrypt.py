"""MAC-then-Encrypt sealing of a laid-out block program (paper §II-C).

For every block the plaintext payload instructions are encoded at their
final addresses, a CBC-MAC is computed over them (key k2 for execution
blocks, k3 for multiplexor blocks), the MAC words are interleaved
(``M1 .. Mw p…`` / ``M1 M1 M2 .. Mw p…`` — the duplicated M1 provides the
two multiplexor entry points, paper Fig. 7; ``w`` is the profile's seal
width, 2 at the paper's design point), and every word is encrypted with
the control-flow-dependent CTR keystream:

* entry words use the prevPC of their assigned inbound edge,
* the multiplexor word at index 2 always uses ``prevPC = addr(M1e2)``
  (both paths agree on this — paper Fig. 8's footnote),
* every other word chains on its predecessor word's address.

:func:`seal_block` / :func:`unseal_block` are the **single home** of the
seal packing: every producer (the transformer, the renonce tool, the
attack-synthesis forgery hook) and every consumer (the offline verifier,
the simulated hardware front-end) goes through this pair, so a profile's
MAC width and cipher cannot drift between the paths.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..crypto.cbcmac import mac_stream
from ..crypto.ctr import EdgeKeystream
from ..crypto.keys import DeviceKeys
from ..errors import EncodingError, TransformError
from ..isa.encoding import encode
from ..isa.program import AsmProgram, DATA_BASE, resolve_data_references
from .blocks import Block, BlockKind
from .image import BlockRecord, SofiaImage
from .layout import Layout
from .profile import DEFAULT_PROFILE, ProtectionProfile


def encode_block_payload(block: Block) -> List[int]:
    """Encode a block's payload instructions at their final addresses."""
    words = []
    for slot, instr in enumerate(block.payload):
        pc = block.payload_address(slot)
        try:
            words.append(encode(instr, pc))
        except EncodingError as exc:
            raise TransformError(
                f"cannot encode {instr.mnemonic!r} at 0x{pc:08x}: {exc}"
            ) from exc
    return words


def block_mac_cipher(keys: DeviceKeys, kind: str):
    """The per-block-type CBC-MAC cipher (k2 exec / k3 mux)."""
    return keys.exec_mac_cipher if kind == "exec" else keys.mux_mac_cipher


def seal_block(kind: str, payload_words: Sequence[int], keys: DeviceKeys,
               mac_words: int = 2) -> List[int]:
    """Seal a payload: MAC words + payload in block layout order.

    The single home of the interleave scheme: ``M1 .. Mw p…`` for
    execution blocks, ``M1 M1 M2 .. Mw p…`` for multiplexors (the
    duplicated M1 provides the two entry points, paper Fig. 7).
    ``mac_words`` is the profile seal width ``w``.
    """
    payload = list(payload_words)
    macs = mac_stream(block_mac_cipher(keys, kind), payload, mac_words)
    if kind == "exec":
        return list(macs) + payload
    return [macs[0], macs[0]] + list(macs[1:]) + payload


def unseal_block(kind: str, fetched_words: Sequence[int], keys: DeviceKeys,
                 mac_words: int = 2, mac_cache: Optional[Dict] = None
                 ) -> Tuple[List[int], Tuple[int, ...], Tuple[int, ...]]:
    """Split one traversal's decrypted words and recompute their seal.

    ``fetched_words`` are in *fetch order* — what the hardware sees on
    one block traversal: for execution blocks all ``block_words`` words;
    for multiplexors the entry's M1 copy followed by ``M2..Mw`` and the
    payload (the skipped M1 copy never appears).  In both cases the
    first ``mac_words`` entries are the stored seal.

    ``mac_cache`` (the campaigns' shared seal memo, see
    :mod:`repro.sim.batch`) memoizes the recomputation by
    ``(kind, payload)``; the seal is a pure function of those plus the
    fixed keys and width, so the memo is observationally invisible.

    Returns ``(payload_words, stored_macs, computed_macs)``; the block
    verifies iff ``stored_macs == computed_macs``.
    """
    fetched = list(fetched_words)
    stored = tuple(fetched[:mac_words])
    payload = fetched[mac_words:]
    if mac_cache is None:
        computed = mac_stream(block_mac_cipher(keys, kind), payload,
                              mac_words)
    else:
        key = (kind, tuple(payload))
        computed = mac_cache.get(key)
        if computed is None:
            computed = mac_stream(block_mac_cipher(keys, kind), payload,
                                  mac_words)
            mac_cache[key] = computed
    return payload, stored, computed


def interleave_mac(kind: str, payload_words: List[int], keys: DeviceKeys,
                   mac_words: int = 2) -> List[int]:
    """Back-compat alias of :func:`seal_block` (the historical name)."""
    return seal_block(kind, payload_words, keys, mac_words)


def chain_prev_pcs(kind: str, base: int, total: int,
                   entry_prevs: List[int]) -> List[int]:
    """prevPC used to encrypt each word of a block, in layout order.

    The single home of the chaining scheme: entry words use their sealed
    inbound edge, the mux word at index 2 always chains on ``addr(M1e2)``
    (Fig. 8's footnote; at the paper's design point that word is M2),
    every other word on its predecessor word.  The scheme is independent
    of the seal width — only the entry words and index 2 are special.
    """
    prevs: List[int] = []
    if kind == "exec":
        prevs.append(entry_prevs[0])
        for j in range(1, total):
            prevs.append(base + 4 * (j - 1))
        return prevs
    if len(entry_prevs) == 1:
        # a mux block always has two sealed entries; a single entry can
        # only happen through a construction bug.
        raise TransformError("multiplexor block with a single entry")
    prevs.append(entry_prevs[0])          # M1e1: first predecessor
    prevs.append(entry_prevs[1])          # M1e2: second predecessor
    prevs.append(base + 4)                # index 2 chains on addr(M1e2)
    for j in range(3, total):
        prevs.append(base + 4 * (j - 1))
    return prevs


def block_plain_words(block: Block, keys: DeviceKeys) -> List[int]:
    """MAC words + payload words, in block layout order (plaintext)."""
    kind = block.kind.value
    mac_value_words = (block.mac_words if kind == "exec"
                       else block.mac_words - 1)
    return seal_block(kind, encode_block_payload(block), keys,
                      mac_value_words)


def word_prev_pcs(block: Block, entry_prevs: List[int]) -> List[int]:
    """prevPC used to encrypt each word of the block, in layout order."""
    return chain_prev_pcs(block.kind.value, block.base,
                          block.mac_words + block.capacity,
                          entry_prevs)


def reseal_block(image: SofiaImage, record: BlockRecord,
                 payload, keys: DeviceKeys,
                 nonce: int = None) -> List[int]:
    """Seal replacement ``payload`` instructions into ``record``'s slots.

    This is the provider-side (or successful-forger-side) mutation hook:
    the new payload is encoded at the block's final addresses, MACed with
    the real block-kind key under the image profile's seal width and
    encrypted along the block's *sealed* entry edges — so the result
    passes MAC verification when entered the way the original block was.
    :mod:`repro.attacksynth` uses it to model a MAC forgery that
    succeeded, which is what makes the store-slot and single-exit
    hardware checks testable in isolation.
    """
    if not record.entry_prev_pcs:
        raise TransformError(
            f"block 0x{record.base:08x} has no sealed entry to forge")
    profile = image.profile
    keys = keys.for_profile(profile)
    mac_count = profile.mac_count(record.kind)
    if len(payload) != record.capacity:
        raise TransformError(
            f"block 0x{record.base:08x} holds {record.capacity} payload "
            f"instructions, got {len(payload)}")
    base = record.base
    words: List[int] = []
    for slot, instr in enumerate(payload):
        pc = base + 4 * (mac_count + slot)
        words.append(encode(instr, pc))
    plain = seal_block(record.kind, words, keys, profile.mac_words)
    prevs = chain_prev_pcs(record.kind, base, len(plain),
                           list(record.entry_prev_pcs))
    keystream = EdgeKeystream(
        keys.encryption_cipher,
        image.nonce if nonce is None else nonce)
    return [keystream.encrypt_word(word, prev, base + 4 * j)
            for j, (word, prev) in enumerate(zip(plain, prevs))]


def seal(layout: Layout, program: AsmProgram, keys: DeviceKeys,
         nonce: int, data_base: int = DATA_BASE,
         profile: Optional[ProtectionProfile] = None) -> SofiaImage:
    """Produce the encrypted :class:`SofiaImage` for a layout."""
    if profile is None:
        profile = ProtectionProfile.from_config(layout.config)
    keys = keys.for_profile(profile)
    keystream = EdgeKeystream(keys.encryption_cipher, nonce)
    words: List[int] = []
    records: List[BlockRecord] = []
    for block in layout.blocks:
        plain = block_plain_words(block, keys)
        entry_prevs = layout.entry_prev_pcs(block)
        prevs = word_prev_pcs(block, entry_prevs)
        for j, (word, prev) in enumerate(zip(plain, prevs)):
            address = block.base + 4 * j
            words.append(keystream.encrypt_word(word, prev, address))
        records.append(BlockRecord(
            base=block.base, kind=block.kind.value, capacity=block.capacity,
            labels=tuple(block.labels), leader=block.leader,
            is_forwarder=block.is_forwarder,
            plain_payload=tuple(plain[block.mac_words:]),
            entry_prev_pcs=tuple(entry_prevs)))
    symbols: Dict[str, int] = dict(resolve_data_references(program, data_base))
    for label, index in program.labels.items():
        located = layout.block_of_instr.get(index)
        if located is None:
            continue
        block, slot = located
        if block.leader == index:
            symbols[label] = block.base       # the block's entry
        else:
            symbols[label] = block.payload_address(slot)
    return SofiaImage(words=words, code_base=layout.config.code_base,
                      nonce=nonce, entry=layout.entry_address,
                      data=bytes(program.data), data_base=data_base,
                      block_words=layout.config.block_words,
                      blocks=records, stats=layout.stats, symbols=symbols,
                      profile=profile)

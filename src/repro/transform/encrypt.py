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

:func:`chain_prev_pcs` is the single home of that chaining and
:func:`traversal_edges` of a traversal's fetched words and their edges:
the sealer, the renonce tool, the forgery hook, the simulated front-end,
the offline verifier and the listing all derive their keystream edges
from this pair.

:func:`seal_block` / :func:`unseal_block` are the **single home** of the
seal packing: every producer (the transformer, the renonce tool, the
attack-synthesis forgery hook) and every consumer (the offline verifier,
the simulated hardware front-end) goes through this pair, so a profile's
MAC width and cipher cannot drift between the paths.

:func:`seal` does a whole image's cipher work in batches — every payload
MACed by :func:`~repro.crypto.bitslice.batch_mac_stream` in groups of
equal kind and length, every word's keystream from one
:meth:`~repro.crypto.ctr.EdgeKeystream.keystream_many` pass over the
deduplicated edges — and keeps both results on the image as its
:class:`~repro.transform.image.FrontEndMemo`, which every machine that
runs the image adopts when its keys, nonce and seal width match.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..crypto.bitslice import batch_mac_stream
from ..crypto.cbcmac import mac_stream
from ..crypto.ctr import EdgeKeystream
from ..crypto.keys import DeviceKeys
from ..errors import EncodingError, TransformError
from ..isa.encoding import encode
from ..isa.program import (AsmProgram, CODE_BASE, DATA_BASE,
                           resolve_data_references)
from .blocks import ENTRY_OFFSETS, Block, classify_offset, fetch_indices
from .image import BlockRecord, FrontEndMemo, SofiaImage
from .layout import Layout


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


def _interleave(kind: str, macs: Sequence[int],
                payload: Sequence[int]) -> List[int]:
    if kind == "exec":
        return list(macs) + list(payload)
    return [macs[0], macs[0]] + list(macs[1:]) + list(payload)


def seal_block(kind: str, payload_words: Sequence[int], keys: DeviceKeys,
               mac_words: int = 2) -> List[int]:
    """Seal a payload: MAC words + payload in block layout order.

    The single home of the interleave scheme: ``M1 .. Mw p…`` for
    execution blocks, ``M1 M1 M2 .. Mw p…`` for multiplexors (the
    duplicated M1 provides the two entry points, paper Fig. 7).
    ``mac_words`` is the profile seal width ``w``.
    """
    payload = list(payload_words)
    return _interleave(kind, block_macs(kind, payload, keys, mac_words),
                       payload)


def block_macs(kind: str, payload_words: Sequence[int], keys: DeviceKeys,
               mac_words: int = 2, mac_cache: Optional[Dict] = None
               ) -> Tuple[int, ...]:
    """The ``mac_words`` seal words of one payload.

    ``mac_cache`` (an image's seal memo, see
    :class:`~repro.transform.image.FrontEndMemo`) memoizes the result by
    ``(kind, payload)``; the seal is a pure function of those plus the
    keys and width the memo is tagged with, so the memo is
    observationally invisible.
    """
    if mac_cache is None:
        return mac_stream(block_mac_cipher(keys, kind), payload_words,
                          mac_words)
    key = (kind, tuple(payload_words))
    macs = mac_cache.get(key)
    if macs is None:
        macs = mac_cache[key] = mac_stream(block_mac_cipher(keys, kind),
                                           payload_words, mac_words)
    return macs


def unseal_block(kind: str, fetched_words: Sequence[int], keys: DeviceKeys,
                 mac_words: int = 2, mac_cache: Optional[Dict] = None
                 ) -> Tuple[List[int], Tuple[int, ...], Tuple[int, ...]]:
    """Split one traversal's decrypted words and recompute their seal.

    ``fetched_words`` are in *fetch order* — what the hardware sees on
    one block traversal: for execution blocks all ``block_words`` words;
    for multiplexors the entry's M1 copy followed by ``M2..Mw`` and the
    payload (the skipped M1 copy never appears).  In both cases the
    first ``mac_words`` entries are the stored seal.  ``mac_cache`` is
    passed to :func:`block_macs`.

    Returns ``(payload_words, stored_macs, computed_macs)``; the block
    verifies iff ``stored_macs == computed_macs``.
    """
    fetched = list(fetched_words)
    stored = tuple(fetched[:mac_words])
    payload = fetched[mac_words:]
    return payload, stored, block_macs(kind, payload, keys, mac_words,
                                       mac_cache)


def chain_prev_pcs(kind: str, base: int, total: int,
                   entry_prevs: List[int]) -> List[int]:
    """prevPC used to encrypt each word of a block, in layout order.

    The single home of the chaining scheme: entry words use their sealed
    inbound edge, the mux word at index 2 always chains on ``addr(M1e2)``
    (Fig. 8's footnote; at the paper's design point that word is M2),
    every other word on its predecessor word.  The scheme is independent
    of the seal width — only the entry words and index 2 are special.
    """
    if kind == "exec":
        return [entry_prevs[0]] + list(range(base, base + 4 * (total - 1), 4))
    if len(entry_prevs) == 1:
        # a mux block always has two sealed entries; a single entry can
        # only happen through a construction bug.
        raise TransformError("multiplexor block with a single entry")
    # M1e1 and M1e2 on their predecessors, index 2 on addr(M1e2)
    return [entry_prevs[0], entry_prevs[1], base + 4] + list(
        range(base + 8, base + 4 * (total - 1), 4))


def chain_edges(kind: str, base: int, total: int,
                entry_prevs: List[int]) -> List[Tuple[int, int]]:
    """The keystream edge ``(prevPC, address)`` of each word of a block,
    in layout order (:func:`chain_prev_pcs` picks the prevPCs)."""
    return [(prev, base + 4 * j) for j, prev
            in enumerate(chain_prev_pcs(kind, base, total, entry_prevs))]


def traversal_edges(kind: str, base: int, block_words: int, slot: int,
                    prev_pc: int) -> List[Tuple[int, int]]:
    """The keystream edge ``(prevPC, address)`` of each word one traversal
    fetches, in fetch order.

    The traversal enters through entry ``slot`` on the edge from
    ``prev_pc``; :func:`~repro.transform.blocks.fetch_indices` picks the
    words and :func:`chain_prev_pcs` their chaining, so every consumer
    (the simulated front-end, the offline verifier, the listing) decrypts
    exactly what the sealer encrypted.
    """
    # only the entered slot's word is fetched, so the other entry's
    # prevPC never reaches the result
    prevs = chain_prev_pcs(kind, base, block_words,
                           [prev_pc] * len(ENTRY_OFFSETS[kind]))
    return [(prevs[j], base + 4 * j)
            for j in fetch_indices(kind, slot, block_words)]


def traversal_ciphertext(image: SofiaImage, prev_pc: int, entry_pc: int
                         ) -> Optional[Tuple[str, List[int],
                                             List[Tuple[int, int]]]]:
    """``(kind, ciphertext words, keystream edges)`` of the traversal
    entering ``entry_pc`` from ``prev_pc``, in fetch order, read from the
    image's words; ``None`` when the front-end decrypts nothing there
    (an invalid entry offset, or a fetch outside the image)."""
    offset = (entry_pc - image.code_base) % image.block_bytes
    entry = classify_offset(offset)
    if entry is None:
        return None
    kind, slot = entry
    edges = traversal_edges(kind, entry_pc - offset, image.block_words,
                            slot, prev_pc)
    indices = [(address - image.code_base) // 4 for _prev, address in edges]
    if not all(0 <= index < len(image.words) for index in indices):
        return None
    return kind, [image.words[index] for index in indices], edges


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
                 payload, keys: DeviceKeys) -> List[int]:
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
    nonce = image.nonce
    memo = image.front_end_memo(keys, profile.mac_words)
    macs = block_macs(record.kind, words, keys, profile.mac_words,
                      memo.seal_for(keys, profile.mac_words))
    plain = _interleave(record.kind, macs, words)
    keystream = EdgeKeystream(keys.encryption_cipher, nonce,
                              cache=memo.keystream_for(keys, nonce))
    stream = keystream.keystream_many(chain_edges(
        record.kind, base, len(plain), list(record.entry_prev_pcs)))
    return [word ^ key for word, key in zip(plain, stream)]


def seal(layout: Layout, program: AsmProgram, keys: DeviceKeys,
         nonce: int) -> SofiaImage:
    """Produce the encrypted :class:`SofiaImage` for a layout.

    The layout's profile picks the cipher and seal width and becomes the
    image's embedded profile.  The image carries the keystream words and
    seals computed here as its
    :class:`~repro.transform.image.FrontEndMemo`; its words are the same
    as a per-word scalar seal's.
    """
    profile = layout.profile
    keys = keys.for_profile(profile)
    mac_words = profile.mac_words
    memo = FrontEndMemo.empty(keys, nonce, mac_words)
    payloads = [(block.kind.value, tuple(encode_block_payload(block)))
                for block in layout.blocks]
    _batch_macs(keys, mac_words, payloads, memo.seal)
    plain: List[int] = []
    edges: List[Tuple[int, int]] = []
    records: List[BlockRecord] = []
    for block, sealed in zip(layout.blocks, payloads):
        kind, payload = sealed
        block_plain = _interleave(kind, memo.seal[sealed], payload)
        entry_prevs = layout.entry_prev_pcs(block)
        plain.extend(block_plain)
        edges.extend(chain_edges(kind, block.base, len(block_plain),
                                 entry_prevs))
        records.append(BlockRecord(
            base=block.base, kind=kind, capacity=block.capacity,
            labels=tuple(block.labels), leader=block.leader,
            is_forwarder=block.is_forwarder,
            plain_payload=payload,
            entry_prev_pcs=tuple(entry_prevs)))
    keystream = EdgeKeystream(keys.encryption_cipher, nonce,
                              cache=memo.keystream)
    words = [word ^ key for word, key
             in zip(plain, keystream.keystream_many(edges))]
    symbols: Dict[str, int] = dict(resolve_data_references(program))
    for label, index in program.labels.items():
        located = layout.block_of_instr.get(index)
        if located is None:
            continue
        block, slot = located
        if block.leader == index:
            symbols[label] = block.base       # the block's entry
        else:
            symbols[label] = block.payload_address(slot)
    return SofiaImage(words=words, code_base=CODE_BASE,
                      nonce=nonce, entry=layout.entry_address,
                      data=bytes(program.data), data_base=DATA_BASE,
                      profile=profile, blocks=records, stats=layout.stats,
                      symbols=symbols, front_end=memo)


def _batch_macs(keys: DeviceKeys, mac_words: int,
                payloads: Sequence[Tuple[str, Tuple[int, ...]]],
                mac_cache: Dict) -> None:
    """Fill ``mac_cache`` with the seal of every ``(kind, payload)``.

    Distinct payloads not in ``mac_cache`` yet are grouped by kind and
    length so every group's CBC chains line up lane for lane in
    :func:`~repro.crypto.bitslice.batch_mac_stream`.
    """
    groups: Dict[Tuple[str, int], Dict[Tuple[int, ...], None]] = {}
    for kind, payload in payloads:
        if (kind, payload) not in mac_cache:
            groups.setdefault((kind, len(payload)), {})[payload] = None
    for (kind, _length), group in groups.items():
        ordered = list(group)
        macs = batch_mac_stream(block_mac_cipher(keys, kind), ordered,
                                mac_words)
        for payload, value in zip(ordered, macs):
            mac_cache[(kind, payload)] = value

"""Mechanical attack enumeration from an image's CFG and layout.

Given *any* protected image (a hand workload or a fuzz-generated program),
:func:`enumerate_instances` derives concrete attack instances straight
from the block metadata the transformer records:

* **control-flow bends** — every CTI in the image can be diverted to
  every block entry (``base`` of execution blocks, ``base+4``/``base+8``
  of multiplexors).  A diverted edge that is *sealed* is a legitimate CFG
  edge (``edge-ok``); every other diversion must garble the
  control-flow-dependent decryption and fail MAC verification
  (``detected``).
* **wrong-entry bends** — transfers to entry offsets that mismatch the
  block kind (offset 4/8 of an execution block, offset 0/12 of a
  multiplexor) and to addresses past the image: invalid-entry,
  wrong-MAC-key and fetch-fault detection paths.
* **block replay / splice** — substitute the authenticated ciphertext of
  one block over another block of the same image.  Detected when the
  victim block is on the clean execution's path; provably benign
  (bit-identical run) when it is not.
* **stale-nonce replay** — re-seal the image under a fresh nonce (the
  ``renonce`` software-update path), then splice one *old-epoch* block
  back in: the cross-version replay the paper's unique-ω requirement
  exists to stop.
* **code injection** — the plaintext actuator-unlock gadget
  (:func:`repro.attacks.actions.gadget_words`) and the same gadget
  encrypted under *attacker-chosen* keys, written over blocks on the
  execution path.
* **store-slot / CTI-slot forgeries** — payloads re-sealed with the
  *real* device keys (modelling a successful MAC forgery) whose store or
  control transfer sits in a forbidden slot: the hardware's structural
  checks must catch what MAC verification cannot.

Every instance carries a plaintext-analogue materialization (addresses
mapped into the vanilla executable's smaller address space) so the same
logical attack also runs against the undefended and ISR-baseline cores.
Enumeration is pure: the same image, executable and RNG state always
yield the same instance list, which is what keeps campaigns
deterministic at any ``--jobs`` value.  It is also lazy: instances are
generated in order, each family's RNG draws just before its instances,
so ``limit`` keeps a full enumeration's prefix and never builds the rest
(a dropped forgery pays no :func:`~repro.transform.encrypt.reseal_block`,
a dropped encrypted injection derives no attacker keys).
"""

from __future__ import annotations

import random
from itertools import islice
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..attacks.actions import gadget_instructions, gadget_words
from ..crypto.keys import DeviceKeys
from ..errors import DecodingError
from ..isa.encoding import decode, encode
from ..isa.instructions import Instruction, make_nop
from ..isa.program import Executable
from ..isa.registers import SP
from ..transform.blocks import ENTRY_OFFSETS
from ..transform.encrypt import reseal_block
from ..transform.image import BlockRecord, SofiaImage
from ..transform.profile import store_forbidden_slots
from .model import (AttackInstance, EXPECT_BENIGN, EXPECT_DETECTED,
                    EXPECT_EDGE_OK)

#: per-family instance quotas for one program (the default plan)
DEFAULT_PLAN: Dict[str, int] = {
    "bend": 5,
    "bend-benign": 1,
    "bend-entry-offset": 3,
    "replay": 2,
    "replay-benign": 1,
    "stale-nonce": 1,
    "stale-nonce-benign": 1,
    "inject-plain": 2,
    "inject-enc": 1,
    "forge-store-slot": 1,
    "forge-cti-slot": 1,
}

#: fixed offset mixed into the device-key seed to derive the attacker's
#: (guessed, necessarily wrong) keys for encrypted injection
ATTACKER_SEED_SALT = 0xA77ACC


def sealed_edges(image: SofiaImage) -> Set[Tuple[int, int]]:
    """All (prevPC, entry) pairs the image's keystream seals."""
    return {(prev, record.base + ENTRY_OFFSETS[record.kind][slot])
            for record in image.blocks
            for slot, prev in enumerate(record.entry_prev_pcs)}


def block_entries(image: SofiaImage) -> List[Tuple[BlockRecord, int]]:
    """Every valid entry address of the image, with its block record."""
    return [(record, record.base + offset) for record in image.blocks
            for offset in ENTRY_OFFSETS[record.kind]]


def cti_sources(image: SofiaImage) -> List[int]:
    """Addresses of every control-transfer instruction in the image.

    The layout pins CTIs to the final payload slot, i.e. the last word of
    their block — these are exactly the points an attacker can divert.
    """
    sources: List[int] = []
    for record in image.blocks:
        if not record.plain_payload:
            continue
        address = record.base + image.block_bytes - 4
        try:
            instr = decode(record.plain_payload[-1], address)
        except DecodingError:
            continue
        if instr.is_cti:
            sources.append(address)
    return sources


def _map_plain_word(address: int, image: SofiaImage,
                    exe: Executable) -> int:
    """Map an image address onto the vanilla executable's text section."""
    n_words = len(exe.code_words)
    index = ((address - image.code_base) // 4) % max(1, n_words)
    return exe.code_base + 4 * index


def _map_plain_span(address: int, count: int, image: SofiaImage,
                    exe: Executable) -> Optional[int]:
    """Like :func:`_map_plain_word` but clamped so ``count`` words fit."""
    n_words = len(exe.code_words)
    if count > n_words:
        return None
    index = ((address - image.code_base) // 4) % n_words
    index = min(index, n_words - count)
    return exe.code_base + 4 * index


def _plain_pokes(base_address: Optional[int],
                 words: Sequence[int]) -> Tuple[Tuple[int, int], ...]:
    if base_address is None:
        return ()
    return tuple((base_address + 4 * k, word & 0xFFFFFFFF)
                 for k, word in enumerate(words))


def _image_pokes(base: int,
                 words: Sequence[int]) -> Tuple[Tuple[int, int], ...]:
    return tuple((base + 4 * k, word & 0xFFFFFFFF)
                 for k, word in enumerate(words))


def _sample(rng: random.Random, population: List, count: int) -> List:
    if count >= len(population):
        return list(population)
    return rng.sample(population, count)


def _forged_payload(kind: str, capacity: int,
                    entry: int) -> Optional[List[Instruction]]:
    """Payload for the slot-abuse forgeries, or None if inexpressible."""
    if capacity < 2:
        return None
    if kind == "store":
        first = Instruction("sw", rs2=0, rs1=SP, imm=-4)
    else:
        first = Instruction("jmp", imm=entry)
    return ([first] + [make_nop()] * (capacity - 2)
            + [Instruction("halt")])


def enumerate_instances(image: SofiaImage, exe: Executable,
                        keys: DeviceKeys, traversed: Set[int],
                        rng: random.Random, key_seed: int,
                        plan: Optional[Dict[str, int]] = None,
                        limit: Optional[int] = None
                        ) -> List[AttackInstance]:
    """Enumerate concrete attacks against one metadata-carrying image.

    ``traversed`` is the set of block bases the *clean* run fetches —
    it decides whether a block substitution is expected ``detected``
    (the tampered block will be fetched and must fail verification) or
    ``benign`` (it provably cannot influence the run).

    ``limit`` keeps the first ``limit`` instances and never builds the
    rest (no reseal, no attacker keys): the RNG draws happen in instance
    order, so the kept ones equal a full enumeration's prefix.
    """
    return list(islice(_instances(image, exe, keys, traversed, rng,
                                  key_seed, plan), limit))


def _instances(image: SofiaImage, exe: Executable, keys: DeviceKeys,
               traversed: Set[int], rng: random.Random, key_seed: int,
               plan: Optional[Dict[str, int]]
               ) -> Iterator[AttackInstance]:
    """:func:`enumerate_instances`, one instance at a time."""
    quotas = dict(DEFAULT_PLAN)
    quotas.update(plan or {})
    # every structural expectation (store slots, seal width, renonce
    # surface) derives from the image's embedded design point
    profile = image.profile
    sealed = sealed_edges(image)
    entries = block_entries(image)
    sources = cti_sources(image)
    bases = [record.base for record in image.blocks]
    records = {record.base: record for record in image.blocks}
    traversed_bases = [b for b in bases if b in traversed]
    untraversed_bases = [b for b in bases if b not in traversed]

    # -- control-flow bends ------------------------------------------------
    bend_candidates = [(src, target) for src in sources
                       for _record, target in entries]
    detected_bends = [c for c in bend_candidates if c not in sealed]
    sealed_bends = [c for c in bend_candidates if c in sealed]
    for src, target in _sample(rng, detected_bends, quotas["bend"]):
        yield AttackInstance(
            family="bend", name=f"bend-{src:06x}-{target:06x}",
            description=f"divert CTI at 0x{src:08x} to entry 0x{target:08x}",
            expected=EXPECT_DETECTED, prev_pc=src, entry_pc=target,
            plain_entry=_map_plain_word(target, image, exe))
    for src, target in _sample(rng, sealed_bends, quotas["bend-benign"]):
        yield AttackInstance(
            family="bend", name=f"bend-sealed-{src:06x}-{target:06x}",
            description=(f"take the sealed edge 0x{src:08x} -> "
                         f"0x{target:08x} (legitimate CFG edge)"),
            expected=EXPECT_EDGE_OK, prev_pc=src, entry_pc=target,
            plain_entry=_map_plain_word(target, image, exe))

    # -- wrong entry offsets ----------------------------------------------
    if sources:
        offset_candidates: List[Tuple[int, str]] = []
        for record in image.blocks:
            for offset in (0, 4, 8, 12):
                if offset in ENTRY_OFFSETS[record.kind]:
                    continue
                target = record.base + offset
                offset_candidates.append(
                    (target, f"offset {offset} of a {record.kind} block"))
        end_of_image = image.code_base + 4 * len(image.words)
        offset_candidates.append((end_of_image, "first address past the image"))
        for target, why in _sample(rng, offset_candidates,
                                   quotas["bend-entry-offset"]):
            src = rng.choice(sources)
            yield AttackInstance(
                family="bend-entry-offset",
                name=f"bendoff-{src:06x}-{target:06x}",
                description=f"divert CTI at 0x{src:08x} to {why}",
                expected=EXPECT_DETECTED, prev_pc=src, entry_pc=target,
                plain_entry=_map_plain_word(target, image, exe))

    # -- block replay / splice --------------------------------------------
    def replay_instance(victim: int, expected: str,
                        suffix: str) -> Optional[AttackInstance]:
        donors = [b for b in bases if b != victim]
        if not donors:
            return None
        donor = rng.choice(donors)
        words = image.block_words_at(donor)
        plain_span = _map_plain_span(victim, image.block_words, image, exe)
        donor_span = _map_plain_span(donor, image.block_words, image, exe)
        plain_writes = ()
        if plain_span is not None and donor_span is not None:
            donor_index = (donor_span - exe.code_base) // 4
            plain_writes = _plain_pokes(
                plain_span,
                exe.code_words[donor_index:donor_index + image.block_words])
        return AttackInstance(
            family="replay", name=f"replay{suffix}-{donor:06x}-{victim:06x}",
            description=(f"splice authenticated block 0x{donor:08x} over "
                         f"block 0x{victim:08x}"),
            expected=expected, writes=_image_pokes(victim, words),
            plain_writes=plain_writes,
            plain_applicable=bool(plain_writes))

    for victim in _sample(rng, traversed_bases, quotas["replay"]):
        instance = replay_instance(victim, EXPECT_DETECTED, "")
        if instance is not None:
            yield instance
    for victim in _sample(rng, untraversed_bases, quotas["replay-benign"]):
        instance = replay_instance(victim, EXPECT_BENIGN, "-dead")
        if instance is not None:
            yield instance

    # -- stale-nonce replay across renonce epochs -------------------------
    # the cross-epoch surface only exists when the deployment rotates its
    # nonce; a fixed-nonce profile has no old-epoch ciphertext to replay
    entry_base = image.block_base_of(image.entry)
    if profile.supports_renonce:
        new_nonce = profile.next_nonce(image.nonce)

        def stale_instance(victim: int, expected: str,
                           suffix: str) -> AttackInstance:
            return AttackInstance(
                family="stale-nonce", name=f"stale{suffix}-{victim:06x}",
                description=(f"after renonce to ω=0x{new_nonce:04x}, replay "
                             f"epoch-ω=0x{image.nonce:04x} ciphertext of "
                             f"block 0x{victim:08x}"),
                expected=expected, renonce=new_nonce,
                writes=_image_pokes(victim, image.block_words_at(victim)),
                plain_applicable=False)

        if quotas["stale-nonce"] > 0:
            yield stale_instance(entry_base, EXPECT_DETECTED, "")
        for victim in _sample(rng, untraversed_bases,
                              quotas["stale-nonce-benign"]):
            yield stale_instance(victim, EXPECT_BENIGN, "-dead")

    # -- plaintext gadget injection ---------------------------------------
    gadget = gadget_words()
    inject_targets = [entry_base] if quotas["inject-plain"] > 0 else []
    other_traversed = [b for b in traversed_bases if b != entry_base]
    inject_targets += _sample(rng, other_traversed,
                              max(0, quotas["inject-plain"] - 1))
    for position, base in enumerate(inject_targets):
        if position == 0:
            # at the program entry the gadget runs first on an undefended
            # core: the one instance whose plaintext-analogue verdict is
            # pinned ("viable" = actuator unlocked / output diverged)
            entry_index = (exe.entry - exe.code_base) // 4
            fits = entry_index + len(gadget) <= len(exe.code_words)
            plain_base = exe.entry if fits else None
            expected_plain = "viable" if fits else None
        else:
            plain_base = _map_plain_span(base, len(gadget), image, exe)
            expected_plain = None
        yield AttackInstance(
            family="inject-plain", name=f"inject-plain-{base:06x}",
            description=(f"write the plaintext unlock gadget over "
                         f"block 0x{base:08x}"),
            expected=EXPECT_DETECTED, writes=_image_pokes(base, gadget),
            plain_writes=_plain_pokes(plain_base, gadget),
            plain_applicable=plain_base is not None,
            expected_plain=expected_plain)

    # -- attacker-encrypted injection -------------------------------------
    entry_record = records[entry_base]
    if quotas["inject-enc"] > 0:
        attacker_keys = DeviceKeys.from_seed(key_seed ^ ATTACKER_SEED_SALT)
        payload = list(gadget_instructions())[:entry_record.capacity - 1]
        while len(payload) < entry_record.capacity - 1:
            payload.append(make_nop())
        payload.append(Instruction("halt"))
        forged = reseal_block(image, entry_record, payload, attacker_keys)
        plain_base = _map_plain_span(entry_base, len(forged), image, exe)
        yield AttackInstance(
            family="inject-enc", name=f"inject-enc-{entry_base:06x}",
            description=("seal the gadget over the entry block under "
                         "attacker-guessed keys"),
            expected=EXPECT_DETECTED,
            writes=_image_pokes(entry_base, forged),
            plain_writes=_plain_pokes(plain_base, forged),
            plain_applicable=plain_base is not None)

    # -- slot-abuse forgeries (successful-forgery model, real keys) -------
    for kind, family, quota_key in (
            ("store", "forge-store-slot", "forge-store-slot"),
            ("cti", "forge-cti-slot", "forge-cti-slot")):
        if quotas[quota_key] <= 0:
            continue
        if kind == "store" and not store_forbidden_slots(
                entry_record.capacity):
            continue  # 6-word geometry: no forbidden slots to abuse (E6)
        payload = _forged_payload(kind, entry_record.capacity, image.entry)
        if payload is None:
            continue
        forged = reseal_block(image, entry_record, payload, keys)
        plain_words = [encode(instr) for instr in payload]
        plain_base = _map_plain_span(entry_base, len(plain_words),
                                     image, exe)
        what = ("a store in a forbidden slot" if kind == "store"
                else "a control transfer in a mid-block slot")
        yield AttackInstance(
            family=family, name=f"{family}-{entry_base:06x}",
            description=(f"forge a validly-MACed entry block carrying "
                         f"{what}"),
            expected=EXPECT_DETECTED,
            writes=_image_pokes(entry_base, forged),
            plain_writes=_plain_pokes(plain_base, plain_words),
            plain_applicable=plain_base is not None)


def enumerate_geometric(image: SofiaImage,
                        rng: random.Random) -> List[AttackInstance]:
    """Metadata-less enumeration over a raw ``.sofia`` image.

    Deserialized images carry no block records, so expected verdicts are
    unknown (``None``) and only the geometric families apply: bends
    between block-shaped addresses, same-image replay, and plaintext
    injection at the entry block.  Outcomes are purely observational.
    """
    block_bytes = image.block_bytes
    bases = [image.code_base + block_bytes * i
             for i in range(image.num_blocks)]
    if not bases:
        return []
    sources = [base + block_bytes - 4 for base in bases]
    targets = [base + offset for base in bases for offset in (0, 4, 8, 12)]
    instances: List[AttackInstance] = []
    bend_quota = DEFAULT_PLAN["bend"] + DEFAULT_PLAN["bend-entry-offset"]
    candidates = [(s, t) for s in sources for t in targets]
    for src, target in _sample(rng, candidates, bend_quota):
        instances.append(AttackInstance(
            family="bend", name=f"bend-{src:06x}-{target:06x}",
            description=f"divert 0x{src:08x} to 0x{target:08x}",
            expected=None, prev_pc=src, entry_pc=target,
            plain_applicable=False))
    for _ in range(DEFAULT_PLAN["replay"]):
        if len(bases) < 2:
            break
        donor, victim = rng.sample(bases, 2)
        instances.append(AttackInstance(
            family="replay", name=f"replay-{donor:06x}-{victim:06x}",
            description=(f"splice block 0x{donor:08x} over "
                         f"0x{victim:08x}"),
            expected=None,
            writes=_image_pokes(victim, image.block_words_at(donor)),
            plain_applicable=False))
    entry_base = image.block_base_of(image.entry)
    instances.append(AttackInstance(
        family="inject-plain",
        name=f"inject-plain-{entry_base:06x}",
        description="write the plaintext unlock gadget over the entry block",
        expected=None, writes=_image_pokes(entry_base, gadget_words()),
        plain_applicable=False))
    return instances

"""Protection profiles: the SOFIA design point as a first-class value.

The paper fixes one design point — RECTANGLE-80, a 64-bit CBC-MAC packed
as 2 (execution) / 3 (multiplexor) seal words, 8-word blocks, and §IV
argues security and overhead *at that point*.  A
:class:`ProtectionProfile` lifts every axis of that choice into one
frozen, hashable value, and it is the only value that says how a
program is protected — the transformer, the image header, the
simulator, the verifier and the attack enumerator all read it:

* **cipher** — any entry of :mod:`repro.crypto.registry` (RECTANGLE-80,
  the paper's choice, or PRESENT-80 for the cipher-agility study);
* **mac_words** — seal width in 32-bit words: 1 (truncated 32-bit), 2
  (the paper's 64-bit MAC) or 3 (widened 96-bit seal);
* **renonce** — the nonce-rotation policy of the deployment:
  ``"sequential"`` providers rotate ω on every update (the paper's
  unique-ω requirement, enabling the cross-epoch replay surface), while
  ``"fixed"`` deployments never re-encrypt (no renonce tooling, no
  stale-nonce attack surface — but also no update path);
* **schedule_stores** — the E12 store-scheduling toolchain optimization
  (paper §V future work): instead of padding a forbidden store slot with
  a nop, hoist the next *independent* instruction in front of the store;
* **block_words** — block geometry (the E6 ablation axis).

What the paper fixes in hardware stays a module constant: the code
base, the reset and unreachable-block prevPCs, and the LEON3's Memory
Access stage, from which :func:`store_forbidden_slots` derives the
store-slot restriction.  Integrity verification completes when the last
word of a block is in IF, at which point the instruction in payload slot
``s`` is in pipeline stage ``capacity - s``; a store must not yet have
reached the MA stage (stage 5 of IF ID OF EXE MA XCP WB), so slots
``s < capacity - 4`` cannot hold stores (paper Figs. 5/6).  With
4-instruction blocks (``block_words=6``) the restriction disappears,
exactly as Fig. 5 shows.

The default profile is *exactly* the paper's design point, and images
built with it are bit-identical to pre-profile builds: the profile
serializes into the image header's previously-reserved u16, packed so
the default encodes to 0 (see :meth:`to_code`).

Profiles are the unit of the E17 design-space sweep (:mod:`repro.dse`):
each grid point rebuilds the stack — keys bind to the profile's cipher
via :meth:`repro.crypto.keys.DeviceKeys.for_profile`, the transformer
lays out and seals per the profile's geometry and MAC width, and the
simulator re-derives every check from the image's embedded profile.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Iterable, Tuple

from ..crypto.registry import (DEFAULT_CIPHER, cipher_code,
                               cipher_from_code, cipher_names, get_cipher)

#: renonce policies, in serialization-code order ("sequential" is the
#: paper-faithful default: ω must be unique across program versions)
RENONCE_POLICIES: Tuple[str, ...] = ("sequential", "fixed")

#: supported seal widths in 32-bit words, and their header codes; code 0
#: is the paper's 64-bit MAC so a zeroed header decodes to the default
_MAC_CODE = {2: 0, 1: 1, 3: 2}
_MAC_FROM_CODE = {code: words for words, code in _MAC_CODE.items()}

#: upper bound on the block geometry: the image header stores the block
#: size in one byte of words, and a block must fit an I-cache line
#: multiple — anything past this is an absurd design point, not a sweep
MAX_BLOCK_WORDS = 256

#: Stage number of Memory Access in the 7-stage LEON3 pipeline (1-based).
MA_STAGE = 5

#: prevPC presented by the hardware on the reset edge into the entry block.
RESET_PREV_PC = 0x0

#: Sentinel prevPC used to seal the entry of unreachable blocks; it is the
#: highest word address, which no real CTI in a small program occupies.
UNREACHABLE_PREV_PC = ((1 << 24) - 1) << 2


def store_forbidden_slots(capacity: int) -> Tuple[int, ...]:
    """Payload slots of a ``capacity``-slot block that may not hold stores.

    When the block's last word is fetched (verification point), payload
    slot ``s`` sits in stage ``capacity - s``; forbid slots that would
    already have reached the MA stage.
    """
    return tuple(range(max(0, capacity - (MA_STAGE - 1))))


@dataclass(frozen=True)
class ProtectionProfile:
    """One point of the SOFIA design space."""

    cipher: str = DEFAULT_CIPHER
    mac_words: int = 2
    renonce: str = "sequential"
    schedule_stores: bool = False
    block_words: int = 8

    def __post_init__(self) -> None:
        get_cipher(self.cipher)  # validates the name
        if self.mac_words not in _MAC_CODE:
            raise ValueError(
                f"mac_words must be one of {sorted(_MAC_CODE)} "
                f"(32/64/96-bit seals), got {self.mac_words}")
        if self.renonce not in RENONCE_POLICIES:
            raise ValueError(
                f"renonce policy must be one of {RENONCE_POLICIES}, "
                f"got {self.renonce!r}")
        if not 0 < self.block_words <= MAX_BLOCK_WORDS:
            raise ValueError(
                f"block_words must be in 1..{MAX_BLOCK_WORDS}, "
                f"got {self.block_words}")
        if self.block_words < self.mac_words + 3:
            # a multiplexor block needs mac_words + 1 seal words plus a
            # jmp slot, and an execution block needs room for a CTI; the
            # paper's 2-word seal gives the familiar minimum of 5.
            raise ValueError(
                f"block_words must be at least {self.mac_words + 3} "
                f"for a {32 * self.mac_words}-bit seal")

    # -- derived views ---------------------------------------------------

    @property
    def cipher_factory(self) -> type:
        """The registered cipher class (for DeviceKeys.for_profile)."""
        return get_cipher(self.cipher)

    @property
    def mac_bits(self) -> int:
        """Seal width in bits — the §IV-A forgery-bound parameter."""
        return 32 * self.mac_words

    @property
    def exec_mac_words(self) -> int:
        return self.mac_words

    @property
    def mux_mac_words(self) -> int:
        return self.mac_words + 1

    def mac_count(self, kind: str) -> int:
        """Seal words at the head of a ``kind`` ("exec"/"mux") block."""
        return self.exec_mac_words if kind == "exec" else self.mux_mac_words

    @property
    def block_bytes(self) -> int:
        return 4 * self.block_words

    @property
    def exec_capacity(self) -> int:
        """Instructions per execution block."""
        return self.block_words - self.exec_mac_words

    @property
    def mux_capacity(self) -> int:
        """Instructions per multiplexor block."""
        return self.block_words - self.mux_mac_words

    @property
    def supports_renonce(self) -> bool:
        """Does this deployment ever re-encrypt under a fresh nonce?"""
        return self.renonce != "fixed"

    def next_nonce(self, nonce: int) -> int:
        """The successor nonce under this profile's renonce policy."""
        if not self.supports_renonce:
            raise ValueError(
                "a fixed-nonce deployment never rotates its nonce")
        return nonce % 0xFFFF + 1

    def with_block_words(self, block_words: int) -> "ProtectionProfile":
        """This profile at a different block geometry."""
        if block_words == self.block_words:
            return self
        return replace(self, block_words=block_words)

    @property
    def label(self) -> str:
        """Compact human identifier, e.g. ``rectangle-80/mac64/sequential``."""
        parts = [self.cipher, f"mac{self.mac_bits}", self.renonce]
        if self.block_words != 8:
            parts.append(f"bw{self.block_words}")
        if self.schedule_stores:
            parts.append("sched")
        return "/".join(parts)

    # -- header (de)serialization ----------------------------------------
    #
    # The image header's u16 formerly-reserved field:
    #
    #   bits 0-2  cipher code (crypto.registry.CIPHER_CODES)
    #   bits 3-4  seal-width code (_MAC_CODE)
    #   bit  5    renonce policy (0 sequential, 1 fixed)
    #   bit  6    schedule_stores
    #
    # The default profile packs to 0, which is what every pre-profile
    # image carries — old images deserialize to the paper's design point.
    # block_words travels in its own header field.

    def to_code(self) -> int:
        """Pack this profile (minus block_words) into the header u16."""
        return (cipher_code(self.cipher)
                | (_MAC_CODE[self.mac_words] << 3)
                | (RENONCE_POLICIES.index(self.renonce) << 5)
                | (int(self.schedule_stores) << 6))

    @classmethod
    def from_code(cls, code: int, block_words: int) -> "ProtectionProfile":
        """Unpack a header u16 (inverse of :meth:`to_code`)."""
        if code >> 7:
            raise ValueError(f"unknown profile code 0x{code:04x}")
        mac_code = (code >> 3) & 0x3
        if mac_code not in _MAC_FROM_CODE:
            raise ValueError(f"unknown seal-width code {mac_code}")
        return cls(cipher=cipher_from_code(code & 0x7),
                   mac_words=_MAC_FROM_CODE[mac_code],
                   renonce=RENONCE_POLICIES[(code >> 5) & 0x1],
                   schedule_stores=bool((code >> 6) & 0x1),
                   block_words=block_words)


#: the paper's design point
DEFAULT_PROFILE = ProtectionProfile()


_MAC_RE = re.compile(r"^mac(\d+)$")
_BW_RE = re.compile(r"^bw(\d+)$")


def parse_mac_bits(bits: int) -> int:
    """Seal width in bits -> ``mac_words``, with parse-time messages."""
    if bits <= 0 or bits % 32:
        raise ValueError(
            f"mac width must be a positive multiple of 32 bits, "
            f"got {bits}")
    return bits // 32


def check_block_words(value: int) -> int:
    """``value`` as a block geometry, or a parse-time error."""
    if not 0 < value <= MAX_BLOCK_WORDS:
        raise ValueError(
            f"block_words must be in 1..{MAX_BLOCK_WORDS}, got {value}")
    return value


def parse_profile_spec(spec: str) -> ProtectionProfile:
    """Parse one design-point spec (or a :attr:`~ProtectionProfile.label`).

    A spec is colon-separated tokens in any order: a registered cipher
    name, ``mac<bits>``, a renonce policy, optionally ``bw<N>`` and
    ``sched``.  ``rectangle-80/mac64/sequential`` (a label) parses too,
    so a label printed by any report can be fed straight back to
    ``--profile``/``--profiles``.  Numeric fields are checked here, with
    messages that name the offending token (``mac0``, ``bw0``).
    """
    fields = {}
    for token in re.split(r"[:/]", spec.strip()):
        token = token.strip()
        if not token:
            continue
        mac = _MAC_RE.match(token)
        bw = _BW_RE.match(token)
        if token in cipher_names():
            fields["cipher"] = token
        elif mac:
            fields["mac_words"] = parse_mac_bits(int(mac.group(1)))
        elif token in RENONCE_POLICIES:
            fields["renonce"] = token
        elif bw:
            fields["block_words"] = check_block_words(int(bw.group(1)))
        elif token == "sched":
            fields["schedule_stores"] = True
        else:
            raise ValueError(
                f"unknown profile token {token!r} in {spec!r} (expected a "
                f"cipher {cipher_names()}, mac<bits>, a renonce policy "
                f"{list(RENONCE_POLICIES)}, bw<N> or sched)")
    return ProtectionProfile(**fields)


def profile_grid(ciphers: Iterable[str] = ("rectangle-80", "present-80"),
                 mac_bits: Iterable[int] = (32, 64, 96),
                 renonce: Iterable[str] = RENONCE_POLICIES,
                 block_words: Iterable[int] = (8,)
                 ) -> "list[ProtectionProfile]":
    """The cartesian profile grid, in deterministic axis order.

    The default axes are the E17 sweep: 2 ciphers x {32, 64, 96}-bit
    seals x both renonce policies = 12 design points, the paper's point
    among them.
    """
    grid = []
    for cipher in ciphers:
        for bits in mac_bits:
            if bits <= 0 or bits % 32:
                raise ValueError(f"mac_bits must be a positive multiple "
                                 f"of 32, got {bits}")
            for policy in renonce:
                for bw in block_words:
                    grid.append(ProtectionProfile(
                        cipher=cipher, mac_words=bits // 32,
                        renonce=policy, block_words=bw))
    return grid

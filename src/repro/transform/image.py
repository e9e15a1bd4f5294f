"""SOFIA binary image format.

A :class:`SofiaImage` is what gets flashed onto the device: encrypted code
words, the per-binary nonce ω (stored at a fixed location in the binary,
paper §II-A), the entry address the hardware fetches after reset, and the
(unprotected) data section.  ``blocks`` carries per-block metadata used by
the simulator's diagnostics and by the test-suite — a real device only sees
``words``/``nonce``/``entry``/``data``.

The byte serialization is a simple tagged container::

    magic 'SOFI' | version u16 | nonce u16 | entry u32 | code_base u32 |
    block_words u16 | profile u16 | data_base u32 | n_code_words u32 |
    n_data_bytes u32 | code words (u32 BE each) | data bytes

The ``profile`` field (formerly reserved, and still 0 for the paper's
design point) packs the image's :class:`ProtectionProfile` — cipher,
seal width, renonce policy, store scheduling — via
``ProtectionProfile.to_code``; ``block_words`` carries the remaining
profile axis.  Old images (reserved = 0) therefore deserialize to the
default profile unchanged.  In memory the geometry lives only on the
profile, so an image cannot disagree with its own profile; a header
whose ``code_base`` is not block aligned is rejected with
:class:`~repro.errors.ImageError`.

A sealed image also carries a :class:`FrontEndMemo` — the keystream words
and seal values :func:`~repro.transform.encrypt.seal` computed — so every
machine that runs the image starts from that work instead of redoing it.
The memo is a pure cache: it is excluded from equality, ``repr`` and
:meth:`SofiaImage.to_bytes`, and a deserialized image simply has none.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ImageError
from .layout import LayoutStats
from .profile import ProtectionProfile

MAGIC = b"SOFI"
VERSION = 1
_HEADER = struct.Struct(">4sHHIIHHIII")


@dataclass(frozen=True)
class BlockRecord:
    """Debug/evaluation metadata for one block of the image."""

    base: int
    kind: str                      # "exec" | "mux"
    capacity: int
    labels: tuple = ()
    leader: Optional[int] = None
    is_forwarder: bool = False
    #: plaintext payload words (never present on a production image)
    plain_payload: tuple = ()
    entry_prev_pcs: tuple = ()


def keystream_tag(keys, nonce: int) -> tuple:
    """The values a keystream word depends on besides its edge."""
    return (keys.cipher_factory, keys.k1, nonce)


def seal_tag(keys, mac_words: int) -> tuple:
    """The values a block's seal depends on besides its kind and payload."""
    return (keys.cipher_factory, keys.k2, keys.k3, mac_words)


@dataclass
class FrontEndMemo:
    """Pure front-end work of one image, shared by its machines.

    Three planes, each valid only under the values of its tag:

    * ``keystream`` — (prevPC, PC) -> 32-bit keystream word, under
      ``keystream_tag`` = (cipher type, k1, nonce);
    * ``seal`` — (block kind, plaintext payload) -> computed seal words,
      under ``seal_tag`` = (cipher type, k2, k3, seal width);
    * ``blocks`` — one plane per (profile, timing, layout) of the
      machines whose keys match both tags above: (prevPC, entry PC, the
      ciphertext words at the block's fetch addresses) -> the machine's
      verified block (see :meth:`blocks_for`).

    Tags compare by value, so they survive pickling and match equal keys
    provisioned separately.  A consumer whose own tag differs (a
    wrong-key device, a renonce'd image, strict hardware with another
    seal width) gets a fresh private plane instead — never the values
    computed under someone else's keys.  Planes only ever grow with
    values every matching consumer would compute itself, so sharing
    them is observationally invisible.  Verified blocks carry compiled
    code, so the block planes are dropped on pickle and on :meth:`copy`.
    """

    keystream_tag: tuple
    keystream: Dict[Tuple[int, int], int]
    seal_tag: tuple
    seal: Dict[Tuple[str, Tuple[int, ...]], Tuple[int, ...]]
    blocks: Dict[tuple, dict] = field(default_factory=dict, compare=False,
                                      repr=False)

    @classmethod
    def empty(cls, keys, nonce: int, mac_words: int) -> "FrontEndMemo":
        return cls(keystream_tag(keys, nonce), {},
                   seal_tag(keys, mac_words), {})

    def copy(self) -> "FrontEndMemo":
        """An independent memo holding the same keystream and seal
        entries and no verified blocks."""
        return FrontEndMemo(self.keystream_tag, dict(self.keystream),
                            self.seal_tag, dict(self.seal))

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["blocks"] = {}
        return state

    def keystream_for(self, keys, nonce: int) -> Dict[Tuple[int, int], int]:
        """The keystream plane if it holds ``keys``/``nonce`` words."""
        if self.keystream_tag == keystream_tag(keys, nonce):
            return self.keystream
        return {}

    def seal_for(self, keys, mac_words: int
                 ) -> Dict[Tuple[str, Tuple[int, ...]], Tuple[int, ...]]:
        """The seal plane if it holds ``keys``/``mac_words`` seals."""
        if self.seal_tag == seal_tag(keys, mac_words):
            return self.seal
        return {}

    def blocks_for(self, keys, nonce: int, profile, timing,
                   layout: tuple) -> dict:
        """The verified-block plane of machines with ``keys``, ``nonce``,
        ``profile`` and ``timing`` on an image of ``layout`` (the
        geometry a block and its compiled code depend on), if both other
        planes hold ``keys``' values; a fresh private plane otherwise."""
        if (self.keystream_tag == keystream_tag(keys, nonce)
                and self.seal_tag == seal_tag(keys, profile.mac_words)):
            return self.blocks.setdefault((profile, timing, layout), {})
        return {}


@dataclass
class SofiaImage:
    """A transformed, MACed and encrypted SOFIA binary."""

    words: List[int]
    code_base: int
    nonce: int
    entry: int
    data: bytes
    data_base: int
    #: the design point this image was sealed under; every consumer
    #: (simulator, verifier, renonce tool, attack enumerator) re-derives
    #: its checks from this, never from module constants
    profile: ProtectionProfile
    blocks: List[BlockRecord] = field(default_factory=list)
    stats: Optional[LayoutStats] = None
    symbols: Dict[str, int] = field(default_factory=dict)
    #: cipher work already done for this image (see FrontEndMemo); shared
    #: by every copy ``with_words`` makes, never serialized or compared
    front_end: Optional[FrontEndMemo] = field(default=None, compare=False,
                                              repr=False)

    def __post_init__(self) -> None:
        if self.code_base % self.profile.block_bytes:
            raise ImageError(
                f"code_base 0x{self.code_base:08x} is not aligned to "
                f"{self.profile.block_bytes}-byte blocks")

    def front_end_memo(self, keys, mac_words: int) -> FrontEndMemo:
        """This image's memo, attaching an empty one tagged for ``keys``
        and ``mac_words`` first if it has none."""
        if self.front_end is None:
            self.front_end = FrontEndMemo.empty(keys, self.nonce, mac_words)
        return self.front_end

    @property
    def code_size_bytes(self) -> int:
        """Text-section size — the paper's code-size overhead metric."""
        return 4 * len(self.words)

    @property
    def block_words(self) -> int:
        return self.profile.block_words

    @property
    def block_bytes(self) -> int:
        return self.profile.block_bytes

    @property
    def num_blocks(self) -> int:
        return len(self.words) // self.block_words

    def word_at(self, address: int) -> int:
        index = (address - self.code_base) // 4
        if not 0 <= index < len(self.words):
            raise ImageError(f"address 0x{address:08x} outside the image")
        return self.words[index]

    def block_base_of(self, address: int) -> int:
        """Base address of the block containing ``address``."""
        offset = (address - self.code_base) % self.block_bytes
        return address - offset

    # -- mutation hooks (the attack-synthesis surface) --------------------

    def with_words(self, words: Sequence[int]) -> "SofiaImage":
        """A copy of this image with its code section replaced.

        The mutation surface of :mod:`repro.attacksynth`: an attacker
        controls program memory word-for-word but nothing else (nonce,
        entry and layout metadata stay, exactly like reflashing a device).
        """
        if len(words) != len(self.words):
            raise ImageError(
                f"mutated code must keep {len(self.words)} words, "
                f"got {len(words)}")
        return replace(self, words=list(words))

    def block_words_at(self, base: int) -> List[int]:
        """The ciphertext words of the block based at ``base``."""
        if (base - self.code_base) % self.block_bytes:
            raise ImageError(f"0x{base:08x} is not a block base")
        index = (base - self.code_base) // 4
        if not 0 <= index < len(self.words):
            raise ImageError(f"block 0x{base:08x} outside the image")
        return self.words[index:index + self.block_words]

    def replace_block_words(self, base: int,
                            words: Sequence[int]) -> "SofiaImage":
        """A copy with the block at ``base`` overwritten by ``words``."""
        self.block_words_at(base)  # validates the base
        if len(words) != self.block_words:
            raise ImageError(
                f"a block is {self.block_words} words, got {len(words)}")
        index = (base - self.code_base) // 4
        mutated = list(self.words)
        mutated[index:index + self.block_words] = [w & 0xFFFFFFFF
                                                   for w in words]
        return self.with_words(mutated)

    def to_bytes(self) -> bytes:
        """Serialize (without debug metadata)."""
        header = _HEADER.pack(MAGIC, VERSION, self.nonce, self.entry,
                              self.code_base, self.block_words,
                              self.profile.to_code(),
                              self.data_base, len(self.words),
                              len(self.data))
        body = b"".join(w.to_bytes(4, "big") for w in self.words)
        return header + body + self.data

    @classmethod
    def from_bytes(cls, blob: bytes) -> "SofiaImage":
        """Deserialize an image produced by :meth:`to_bytes`."""
        if len(blob) < _HEADER.size:
            raise ImageError("image too short for header")
        (magic, version, nonce, entry, code_base, block_words, profile_code,
         data_base, n_words, n_data) = _HEADER.unpack_from(blob)
        if magic != MAGIC:
            raise ImageError(f"bad magic {magic!r}")
        if version != VERSION:
            raise ImageError(f"unsupported image version {version}")
        try:
            profile = ProtectionProfile.from_code(profile_code, block_words)
        except ValueError as exc:
            raise ImageError(f"bad profile field: {exc}") from None
        offset = _HEADER.size
        need = offset + 4 * n_words + n_data
        if len(blob) < need:
            raise ImageError("image truncated")
        words = [int.from_bytes(blob[offset + 4 * i: offset + 4 * i + 4], "big")
                 for i in range(n_words)]
        data = blob[offset + 4 * n_words: need]
        return cls(words=words, code_base=code_base, nonce=nonce,
                   entry=entry, data=data, data_base=data_base,
                   profile=profile)

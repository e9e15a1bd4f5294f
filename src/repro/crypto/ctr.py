"""Control-flow-dependent CTR-mode keystream (paper Alg. 1).

Each 32-bit instruction word at address ``PC``, reached from the word at
address ``prevPC``, is XORed with the low 32 bits of
``E_k1(omega || prevPC || PC)``:

* ``omega``   — 16-bit per-binary nonce (unique per program and version),
* ``prevPC``  — 24-bit *word* address of the previously fetched word,
* ``PC``      — 24-bit *word* address of this word.

The 16+24+24 packing fills RECTANGLE's 64-bit block exactly (DESIGN.md,
"Counter packing") and supports a 64 MiB code space.

Keystream values are memoized per (prevPC, PC) edge: during a valid
execution every traversal of a CFG edge uses the same counter, so loops pay
for the cipher only once per static edge.  The memo can be handed in
(``cache=``): a sealed image carries the words its sealer computed
(:class:`~repro.transform.image.FrontEndMemo`), and
:meth:`EdgeKeystream.keystream_many` fills many edges with one
bit-sliced cipher pass.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from .bitslice import encrypt_batch
from .primitives import MASK32
from .rectangle import Rectangle80

NONCE_BITS = 16
ADDR_BITS = 24
#: Code addresses are byte addresses of 4-byte-aligned words.
MAX_CODE_BYTES = 1 << (ADDR_BITS + 2)


def _bad_nonce(nonce: int) -> ValueError:
    return ValueError(f"nonce {nonce} is outside the {NONCE_BITS}-bit "
                      f"range 0..0x{(1 << NONCE_BITS) - 1:x}")


def pack_counter(nonce: int, prev_pc: int, pc: int) -> int:
    """Pack ``{omega || prevPC || PC}`` into a 64-bit cipher input block.

    ``prev_pc`` and ``pc`` are byte addresses; they must be word aligned and
    fit in the 24-bit word-address space.
    """
    if nonce >> NONCE_BITS:
        raise _bad_nonce(nonce)
    for name, addr in (("prevPC", prev_pc), ("PC", pc)):
        if addr % 4:
            raise ValueError(f"{name}=0x{addr:x} is not word aligned")
        if addr >= MAX_CODE_BYTES:
            raise ValueError(f"{name}=0x{addr:x} exceeds the 24-bit word space")
    return (nonce << (2 * ADDR_BITS)) | ((prev_pc >> 2) << ADDR_BITS) | (pc >> 2)


class EdgeKeystream:
    """Generates (and memoizes) per-edge 32-bit keystream words."""

    def __init__(self, cipher: Rectangle80, nonce: int,
                 cache: Optional[Dict[Tuple[int, int], int]] = None) -> None:
        if nonce >> NONCE_BITS:
            raise _bad_nonce(nonce)
        self.cipher = cipher
        self.nonce = nonce
        #: edge -> keystream word; ``cache`` must hold words of this
        #: cipher and nonce only (it is filled in place)
        self._cache: Dict[Tuple[int, int], int] = (
            {} if cache is None else cache)

    def keystream(self, prev_pc: int, pc: int) -> int:
        """32-bit keystream word for the edge ``prev_pc -> pc``."""
        key = (prev_pc, pc)
        cached = self._cache.get(key)
        if cached is None:
            counter = pack_counter(self.nonce, prev_pc, pc)
            cached = self.cipher.encrypt(counter) & MASK32
            self._cache[key] = cached
        return cached

    def keystream_many(self, edges: Iterable[Tuple[int, int]]) -> List[int]:
        """Keystream words of many edges, in order; the uncached ones are
        encrypted in one :func:`~repro.crypto.bitslice.encrypt_batch`."""
        edges = list(edges)
        cache = self._cache
        todo = [edge for edge in dict.fromkeys(edges) if edge not in cache]
        counters = [pack_counter(self.nonce, prev_pc, pc)
                    for prev_pc, pc in todo]
        for edge, block in zip(todo, encrypt_batch(self.cipher, counters)):
            cache[edge] = block & MASK32
        return [cache[edge] for edge in edges]

    def encrypt_word(self, word: int, prev_pc: int, pc: int) -> int:
        """Encrypt a plaintext 32-bit word for the given control-flow edge."""
        return (word ^ self.keystream(prev_pc, pc)) & MASK32

    def decrypt_word(self, cword: int, prev_pc: int, pc: int) -> int:
        """Decrypt a ciphertext word; identical to encryption (XOR stream)."""
        return (cword ^ self.keystream(prev_pc, pc)) & MASK32

    def cache_size(self) -> int:
        """Number of distinct edges decrypted so far (diagnostics)."""
        return len(self._cache)

"""Low-level bit/word utilities shared by the crypto substrate.

All SOFIA quantities are 16/32/64-bit unsigned integers; these helpers keep
masking explicit and centralized so the cipher and MAC code stays readable.
"""

from __future__ import annotations

from typing import List, Sequence

MASK16 = 0xFFFF
MASK32 = 0xFFFFFFFF
MASK64 = 0xFFFFFFFFFFFFFFFF


def rotl16(value: int, amount: int) -> int:
    """Rotate a 16-bit value left by ``amount`` bits."""
    amount %= 16
    value &= MASK16
    return ((value << amount) | (value >> (16 - amount))) & MASK16


def words_to_block(high: int, low: int) -> int:
    """Pack two 32-bit words into a 64-bit block (``high`` is the MSW)."""
    return ((high & MASK32) << 32) | (low & MASK32)


def block_to_words(block: int) -> "tuple[int, int]":
    """Split a 64-bit block into (high word, low word)."""
    block &= MASK64
    return (block >> 32) & MASK32, block & MASK32


def bytes_to_block(data: bytes) -> int:
    """Interpret 8 big-endian bytes as a 64-bit block."""
    if len(data) != 8:
        raise ValueError(f"expected 8 bytes, got {len(data)}")
    return int.from_bytes(data, "big")


def block_to_bytes(block: int) -> bytes:
    """Serialize a 64-bit block as 8 big-endian bytes."""
    return (block & MASK64).to_bytes(8, "big")


def words_to_blocks(words: Sequence[int]) -> List[int]:
    """Pack a sequence of 32-bit words into 64-bit blocks.

    An odd trailing word is padded with a zero low word.  This is the padding
    rule used for multiplexor-block CBC-MAC messages (see DESIGN.md).
    """
    blocks = []
    for i in range(0, len(words), 2):
        high = words[i]
        low = words[i + 1] if i + 1 < len(words) else 0
        blocks.append(words_to_block(high, low))
    return blocks


def hamming_weight(value: int) -> int:
    """Number of set bits in ``value``."""
    return bin(value & MASK64).count("1")

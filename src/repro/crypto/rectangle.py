"""RECTANGLE-80 lightweight block cipher (Zhang et al., 2014).

SOFIA uses RECTANGLE-80 — a bit-slice SPN cipher with a 64-bit block, an
80-bit key and 25 rounds — as the single cipher shared by its CTR-mode
instruction decryption and its CBC-MAC software-integrity check.

State model
-----------
The 64-bit block is viewed as a 4x16 bit matrix of rows ``r0..r3``; ``r0``
holds the least-significant 16 bits of the block.  One round applies:

* ``AddRoundKey`` — XOR the 64-bit round key (also 4x16) into the state,
* ``SubColumn``   — a 4-bit S-box applied to each of the 16 columns,
* ``ShiftRow``    — rows rotated left by 0, 1, 12 and 13 bits.

After 25 rounds a final ``AddRoundKey`` with the 26th round key is applied.

The 80-bit key is a 5x16 matrix; each round key is rows 0..3.  The schedule
applies the S-box to the four low-order columns of the top four rows, a
generalized Feistel mix of the five rows, and a 5-bit LFSR round constant.

Offline note (documented in DESIGN.md): the official test vectors were not
available in this environment, so the implementation is validated by
structural properties (invertibility, avalanche, key sensitivity) rather
than published vectors.  SOFIA's security argument only requires a 64-bit
PRP, which these properties evidence.

Performance: the round loops run in *column space* — nibble ``i`` of the
working 64-bit value holds column ``i`` of the state — built on
precomputed 16-bit spread / substitute / gather tables, so a full
encryption costs a few hundred Python operations instead of 16x25
per-column loops.  The tables are built lazily on first use.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .primitives import MASK16, MASK64, rotl16

#: RECTANGLE 4-bit S-box and its inverse.
SBOX = (0x6, 0x5, 0xC, 0xA, 0x1, 0xE, 0x7, 0x9,
        0xB, 0x0, 0x3, 0xD, 0x8, 0xF, 0x4, 0x2)
SBOX_INV = tuple(SBOX.index(i) for i in range(16))

#: Left-rotation amounts for ShiftRow, per row.
ROW_ROTATIONS = (0, 1, 12, 13)

ROUNDS = 25
KEY_BITS = 80
BLOCK_BITS = 64


def round_constants() -> List[int]:
    """Generate the 5-bit LFSR round constants RC[0..ROUNDS-1].

    The LFSR starts at 0b00001 and clocks ``rc <- (rc << 1) | (rc4 ^ rc2)``
    over 5-bit state, the feedback polynomial used by the RECTANGLE spec.
    """
    constants = []
    rc = 0x1
    for _ in range(ROUNDS):
        constants.append(rc)
        feedback = ((rc >> 4) ^ (rc >> 2)) & 1
        rc = ((rc << 1) | feedback) & 0x1F
    return constants


_RC = tuple(round_constants())

# --- bit-slice acceleration tables (built lazily) -------------------------
#
# _SPREAD[x]   : 16-bit row -> 64-bit value with bit i of x at position 4*i.
# _SUB16[x]    : 16-bit chunk holding 4 column nibbles -> S-boxed chunk.
# _SUB16_INV[x]: inverse substitution chunk table (first decrypt only).
# _GATHER[k][x]: 16-bit chunk -> the 4 bits at nibble-offset k, packed.

_SPREAD: Optional[List[int]] = None
_SUB16: Optional[List[int]] = None
_SUB16_INV: Optional[List[int]] = None
_GATHER: Optional[List[List[int]]] = None


def _combine(low: List[int], high: List[int], shift: int) -> List[int]:
    """The 65536-entry table of ``high[i >> 8] << shift | low[i & 0xFF]``."""
    return [h | lo for h in [v << shift for v in high] for lo in low]


def _build_tables() -> None:
    """Build the 16-bit tables encryption uses from 8-bit half tables.

    Every table entry is a function of the two bytes of its index that
    lands in disjoint bit ranges, so each 65536-entry table is one
    comprehension over (high byte, low byte) pairs of 256-entry halves —
    about 65k list stores per table instead of a per-bit loop per entry.
    """
    global _SPREAD, _SUB16, _GATHER
    if _SPREAD is not None:
        return
    # byte -> its 8 bits at positions 4*i (the low half of a spread row)
    spread8 = [sum(((b >> i) & 1) << (4 * i) for i in range(8))
               for b in range(256)]
    sub8 = [SBOX[b & 0xF] | (SBOX[b >> 4] << 4) for b in range(256)]
    # byte -> bits k and 4+k (nibble offset k of its two nibbles), packed
    gather8 = [[((b >> k) & 1) | (((b >> (4 + k)) & 1) << 1)
                for b in range(256)] for k in range(4)]
    _GATHER = [_combine(g, g, 2) for g in gather8]
    _SUB16 = _combine(sub8, sub8, 8)
    _SPREAD = _combine(spread8, spread8, 32)


def _sub16_inv() -> List[int]:
    """The inverse substitution table, built on the first decrypt: SOFIA
    runs RECTANGLE forward only (the CTR keystream and the CBC-MAC)."""
    global _SUB16_INV
    if _SUB16_INV is None:
        sub8_inv = [SBOX_INV[b & 0xF] | (SBOX_INV[b >> 4] << 4)
                    for b in range(256)]
        _SUB16_INV = _combine(sub8_inv, sub8_inv, 8)
    return _SUB16_INV


def _rows_to_block(rows: Sequence[int]) -> int:
    return (rows[0] | (rows[1] << 16) | (rows[2] << 32) | (rows[3] << 48)) & MASK64


class Rectangle80:
    """RECTANGLE with an 80-bit key; encrypts/decrypts 64-bit blocks.

    The key schedule is computed once at construction; `encrypt` and
    `decrypt` are then cheap enough for the simulator's per-edge keystream
    memoization to keep whole-program runs fast.
    """

    def __init__(self, key: int) -> None:
        if key < 0 or key >> KEY_BITS:
            raise ValueError(f"key must be an unsigned {KEY_BITS}-bit integer")
        self.key = key
        self._round_keys = self._expand_key(key)
        _build_tables()
        # round keys pre-converted to column space for the round loop:
        # bit i of row r sits at position 4*i + r, like _SPREAD lays out
        self._col_keys = tuple(
            (_SPREAD[rk & MASK16]
             | (_SPREAD[(rk >> 16) & MASK16] << 1)
             | (_SPREAD[(rk >> 32) & MASK16] << 2)
             | (_SPREAD[(rk >> 48) & MASK16] << 3))
            for rk in self._round_keys)

    @classmethod
    def from_bytes(cls, key: bytes) -> "Rectangle80":
        """Build a cipher from a 10-byte (80-bit) big-endian key."""
        if len(key) != KEY_BITS // 8:
            raise ValueError(f"key must be {KEY_BITS // 8} bytes")
        return cls(int.from_bytes(key, "big"))

    @staticmethod
    def _expand_key(key: int) -> List[int]:
        """Derive the 26 round keys from the 80-bit master key."""
        rows = [(key >> (16 * i)) & MASK16 for i in range(5)]
        round_keys = []
        for rnd in range(ROUNDS):
            round_keys.append(_rows_to_block(rows[:4]))
            # S-box on the intersection of rows 0..3 and columns 0..3.
            for col in range(4):
                nibble = (((rows[3] >> col) & 1) << 3
                          | ((rows[2] >> col) & 1) << 2
                          | ((rows[1] >> col) & 1) << 1
                          | ((rows[0] >> col) & 1))
                sub = SBOX[nibble]
                for bit in range(4):
                    if (sub >> bit) & 1:
                        rows[bit] |= 1 << col
                    else:
                        rows[bit] &= ~(1 << col) & MASK16
            # Generalized Feistel mix of the five rows.
            new_rows = [
                (rotl16(rows[0], 8) ^ rows[1]) & MASK16,
                rows[2],
                rows[3],
                (rotl16(rows[3], 12) ^ rows[4]) & MASK16,
                rows[0],
            ]
            rows = new_rows
            rows[0] ^= _RC[rnd]
        round_keys.append(_rows_to_block(rows[:4]))
        return round_keys

    def encrypt(self, block: int) -> int:
        """Encrypt one 64-bit block.

        The round loop is the hot path of every SOFIA image decrypt and
        MAC check, so it runs fully inlined in *column space*: nibble
        ``i`` of the working value holds column ``i`` of the 4x16 state
        (bit ``r`` of the nibble = row ``r``, the `_SPREAD` layout).
        There SubColumn is four `_SUB16` chunk lookups, AddRoundKey is
        one XOR with a pre-converted key, and ShiftRow — rotating row
        ``r`` left by ``ROW_ROTATIONS[r]`` — becomes a rotation of the
        row's bit-plane by four bits per column, so the state never
        round-trips through row form until the final gather.
        """
        r = block & MASK64
        spread = _SPREAD
        sub = _SUB16
        col_keys = self._col_keys
        c = (spread[r & 0xFFFF]
             | (spread[(r >> 16) & 0xFFFF] << 1)
             | (spread[(r >> 32) & 0xFFFF] << 2)
             | (spread[r >> 48] << 3))
        for rnd in range(ROUNDS):
            c ^= col_keys[rnd]
            c = (sub[c & 0xFFFF]
                 | (sub[(c >> 16) & 0xFFFF] << 16)
                 | (sub[(c >> 32) & 0xFFFF] << 32)
                 | (sub[c >> 48] << 48))
            p1 = c & 0x2222222222222222
            p2 = c & 0x4444444444444444
            p3 = c & 0x8888888888888888
            c = ((c & 0x1111111111111111)
                 | (((p1 << 4) | (p1 >> 60)) & MASK64)
                 | (((p2 << 48) | (p2 >> 16)) & MASK64)
                 | (((p3 << 52) | (p3 >> 12)) & MASK64))
        c ^= col_keys[ROUNDS]
        g0, g1, g2, g3 = _GATHER
        c0 = c & 0xFFFF
        c1 = (c >> 16) & 0xFFFF
        c2 = (c >> 32) & 0xFFFF
        c3 = c >> 48
        return ((g0[c0] | (g0[c1] << 4) | (g0[c2] << 8) | (g0[c3] << 12))
                | ((g1[c0] | (g1[c1] << 4) | (g1[c2] << 8)
                    | (g1[c3] << 12)) << 16)
                | ((g2[c0] | (g2[c1] << 4) | (g2[c2] << 8)
                    | (g2[c3] << 12)) << 32)
                | ((g3[c0] | (g3[c1] << 4) | (g3[c2] << 8)
                    | (g3[c3] << 12)) << 48))

    def decrypt(self, block: int) -> int:
        """Decrypt one 64-bit block (inverse of :meth:`encrypt`)."""
        r = block & MASK64
        spread = _SPREAD
        sub_inv = _sub16_inv()
        col_keys = self._col_keys
        c = (spread[r & 0xFFFF]
             | (spread[(r >> 16) & 0xFFFF] << 1)
             | (spread[(r >> 32) & 0xFFFF] << 2)
             | (spread[r >> 48] << 3))
        c ^= col_keys[ROUNDS]
        for rnd in range(ROUNDS - 1, -1, -1):
            # inverse ShiftRow: rotate the bit-planes right instead
            p1 = c & 0x2222222222222222
            p2 = c & 0x4444444444444444
            p3 = c & 0x8888888888888888
            c = ((c & 0x1111111111111111)
                 | (((p1 >> 4) | (p1 << 60)) & MASK64)
                 | (((p2 >> 48) | (p2 << 16)) & MASK64)
                 | (((p3 >> 52) | (p3 << 12)) & MASK64))
            c = (sub_inv[c & 0xFFFF]
                 | (sub_inv[(c >> 16) & 0xFFFF] << 16)
                 | (sub_inv[(c >> 32) & 0xFFFF] << 32)
                 | (sub_inv[c >> 48] << 48))
            c ^= col_keys[rnd]
        g0, g1, g2, g3 = _GATHER
        c0 = c & 0xFFFF
        c1 = (c >> 16) & 0xFFFF
        c2 = (c >> 32) & 0xFFFF
        c3 = c >> 48
        return ((g0[c0] | (g0[c1] << 4) | (g0[c2] << 8) | (g0[c3] << 12))
                | ((g1[c0] | (g1[c1] << 4) | (g1[c2] << 8)
                    | (g1[c3] << 12)) << 16)
                | ((g2[c0] | (g2[c1] << 4) | (g2[c2] << 8)
                    | (g2[c3] << 12)) << 32)
                | ((g3[c0] | (g3[c1] << 4) | (g3[c2] << 8)
                    | (g3[c3] << 12)) << 48))

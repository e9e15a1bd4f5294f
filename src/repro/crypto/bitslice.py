"""Bit-sliced batch evaluation of RECTANGLE-80 and PRESENT-80.

Sealing (:func:`repro.transform.encrypt.seal`) wants to pay the
cipher's Python interpretation overhead once per *batch* of blocks, not
once per block.  Both ciphers are substitution-permutation networks over
4-bit S-boxes, so the classic bit-slicing transform applies: pack bit
``b`` of up to :data:`WIDTH` independent blocks ("lanes") into one
Python big-int plane, then run the round function on planes — XORs for
AddRoundKey, the cipher's straight-line bit-sliced S-box circuit (12
operations for RECTANGLE, 14 for PRESENT) for the S-box layer, and
shifts for the linear layer — so one pass encrypts the whole batch.
RECTANGLE is itself specified bit-sliced (its ShiftRow rotates
bit-planes, and its designers give the 12-operation S-box), which is
exactly why the paper's companion work picked it; this module applies
the same idiom one level up.

Layouts
-------
* Lane/plane conversion is a 64x64 bit-matrix *transpose* of one
  4096-bit integer, done in 6 masked delta-swap steps (the
  Hacker's-Delight block transpose).  Lanes go in and out through one
  ``struct`` pack/unpack; after the transpose the 4096-bit *plane
  order* integer holds plane ``b`` at bits ``[64*b, 64*b + 64)``.
* RECTANGLE runs *row-sliced*: row ``r`` of the state is plane order's
  contiguous 1024-bit slice ``r`` — column ``c`` of lane ``j`` at bit
  ``c*WIDTH+j`` — so loading is four shifts, AddRoundKey is 4 XORs
  against precomputed row key masks and ShiftRow is a rotation by
  ``rot*WIDTH`` bits.
* PRESENT keeps plane order between rounds.  Its pLayer sends bit
  ``4*i + j`` to ``16*j + i``, which as a move of 64-bit planes
  rotates the 6-bit plane index by two bits.  Four delta swaps
  ("regroup") make that move before the S-box, putting nibble bit
  ``j`` of all 16 nibbles into the contiguous slice ``j``; joining the
  four S-box output slices is then already the permuted state.

Correctness is gated lane-for-lane against the scalar ciphers
(including PRESENT's published vector) by ``tests/test_bitslice.py``
and the batch differential suite.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from .present import Present80
from .primitives import MASK64, block_to_words, words_to_blocks
from .rectangle import Rectangle80

#: lanes per batch — one bit of every plane per specimen.
WIDTH = 64

_STATE_BITS = 16 * WIDTH
_STATE_MASK = (1 << _STATE_BITS) - 1
#: ``word * _EVERY_LANE`` is a batch whose every lane holds ``word``
_EVERY_LANE = sum(1 << (WIDTH * j) for j in range(WIDTH))


# -- bit-index swaps and the n x n transpose --------------------------------
#
# A delta-swap step exchanges bits p and q of every bit *position* of an
# integer (p < q): the bits whose position has bit p set and bit q clear
# trade places with their partners ``(1 << q) - (1 << p)`` above.  Any
# permutation of position bits is a sequence of such steps.

@lru_cache(maxsize=None)
def _swap_steps(pairs: Tuple[Tuple[int, int], ...],
                size: int) -> Tuple[Tuple[int, int], ...]:
    """``(delta, mask)`` of each position-bit swap, for ``size`` bits."""
    def with_bit(p: int) -> int:
        # runs of 2**p ones at odd multiples of 2**p, repeated to size
        run = 1 << p
        repunit = ((1 << size) - 1) // ((1 << (2 * run)) - 1)
        return (((1 << run) - 1) << run) * repunit
    return tuple(((1 << q) - (1 << p), with_bit(p) & ~with_bit(q))
                 for p, q in pairs)


#: the transpose swaps column-index bit k of every bit position with
#: row-index bit k (bit r*WIDTH + c holds row r, column c)
_TRANSPOSE_PAIRS = tuple((k, k + WIDTH.bit_length() - 1)
                         for k in range(WIDTH.bit_length() - 1))


def transpose_bits(x: int) -> int:
    """Transpose the ``WIDTH x WIDTH`` bit matrix packed row-major
    into ``x``."""
    for delta, mask in _swap_steps(_TRANSPOSE_PAIRS, WIDTH * WIDTH):
        t = (x ^ (x >> delta)) & mask
        x ^= t | (t << delta)
    return x


def pack_planes(blocks: Sequence[int]) -> int:
    """Up to :data:`WIDTH` 64-bit lanes -> the plane-order integer:
    bit ``j`` of plane ``b`` (bit ``64*b + j``) is bit ``b`` of
    ``blocks[j]``.  Missing lanes pack as zero."""
    if len(blocks) > WIDTH:
        raise ValueError(f"at most {WIDTH} lanes, got {len(blocks)}")
    return transpose_bits(int.from_bytes(
        struct.pack(f"<{len(blocks)}Q", *blocks), "little"))


def unpack_planes(planes: int, lanes: int) -> List[int]:
    """Inverse of :func:`pack_planes`: the first ``lanes`` lanes."""
    return list(struct.unpack_from(
        f"<{lanes}Q", transpose_bits(planes).to_bytes(8 * WIDTH, "little")))


def _key_planes(round_key: int) -> int:
    """A round key as a plane-order mask: plane ``b`` is all ones
    exactly where bit ``b`` of the key is set."""
    return transpose_bits(round_key * _EVERY_LANE)


# -- RECTANGLE-80, row-sliced ----------------------------------------------

class BitslicedRectangle80:
    """Batch evaluator sharing the scalar cipher's key schedule."""

    #: lane crossover: fewer lanes run faster on the scalar cipher
    #: (measured, CPython 3.11 on x86-64, three runs: a batch costs
    #: about 1.5 scalar encrypts at any width — 0.62-0.66x the scalar
    #: rate at 1 lane, 1.31-1.47x at 2, 41-50x at 64)
    min_lanes = 2

    def __init__(self, cipher: Rectangle80) -> None:
        # each round key as four wide rows, every set column bit a full
        # lane group of ones
        self._row_keys = tuple(
            tuple((planes >> (_STATE_BITS * r)) & _STATE_MASK
                  for r in range(4))
            for planes in map(_key_planes, cipher._round_keys))

    def encrypt_batch(self, blocks: Sequence[int]) -> List[int]:
        t = pack_planes(blocks)
        ones = _STATE_MASK
        # wide row r: column c's lane group at bits [c*WIDTH, (c+1)*WIDTH)
        r0 = t & ones
        r1 = (t >> _STATE_BITS) & ones
        r2 = (t >> (2 * _STATE_BITS)) & ones
        r3 = t >> (3 * _STATE_BITS)
        row_keys = self._row_keys
        for k0, k1, k2, k3 in row_keys[:-1]:
            a0 = r0 ^ k0
            a1 = r1 ^ k1
            a2 = r2 ^ k2
            a3 = r3 ^ k3
            # SubColumn: the designers' 12-operation circuit
            t1 = a1 ^ ones
            t2 = a2 ^ a3
            r0 = (a0 & t1) ^ t2
            t6 = a0 ^ (a3 | t1)
            r1 = a2 ^ t6
            t8 = a1 ^ a2
            r3 = t8 ^ (t2 & t6)
            r2 = t6 ^ (r0 | t8)
            # ShiftRow: rotate the column groups left by (0, 1, 12, 13)
            r1 = ((r1 << WIDTH) | (r1 >> (15 * WIDTH))) & ones
            r2 = ((r2 << (12 * WIDTH)) | (r2 >> (4 * WIDTH))) & ones
            r3 = ((r3 << (13 * WIDTH)) | (r3 >> (3 * WIDTH))) & ones
        k0, k1, k2, k3 = row_keys[-1]
        return unpack_planes((r0 ^ k0) | ((r1 ^ k1) << _STATE_BITS)
                             | ((r2 ^ k2) << (2 * _STATE_BITS))
                             | ((r3 ^ k3) << (3 * _STATE_BITS)),
                             len(blocks))


# -- PRESENT-80, plane order -----------------------------------------------

#: pLayer regroup: plane ``4*i + j`` -> ``16*j + i`` rotates the 6
#: plane-index bits (position bits 6..11 of the 4096-bit integer) by
#: two, done as these four position-bit swaps in this order
_REGROUP_PAIRS = ((8, 10), (6, 10), (9, 11), (7, 11))


class BitslicedPresent80:
    """Batch evaluator sharing the scalar cipher's key schedule."""

    #: lane crossover (same host and runs: a batch costs 5-6
    #: table-driven scalar encrypts at any width — 0.95-1.11x the
    #: scalar rate at 6 lanes, 1.13-1.36x at 7, 10-12x at 64; the
    #: 4096-bit regroup makes a round cost ~2.5 RECTANGLE rounds)
    min_lanes = 7

    def __init__(self, cipher: Present80) -> None:
        self._plane_keys = tuple(map(_key_planes, cipher._round_keys))

    def encrypt_batch(self, blocks: Sequence[int]) -> List[int]:
        t = pack_planes(blocks)
        ones = _STATE_MASK
        (d0, m0), (d1, m1), (d2, m2), (d3, m3) = _swap_steps(
            _REGROUP_PAIRS, WIDTH * WIDTH)
        plane_keys = self._plane_keys
        for key in plane_keys[:-1]:
            x = t ^ key
            # regroup: nibble bit j of nibble i to lane group 16*j + i
            s = (x ^ (x >> d0)) & m0
            x ^= s | (s << d0)
            s = (x ^ (x >> d1)) & m1
            x ^= s | (s << d1)
            s = (x ^ (x >> d2)) & m2
            x ^= s | (s << d2)
            s = (x ^ (x >> d3)) & m3
            x ^= s | (s << d3)
            # sLayer: a 14-operation circuit, X0..X3 = nibble bits 3..0
            x3 = x & ones
            x2 = (x >> _STATE_BITS) & ones
            x1 = (x >> (2 * _STATE_BITS)) & ones
            x0 = x >> (3 * _STATE_BITS)
            t1 = x2 ^ x1
            t2 = x1 & t1
            t3 = x0 ^ t2
            y3 = x3 ^ t3
            t2 = t1 & t3
            t1 ^= y3
            t2 ^= x1
            t4 = x3 | t2
            y2 = t1 ^ t4
            t2 ^= x3 ^ ones
            y0 = y2 ^ t2
            t2 |= t1
            y1 = t3 ^ t2
            # output bit j of nibble i already sits at plane 16*j + i,
            # where the pLayer sends it
            t = (y3 | (y2 << _STATE_BITS) | (y1 << (2 * _STATE_BITS))
                 | (y0 << (3 * _STATE_BITS)))
        return unpack_planes(t ^ plane_keys[-1], len(blocks))


# -- batch front door ------------------------------------------------------

_BITSLICED: Dict[Tuple[type, int], object] = {}


def bitsliced_for(cipher) -> Optional[object]:
    """The (memoized) batch evaluator for ``cipher``, or ``None``."""
    key = (type(cipher), cipher.key)
    engine = _BITSLICED.get(key)
    if engine is None:
        if isinstance(cipher, Rectangle80):
            engine = BitslicedRectangle80(cipher)
        elif isinstance(cipher, Present80):
            engine = BitslicedPresent80(cipher)
        else:
            return None
        _BITSLICED[key] = engine
    return engine


def encrypt_batch(cipher, blocks: Sequence[int]) -> List[int]:
    """Encrypt ``blocks`` lane-for-lane equal to ``cipher.encrypt``.

    Batches wider than :data:`WIDTH` are split; a chunk narrower than
    the evaluator's ``min_lanes`` crossover, and any unknown cipher type,
    takes the scalar path, so callers never need to special-case small
    or odd batches.
    """
    engine = bitsliced_for(cipher)
    if engine is None:
        return [cipher.encrypt(block) for block in blocks]
    out: List[int] = []
    for start in range(0, len(blocks), WIDTH):
        chunk = blocks[start:start + WIDTH]
        if len(chunk) < engine.min_lanes:
            out.extend(cipher.encrypt(block) for block in chunk)
        else:
            out.extend(engine.encrypt_batch(chunk))
    return out


def batch_mac_stream(cipher, payloads: Sequence[Sequence[int]],
                     count: int, iv: int = 0) -> List[Tuple[int, ...]]:
    """:func:`~repro.crypto.cbcmac.mac_stream` over many equal-length
    word payloads at once (one batched cipher call per CBC step)."""
    if not payloads:
        return []
    lanes = [words_to_blocks(words) for words in payloads]
    depth = len(lanes[0])
    if any(len(lane) != depth for lane in lanes):
        raise ValueError("batch MAC lanes must have equal block counts")
    states = [iv & MASK64] * len(lanes)
    for t in range(depth):
        states = encrypt_batch(
            cipher, [state ^ lane[t] for state, lane in zip(states, lanes)])
    outs = [list(block_to_words(state)) for state in states]
    while len(outs[0]) < count:
        states = encrypt_batch(cipher, states)
        for out, state in zip(outs, states):
            out.extend(block_to_words(state))
    return [tuple(out[:count]) for out in outs]

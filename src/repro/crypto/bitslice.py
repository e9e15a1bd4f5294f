"""Bit-sliced batch evaluation of RECTANGLE-80 and PRESENT-80.

Sealing (:func:`repro.transform.encrypt.seal`) wants to pay the
cipher's Python interpretation overhead once per *batch* of blocks, not
once per block.  Both ciphers are substitution-permutation networks over
4-bit S-boxes, so the classic bit-slicing transform applies: pack bit
``b`` of up to :data:`WIDTH` independent blocks ("lanes") into one
Python big-int plane, then run the round function on planes — XORs for
AddRoundKey, a shared ~60-gate sum-of-minterms circuit for the S-box
layer, and pure shifts for the linear layer — so one pass encrypts the
whole batch.  RECTANGLE is itself specified bit-sliced (its ShiftRow
rotates bit-planes), which is exactly why the paper's companion work
picked it; this module applies the same idiom one level up.

Layouts
-------
* Lane/plane conversion is a 64x64 bit-matrix *transpose* of one
  4096-bit integer, done in 6 masked delta-swap steps (the
  Hacker's-Delight block transpose, generalized to any power-of-two
  ``n`` for the property tests).
* RECTANGLE runs *wide-resident*: the state is 4 row planes of
  ``16 * WIDTH`` bits — column ``c`` of lane ``j`` at bit ``c*WIDTH+j``
  — so AddRoundKey is 4 XORs against precomputed wide key masks and
  ShiftRow is a rotation by ``rot*WIDTH`` bits.
* PRESENT keeps 64 individual planes: its pLayer is then a free
  permutation of the plane list, and the S-layer gathers the planes
  into 4 nibble-indexed wides for the shared circuit.

Correctness is gated lane-for-lane against the scalar ciphers
(including PRESENT's published vector) by the batch differential suite.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .present import PERMUTATION
from .present import ROUNDS as PRESENT_ROUNDS
from .present import SBOX as PRESENT_SBOX
from .present import Present80
from .primitives import MASK16, MASK64, block_to_words, words_to_blocks
from .rectangle import ROUNDS as RECTANGLE_ROUNDS
from .rectangle import SBOX as RECTANGLE_SBOX
from .rectangle import Rectangle80

#: lanes per batch — one bit of every plane per specimen.
WIDTH = 64

_ONES = MASK64
_STATE_BITS = 16 * WIDTH
_STATE_MASK = (1 << _STATE_BITS) - 1


# -- generic n x n bit-matrix transpose ------------------------------------
#
# One n^2-bit integer holds the matrix row-major (bit r*n+c = row r,
# column c).  Each delta-swap step s exchanges bit s of every (row,
# column) index pair; the steps touch disjoint index bits, so their
# composition in any order is the full transpose.

_TRANSPOSE_STEPS: Dict[int, Tuple[Tuple[int, int], ...]] = {}


def _transpose_steps(n: int) -> Tuple[Tuple[int, int], ...]:
    steps = _TRANSPOSE_STEPS.get(n)
    if steps is None:
        if n < 1 or n & (n - 1):
            raise ValueError(f"transpose size must be a power of two, got {n}")
        built = []
        s = n >> 1
        while s:
            delta = s * (n - 1)
            mask = 0
            for r in range(n):
                if r & s:
                    continue
                for c in range(n):
                    if c & s:
                        mask |= 1 << (r * n + c)
            built.append((delta, mask))
            s >>= 1
        steps = _TRANSPOSE_STEPS[n] = tuple(built)
    return steps


def transpose_bits(x: int, n: int = WIDTH) -> int:
    """Transpose an ``n x n`` bit matrix packed row-major into ``x``."""
    for delta, mask in _transpose_steps(n):
        t = (x ^ (x >> delta)) & mask
        x ^= t | (t << delta)
    return x


def pack_planes(blocks: Sequence[int], n: int = WIDTH) -> List[int]:
    """Lane values -> bit planes: bit ``j`` of plane ``b`` = bit ``b``
    of ``blocks[j]``.  Missing lanes (``len(blocks) < n``) pack as zero.
    """
    if len(blocks) > n:
        raise ValueError(f"at most {n} lanes, got {len(blocks)}")
    mask = (1 << n) - 1
    x = 0
    for j, block in enumerate(blocks):
        x |= (block & mask) << (n * j)
    t = transpose_bits(x, n)
    return [(t >> (n * b)) & mask for b in range(n)]


def unpack_planes(planes: Sequence[int], lanes: int, n: int = WIDTH) -> List[int]:
    """Inverse of :func:`pack_planes`: recover the first ``lanes`` values."""
    if len(planes) != n:
        raise ValueError(f"expected {n} planes, got {len(planes)}")
    x = 0
    for b, plane in enumerate(planes):
        x |= plane << (n * b)
    t = transpose_bits(x, n)
    mask = (1 << n) - 1
    return [(t >> (n * j)) & mask for j in range(lanes)]


# -- shared 4-bit S-box circuit --------------------------------------------

def make_sbox_layer(sbox: Sequence[int]):
    """Compile a 4-bit S-box table into a wide sum-of-minterms circuit.

    The returned callable maps four input bit planes (plus an all-ones
    plane of the same width) to four output planes: 16 disjoint minterms
    are built from the shared half-products of ``(a1, a0)`` and
    ``(a3, a2)``, and output bit ``b`` ORs the minterms whose S-box
    image has bit ``b`` set — ~60 big-int operations for any table.
    """
    rows = tuple(tuple(v for v in range(16) if (sbox[v] >> bit) & 1)
                 for bit in range(4))

    def layer(a0: int, a1: int, a2: int, a3: int, ones: int):
        n0 = a0 ^ ones
        n1 = a1 ^ ones
        n2 = a2 ^ ones
        n3 = a3 ^ ones
        lo = (n1 & n0, n1 & a0, a1 & n0, a1 & a0)
        hi = (n3 & n2, n3 & a2, a3 & n2, a3 & a2)
        minterms = [hi[v >> 2] & lo[v & 3] for v in range(16)]
        out = []
        for bits in rows:
            acc = 0
            for v in bits:
                acc |= minterms[v]
            out.append(acc)
        return out

    return layer


# -- RECTANGLE-80, wide-resident -------------------------------------------

class BitslicedRectangle80:
    """Batch evaluator sharing the scalar cipher's key schedule."""

    #: lane crossover: fewer lanes run faster on the scalar cipher
    #: (measured, CPython 3.11 on x86-64: 0.57x the scalar rate at 4
    #: lanes, 1.05x at 8, 8.6x at 64)
    min_lanes = 8

    def __init__(self, cipher: Rectangle80) -> None:
        self._layer = make_sbox_layer(RECTANGLE_SBOX)
        # round key row r expanded to a 16*WIDTH-bit mask: every set
        # column bit becomes a full lane group of ones
        wide_keys = []
        for round_key in cipher._round_keys:
            masks = []
            for r in range(4):
                key_row = (round_key >> (16 * r)) & MASK16
                mask = 0
                for c in range(16):
                    if (key_row >> c) & 1:
                        mask |= _ONES << (c * WIDTH)
                masks.append(mask)
            wide_keys.append(tuple(masks))
        self._wide_keys = tuple(wide_keys)

    def encrypt_batch(self, blocks: Sequence[int]) -> List[int]:
        lanes = len(blocks)
        planes = pack_planes(blocks)
        # wide row r: column c's lane group at bits [c*WIDTH, (c+1)*WIDTH)
        rows = []
        for r in range(4):
            base = 16 * r
            acc = 0
            for c in range(16):
                acc |= planes[base + c] << (c * WIDTH)
            rows.append(acc)
        r0, r1, r2, r3 = rows
        layer = self._layer
        wide_keys = self._wide_keys
        for rnd in range(RECTANGLE_ROUNDS):
            k0, k1, k2, k3 = wide_keys[rnd]
            r0, r1, r2, r3 = layer(r0 ^ k0, r1 ^ k1, r2 ^ k2, r3 ^ k3,
                                   _STATE_MASK)
            # ShiftRow: rotate the column groups left by (0, 1, 12, 13)
            r1 = ((r1 << WIDTH) | (r1 >> (15 * WIDTH))) & _STATE_MASK
            r2 = ((r2 << (12 * WIDTH)) | (r2 >> (4 * WIDTH))) & _STATE_MASK
            r3 = ((r3 << (13 * WIDTH)) | (r3 >> (3 * WIDTH))) & _STATE_MASK
        k0, k1, k2, k3 = wide_keys[RECTANGLE_ROUNDS]
        rows = (r0 ^ k0, r1 ^ k1, r2 ^ k2, r3 ^ k3)
        out_planes = [0] * WIDTH
        for r in range(4):
            wide = rows[r]
            base = 16 * r
            for c in range(16):
                out_planes[base + c] = (wide >> (c * WIDTH)) & _ONES
        return unpack_planes(out_planes, lanes)


# -- PRESENT-80, plane-resident --------------------------------------------

class BitslicedPresent80:
    """Batch evaluator sharing the scalar cipher's key schedule."""

    #: lane crossover (same host: 0.8x the scalar rate at 32 lanes,
    #: 1.28x at 48, 1.7x at 64 — the table-driven scalar PRESENT is
    #: relatively cheaper than the scalar RECTANGLE)
    min_lanes = 40

    def __init__(self, cipher: Present80) -> None:
        self._layer = make_sbox_layer(PRESENT_SBOX)
        self._key_bits = tuple(
            tuple(b for b in range(64) if (key >> b) & 1)
            for key in cipher._round_keys)

    def encrypt_batch(self, blocks: Sequence[int]) -> List[int]:
        lanes = len(blocks)
        planes = pack_planes(blocks)
        layer = self._layer
        key_bits = self._key_bits
        perm = PERMUTATION
        for rnd in range(PRESENT_ROUNDS):
            for b in key_bits[rnd]:
                planes[b] ^= _ONES
            # gather nibble bit k of the 16 nibbles into wide k
            w0 = w1 = w2 = w3 = 0
            for i in range(16):
                shift = i * WIDTH
                base = 4 * i
                w0 |= planes[base] << shift
                w1 |= planes[base + 1] << shift
                w2 |= planes[base + 2] << shift
                w3 |= planes[base + 3] << shift
            w0, w1, w2, w3 = layer(w0, w1, w2, w3, _STATE_MASK)
            # scatter back through the (free) pLayer permutation
            out = [0] * 64
            for i in range(16):
                shift = i * WIDTH
                base = 4 * i
                out[perm[base]] = (w0 >> shift) & _ONES
                out[perm[base + 1]] = (w1 >> shift) & _ONES
                out[perm[base + 2]] = (w2 >> shift) & _ONES
                out[perm[base + 3]] = (w3 >> shift) & _ONES
            planes = out
        for b in key_bits[PRESENT_ROUNDS]:
            planes[b] ^= _ONES
        return unpack_planes(planes, lanes)


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

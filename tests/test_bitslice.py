"""Bit-sliced batch ciphers (``repro.crypto.bitslice``).

* each evaluator's straight-line S-box circuit, over all 16 nibbles,
  against the cipher's ``SBOX`` table (through a one-round evaluator);
* lane-for-lane equality with the scalar ciphers at random lane counts
  and random 80-bit keys, through the chunking front door and through
  the evaluator itself;
* lane independence: a lane's output ignores the other lanes of its
  chunk;
* ``batch_mac_stream`` against the scalar ``mac_stream``;
* pinned SHA-256 digests of sealed images at every ``profile_grid()``
  point, so a change to the batch path cannot move a sealed byte.
"""

import copy
import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import DeviceKeys
from repro.crypto.bitslice import (WIDTH, BitslicedRectangle80,
                                   batch_mac_stream, bitsliced_for,
                                   encrypt_batch)
from repro.crypto.cbcmac import mac_stream
from repro.crypto.present import PERMUTATION, Present80
from repro.crypto.present import SBOX as PRESENT_SBOX
from repro.crypto.primitives import MASK16, MASK64, rotl16
from repro.crypto.rectangle import ROW_ROTATIONS, Rectangle80
from repro.crypto.rectangle import SBOX as RECTANGLE_SBOX
from repro.transform import transform
from repro.transform.profile import profile_grid
from repro.workloads import make_workload

CIPHERS = [Rectangle80, Present80]
IDS = ["rectangle", "present"]

blocks64 = st.integers(min_value=0, max_value=MASK64)
keys80 = st.integers(min_value=0, max_value=(1 << 80) - 1)


# --- one round, by table ---------------------------------------------------

def rectangle_round(block):
    """SubColumn then ShiftRow of one block, from the S-box table."""
    rows = [0, 0, 0, 0]
    for c in range(16):
        nibble = sum(((block >> (16 * r + c)) & 1) << r for r in range(4))
        sub = RECTANGLE_SBOX[nibble]
        for r in range(4):
            rows[r] |= ((sub >> r) & 1) << c
    return sum(rotl16(rows[r], ROW_ROTATIONS[r]) << (16 * r)
               for r in range(4))


def present_round(block):
    """sLayer then pLayer of one block, from the S-box table."""
    sub = sum(PRESENT_SBOX[(block >> (4 * i)) & 0xF] << (4 * i)
              for i in range(16))
    return sum(((sub >> b) & 1) << PERMUTATION[b] for b in range(64))


def one_round(cipher):
    """The cipher's batch evaluator cut to one keyless round: an
    evaluator runs one round per round key but the last, so two
    all-zero keys leave the bare S-box layer and linear layer."""
    engine = copy.copy(bitsliced_for(cipher))
    if isinstance(engine, BitslicedRectangle80):
        engine._row_keys = ((0, 0, 0, 0), (0, 0, 0, 0))
    else:
        engine._plane_keys = (0, 0)
    return engine


class TestSboxCircuits:
    @pytest.mark.parametrize("cipher_cls,reference",
                             [(Rectangle80, rectangle_round),
                              (Present80, present_round)], ids=IDS)
    def test_every_nibble_against_the_table(self, cipher_cls, reference):
        # lane v holds nibble (v + k) % 16 at every nibble position k,
        # so each position sees all 16 inputs
        if cipher_cls is Rectangle80:
            def lane(v):
                return sum(((((v + c) % 16) >> r) & 1) << (16 * r + c)
                           for c in range(16) for r in range(4))
        else:
            def lane(v):
                return sum(((v + i) % 16) << (4 * i) for i in range(16))
        blocks = [lane(v) for v in range(16)]
        engine = one_round(cipher_cls(0x1234_5678_9ABC_DEF0_1357))
        assert engine.encrypt_batch(blocks) == [reference(b) for b in blocks]

    def test_reference_rounds_use_the_tables(self):
        # the all-zero block sends every nibble through SBOX[0]
        s = RECTANGLE_SBOX[0]
        assert rectangle_round(0) == sum(
            (MASK16 if (s >> r) & 1 else 0) << (16 * r) for r in range(4))
        # PRESENT's SBOX[0] = 0xC sets nibble bits 2 and 3, which the
        # pLayer gathers into the top two 16-bit quarters
        assert PRESENT_SBOX[0] == 0xC
        assert present_round(0) == 0xFFFF_FFFF_0000_0000


# --- lane-for-lane equality with the scalar ciphers ------------------------

class TestLaneForLane:
    @pytest.mark.parametrize("cipher_cls", CIPHERS, ids=IDS)
    @given(key=keys80,
           blocks=st.lists(blocks64, min_size=1, max_size=2 * WIDTH + 1))
    @settings(max_examples=40, deadline=None)
    def test_front_door_matches_scalar(self, cipher_cls, key, blocks):
        cipher = cipher_cls(key)
        assert encrypt_batch(cipher, blocks) == [
            cipher.encrypt(b) for b in blocks]

    @pytest.mark.parametrize("cipher_cls", CIPHERS, ids=IDS)
    @given(key=keys80,
           blocks=st.lists(blocks64, min_size=1, max_size=WIDTH))
    @settings(max_examples=40, deadline=None)
    def test_evaluator_matches_scalar(self, cipher_cls, key, blocks):
        # below min_lanes too: the front door would not batch those
        cipher = cipher_cls(key)
        assert bitsliced_for(cipher).encrypt_batch(blocks) == [
            cipher.encrypt(b) for b in blocks]

    @pytest.mark.parametrize("cipher_cls", CIPHERS, ids=IDS)
    def test_full_and_single_lanes(self, cipher_cls):
        cipher = cipher_cls(0xFFFF_FFFF_FFFF_FFFF_FFFF)
        engine = bitsliced_for(cipher)
        for blocks in ([MASK64] * WIDTH, [0] * WIDTH, [MASK64], [0]):
            assert engine.encrypt_batch(blocks) == [
                cipher.encrypt(b) for b in blocks]

    @pytest.mark.parametrize("cipher_cls", CIPHERS, ids=IDS)
    def test_more_than_width_lanes_is_an_error(self, cipher_cls):
        with pytest.raises(ValueError, match="lanes"):
            bitsliced_for(cipher_cls(1)).encrypt_batch([0] * (WIDTH + 1))


class TestLaneIndependence:
    @pytest.mark.parametrize("cipher_cls", CIPHERS, ids=IDS)
    @given(key=keys80, lanes=st.integers(min_value=2, max_value=WIDTH),
           data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_lane_ignores_its_neighbours(self, cipher_cls, key, lanes,
                                         data):
        cipher = cipher_cls(key)
        engine = bitsliced_for(cipher)
        first = data.draw(st.lists(blocks64, min_size=lanes,
                                   max_size=lanes))
        second = data.draw(st.lists(blocks64, min_size=lanes,
                                    max_size=lanes))
        j = data.draw(st.integers(min_value=0, max_value=lanes - 1))
        second[j] = first[j]
        expected = cipher.encrypt(first[j])
        assert engine.encrypt_batch(first)[j] == expected
        assert engine.encrypt_batch(second)[j] == expected


# --- batched CBC-MAC chains ------------------------------------------------

class TestBatchMacStream:
    @pytest.mark.parametrize("cipher_cls", CIPHERS, ids=IDS)
    @given(key=keys80, nwords=st.integers(min_value=1, max_value=11),
           count=st.integers(min_value=1, max_value=5),
           lanes=st.integers(min_value=1, max_value=WIDTH + 3),
           iv=blocks64, seed=st.integers(min_value=0, max_value=1 << 32))
    @settings(max_examples=30, deadline=None)
    def test_matches_scalar_mac_stream(self, cipher_cls, key, nwords,
                                       count, lanes, iv, seed):
        cipher = cipher_cls(key)
        rng = random.Random(seed)
        payloads = [tuple(rng.getrandbits(32) for _ in range(nwords))
                    for _ in range(lanes)]
        batch = batch_mac_stream(cipher, payloads, count, iv)
        assert batch == [mac_stream(cipher, list(p), count, iv)
                         for p in payloads]


# --- sealed images are byte-identical to the scalar-era seal ---------------

KEYS = DeviceKeys.from_seed(0xB175_11CE)
NONCE = 0x5EA1

#: SHA-256 of ``image.to_bytes()`` per (workload, profile label), sealed
#: with KEYS and NONCE before the batch ciphers were rewritten
SEALED_DIGESTS = {
    ("sort", "rectangle-80/mac32/sequential"): "3fc8c344408b78666e72d87028f28e78cefe6af019b13e42922cc51d3753e44e",
    ("sort", "rectangle-80/mac32/fixed"): "9c940cfdf00a0b583e011fc45f62f8a8beced0fdd073f76e247fb5128499fe52",
    ("sort", "rectangle-80/mac64/sequential"): "60f877ae941d68189a8d6a4fcd09ddbcb35ce684b94627355ae6547bc974bc37",
    ("sort", "rectangle-80/mac64/fixed"): "b03192ad0589fc496ce45144bd9bc1c777c2c4de85523f0b298d43ef01554fa9",
    ("sort", "rectangle-80/mac96/sequential"): "4139fb8fd14ca79fcccbab0ef5f8c7f3010b880bc0d9fda9b1b6e0d61290d5f9",
    ("sort", "rectangle-80/mac96/fixed"): "d13e4ff20a254d47c1ff9ba257086d179fa4bb911e1435127159d233f05e064f",
    ("sort", "present-80/mac32/sequential"): "ccc568509d7a31f7ff347869856b50dca7506c2de0983ff2142d82fd6fd2bf62",
    ("sort", "present-80/mac32/fixed"): "3d36d0e55366d4cc7668d4ceb4d63e9f76a748599b927081769d285b2c95f319",
    ("sort", "present-80/mac64/sequential"): "33054551930f5a057961bb5d7f3b1ea3ee37326fd9f4c26ed985f610ff8f20fe",
    ("sort", "present-80/mac64/fixed"): "7579e191dcd5eed1c812432fbb4ecabbf77d51b704520e27bc0609fd7d7d0650",
    ("sort", "present-80/mac96/sequential"): "8fa8d14ace408e0d09fb57a20e4ec038e69011b198c4cbe801234c3fbd7664e4",
    ("sort", "present-80/mac96/fixed"): "9034be57fd1e159fc5a45e69e08c6770ea317f01572a9f3c52340bf4bfc06e0b",
    ("crc32", "rectangle-80/mac32/sequential"): "7e88762c4d40b233b9a9d07b8b1b4f0aac02378fa759aaeb1a30dab146bf68fa",
    ("crc32", "rectangle-80/mac32/fixed"): "465997ba1a7eba415f743c0dafb8144b05beb81a8029bdc53db5bde71d01bb94",
    ("crc32", "rectangle-80/mac64/sequential"): "58ff7d56b20f29e5629b56cea8bac7daa87c664e703e82baef31dd1c030fcce4",
    ("crc32", "rectangle-80/mac64/fixed"): "f3dcbc9602d311f647ff3e6b369c6ad8847d4349b9b20367155ea3f3b53c26ee",
    ("crc32", "rectangle-80/mac96/sequential"): "9f3013911590bf79c88223d1c45816054446ddc1a0ad51a44058d5a318012ef2",
    ("crc32", "rectangle-80/mac96/fixed"): "f23a56521668a3999057ce618d754c42336f145a554af5518338369360a4c891",
    ("crc32", "present-80/mac32/sequential"): "972cc67ead6233ed9078b04365d7bc2eeedda65d2d34500c1ea7958cef757224",
    ("crc32", "present-80/mac32/fixed"): "c974ec8ba1386b330ffd217974df5fc19540a6f88dfef25af7ca62fc79b8e83d",
    ("crc32", "present-80/mac64/sequential"): "3abf5f68d46a56b2f482f048c6dd899de5c34b85e4fc2d10847efd4c073be235",
    ("crc32", "present-80/mac64/fixed"): "c0709ae383128d017a2a39486afa8569a1927f65ff95e48fac1ee38810986540",
    ("crc32", "present-80/mac96/sequential"): "d4fd4c9db73af6e9917c81ccb3e786b602c0c4dcbc9ce520985e8e4ef00b9227",
    ("crc32", "present-80/mac96/fixed"): "6cd4801310f57f3e2e79514f4f42b0015a510075c0b33ca40684e1083db67289",
}


@pytest.mark.parametrize("workload", ["sort", "crc32"])
@pytest.mark.parametrize("profile", profile_grid(), ids=lambda p: p.label)
def test_sealed_image_digest_is_pinned(workload, profile):
    program = make_workload(workload, "tiny").compile().program
    image = transform(program, KEYS.for_profile(profile), nonce=NONCE,
                      profile=profile)
    digest = hashlib.sha256(image.to_bytes()).hexdigest()
    assert digest == SEALED_DIGESTS[(workload, profile.label)]

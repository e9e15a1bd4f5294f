"""Tests for CBC-MAC, the edge keystream (Alg. 1) and device keys."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import (DeviceKeys, EdgeKeystream, Rectangle80, cbc_mac,
                          derive_key, mac_words, pack_counter, verify)
from repro.crypto.primitives import (MASK32, block_to_words, words_to_block,
                                     words_to_blocks)

WORDS = st.lists(st.integers(min_value=0, max_value=MASK32), min_size=1, max_size=8)
WORD_ADDRS = st.integers(min_value=0, max_value=(1 << 22) - 1).map(lambda w: w * 4)


@pytest.fixture(scope="module")
def cipher():
    return Rectangle80(0xFEEDFACEFEEDFACEFEED)


class TestPrimitives:
    def test_words_to_block_order(self):
        assert words_to_block(0x11223344, 0x55667788) == 0x1122334455667788

    def test_block_to_words_inverse(self):
        assert block_to_words(0x1122334455667788) == (0x11223344, 0x55667788)

    def test_odd_word_count_pads_with_zero(self):
        assert words_to_blocks([0xAA]) == [0xAA << 32]
        assert words_to_blocks([1, 2, 3]) == [(1 << 32) | 2, 3 << 32]


class TestCbcMac:
    def test_empty_message_macs_to_iv_state(self, cipher):
        assert cbc_mac(cipher, []) == 0

    def test_mac_is_deterministic(self, cipher):
        msg = [1, 2, 3, 4, 5, 6]
        assert cbc_mac(cipher, msg) == cbc_mac(cipher, msg)

    def test_mac_depends_on_every_word(self, cipher):
        msg = [10, 20, 30, 40, 50, 60]
        base = cbc_mac(cipher, msg)
        for i in range(len(msg)):
            tampered = list(msg)
            tampered[i] ^= 1
            assert cbc_mac(cipher, tampered) != base

    def test_mac_depends_on_word_order(self, cipher):
        assert cbc_mac(cipher, [1, 2, 3, 4]) != cbc_mac(cipher, [2, 1, 3, 4])

    def test_mac_words_split(self, cipher):
        m1, m2 = mac_words(cipher, [7, 8, 9, 10])
        assert ((m1 << 32) | m2) == cbc_mac(cipher, [7, 8, 9, 10])

    def test_verify_accepts_good_and_rejects_bad(self, cipher):
        msg = [11, 22, 33, 44, 55, 66]
        m1, m2 = mac_words(cipher, msg)
        assert verify(cipher, msg, m1, m2)
        assert not verify(cipher, msg, m1 ^ 1, m2)
        assert not verify(cipher, [0] + msg[1:], m1, m2)

    def test_different_keys_disagree(self):
        a, b = Rectangle80(111), Rectangle80(222)
        assert cbc_mac(a, [1, 2]) != cbc_mac(b, [1, 2])

    @given(msg=WORDS)
    @settings(max_examples=25, deadline=None)
    def test_single_bit_tamper_always_detected(self, cipher, msg):
        m1, m2 = mac_words(cipher, msg)
        tampered = list(msg)
        tampered[0] ^= 0x80000000
        assert not verify(cipher, tampered, m1, m2)


class TestPackCounter:
    def test_layout(self):
        counter = pack_counter(0xABCD, 0x10, 0x24)
        assert counter == (0xABCD << 48) | ((0x10 >> 2) << 24) | (0x24 >> 2)

    def test_rejects_wide_nonce(self):
        with pytest.raises(ValueError):
            pack_counter(0x10000, 0, 0)

    def test_rejects_misaligned_pc(self):
        with pytest.raises(ValueError):
            pack_counter(0, 0, 2)

    def test_rejects_out_of_space_address(self):
        with pytest.raises(ValueError):
            pack_counter(0, 1 << 26, 0)

    @given(prev=WORD_ADDRS, pc=WORD_ADDRS)
    @settings(max_examples=50, deadline=None)
    def test_counters_injective_over_edges(self, prev, pc):
        assert pack_counter(1, prev, pc) != pack_counter(1, prev, pc + 4)
        assert pack_counter(1, prev, pc) != pack_counter(1, prev + 4, pc)


class TestEdgeKeystream:
    def test_encrypt_then_decrypt_roundtrip(self, cipher):
        ks = EdgeKeystream(cipher, nonce=0x1234)
        cword = ks.encrypt_word(0xDEADBEEF, 0x100, 0x104)
        assert ks.decrypt_word(cword, 0x100, 0x104) == 0xDEADBEEF

    def test_wrong_edge_decrypts_to_garbage(self, cipher):
        ks = EdgeKeystream(cipher, nonce=0x1234)
        cword = ks.encrypt_word(0xDEADBEEF, 0x100, 0x104)
        assert ks.decrypt_word(cword, 0x200, 0x104) != 0xDEADBEEF

    def test_nonce_separates_programs(self, cipher):
        a = EdgeKeystream(cipher, nonce=1)
        b = EdgeKeystream(cipher, nonce=2)
        assert a.keystream(0, 4) != b.keystream(0, 4)

    def test_keystream_memoized(self, cipher):
        ks = EdgeKeystream(cipher, nonce=7)
        ks.keystream(0, 4)
        ks.keystream(0, 4)
        ks.keystream(4, 8)
        assert ks.cache_size() == 2

    def test_rejects_wide_nonce(self, cipher):
        with pytest.raises(ValueError):
            EdgeKeystream(cipher, nonce=1 << 16)


class TestDeviceKeys:
    def test_from_seed_is_deterministic(self):
        assert DeviceKeys.from_seed(5) == DeviceKeys.from_seed(5)

    def test_three_keys_are_distinct(self):
        keys = DeviceKeys.from_seed(9)
        assert len({keys.k1, keys.k2, keys.k3}) == 3

    def test_cipher_instances_are_cached(self):
        keys = DeviceKeys.from_seed(1)
        assert keys.encryption_cipher is keys.encryption_cipher

    def test_rejects_oversized_key(self):
        with pytest.raises(ValueError):
            DeviceKeys(k1=1 << 80, k2=0, k3=0)

    def test_derive_key_label_separation(self):
        assert derive_key(1, "a") != derive_key(1, "b")

    def test_iteration_order(self):
        keys = DeviceKeys(k1=1, k2=2, k3=3)
        assert list(keys) == [1, 2, 3]

"""Tests for the RECTANGLE-80 block cipher.

Official vectors were unavailable offline (DESIGN.md), so these tests pin
down structural correctness: exact inversion, determinism, block/key-size
validation, avalanche behaviour and key sensitivity — the PRP properties
SOFIA's security argument relies on.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import rectangle
from repro.crypto.primitives import MASK64, hamming_weight
from repro.crypto.rectangle import (ROUNDS, Rectangle80, SBOX, SBOX_INV,
                                    round_constants)

BLOCKS = st.integers(min_value=0, max_value=MASK64)
KEYS = st.integers(min_value=0, max_value=(1 << 80) - 1)


class TestSbox:
    def test_sbox_is_a_permutation(self):
        assert sorted(SBOX) == list(range(16))

    def test_sbox_inverse_composes_to_identity(self):
        for x in range(16):
            assert SBOX_INV[SBOX[x]] == x
            assert SBOX[SBOX_INV[x]] == x

    def test_sbox_has_no_fixed_points(self):
        assert all(SBOX[x] != x for x in range(16))


class TestRoundConstants:
    def test_count_and_width(self):
        rcs = round_constants()
        assert len(rcs) == ROUNDS
        assert all(0 < rc < 32 for rc in rcs)

    def test_lfsr_period_covers_all_rounds_distinctly(self):
        rcs = round_constants()
        assert len(set(rcs)) == ROUNDS  # 5-bit maximal LFSR: 31 > 25 states


class TestCipher:
    def test_rejects_oversized_key(self):
        with pytest.raises(ValueError):
            Rectangle80(1 << 80)

    def test_rejects_negative_key(self):
        with pytest.raises(ValueError):
            Rectangle80(-1)

    def test_from_bytes_roundtrip(self):
        key = bytes(range(10))
        cipher = Rectangle80.from_bytes(key)
        assert cipher.key == int.from_bytes(key, "big")

    def test_from_bytes_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            Rectangle80.from_bytes(b"short")

    def test_encrypt_is_deterministic(self):
        cipher = Rectangle80(0x0123456789ABCDEF0123)
        assert cipher.encrypt(0xDEADBEEFCAFEF00D) == cipher.encrypt(0xDEADBEEFCAFEF00D)

    def test_encrypt_changes_the_block(self):
        cipher = Rectangle80(0)
        assert cipher.encrypt(0) != 0

    def test_two_instances_same_key_agree(self):
        a = Rectangle80(42)
        b = Rectangle80(42)
        assert a.encrypt(7) == b.encrypt(7)

    @given(key=KEYS, block=BLOCKS)
    @settings(max_examples=40, deadline=None)
    def test_decrypt_inverts_encrypt(self, key, block):
        cipher = Rectangle80(key)
        assert cipher.decrypt(cipher.encrypt(block)) == block

    @given(key=KEYS, block=BLOCKS)
    @settings(max_examples=20, deadline=None)
    def test_encrypt_inverts_decrypt(self, key, block):
        cipher = Rectangle80(key)
        assert cipher.encrypt(cipher.decrypt(block)) == block

    def test_injective_on_sample(self):
        cipher = Rectangle80(0xA5A5A5A5A5A5A5A5A5A5)
        outputs = {cipher.encrypt(i) for i in range(512)}
        assert len(outputs) == 512

    def test_single_bit_plaintext_avalanche(self):
        cipher = Rectangle80(0x13579BDF02468ACE1122)
        base = cipher.encrypt(0)
        total = 0
        for bit in range(64):
            total += hamming_weight(base ^ cipher.encrypt(1 << bit))
        average = total / 64
        assert 24 < average < 40  # ideal PRP: ~32 flipped bits

    def test_key_avalanche(self):
        base = Rectangle80(0).encrypt(0)
        flipped = 0
        for bit in range(0, 80, 8):
            flipped += hamming_weight(base ^ Rectangle80(1 << bit).encrypt(0))
        average = flipped / 10
        assert 24 < average < 40

    def test_different_keys_give_different_ciphertexts(self):
        assert Rectangle80(1).encrypt(99) != Rectangle80(2).encrypt(99)

    def test_round_key_count(self):
        cipher = Rectangle80(3)
        assert len(cipher._round_keys) == ROUNDS + 1


class TestTables:
    """The half-table build against the direct per-bit definitions."""

    def test_every_entry_matches_its_definition(self):
        rectangle._build_tables()
        sub16_inv = rectangle._sub16_inv()
        for x in range(1 << 16):
            bits = [(x >> i) & 1 for i in range(16)]
            nibbles = [(x >> (4 * i)) & 0xF for i in range(4)]
            assert rectangle._SPREAD[x] == sum(
                bit << (4 * i) for i, bit in enumerate(bits))
            assert rectangle._SUB16[x] == sum(
                SBOX[n] << (4 * i) for i, n in enumerate(nibbles))
            assert sub16_inv[x] == sum(
                SBOX_INV[n] << (4 * i) for i, n in enumerate(nibbles))
            for k in range(4):
                assert rectangle._GATHER[k][x] == sum(
                    bits[4 * nib + k] << nib for nib in range(4))

    def test_only_decryption_builds_the_inverse_table(self):
        """SOFIA runs RECTANGLE forward only (the CTR keystream and the
        CBC-MAC), so a process that never decrypts never pays for the
        inverse S-box table.  A fresh interpreter, as this one may have
        decrypted already."""
        code = ("from repro.crypto import rectangle\n"
                "cipher = rectangle.Rectangle80(5)\n"
                "block = cipher.encrypt(123)\n"
                "print(rectangle._SUB16_INV is None)\n"
                "assert cipher.decrypt(block) == 123\n"
                "print(rectangle._SUB16_INV is None)\n")
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(src)))
        assert done.stdout.split() == ["True", "False"], done.stderr

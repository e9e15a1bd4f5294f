"""PRESENT-80 tests (published vector) + cipher-agility of the stack."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import DeviceKeys, Present80, Rectangle80
from repro.crypto.present import PERMUTATION, PERMUTATION_INV, SBOX
from repro.hwmodel import cipher_ablation
from repro.isa import parse
from repro.sim import SofiaMachine
from repro.transform import ProtectionProfile, transform, verify_image

PRESENT = ProtectionProfile(cipher="present-80")
BLOCKS = st.integers(min_value=0, max_value=(1 << 64) - 1)
KEYS = st.integers(min_value=0, max_value=(1 << 80) - 1)


class TestPresentCipher:
    def test_published_test_vector(self):
        # Bogdanov et al., CHES 2007, Appendix: K=0^80, P=0^64
        assert Present80(0).encrypt(0) == 0x5579C1387B228445

    def test_all_ones_key_changes_output(self):
        ct = Present80((1 << 80) - 1).encrypt(0)
        assert ct != Present80(0).encrypt(0)

    def test_sbox_is_permutation(self):
        assert sorted(SBOX) == list(range(16))

    def test_bit_permutation_is_bijective(self):
        assert sorted(PERMUTATION) == list(range(64))
        for i in range(64):
            assert PERMUTATION_INV[PERMUTATION[i]] == i

    @given(key=KEYS, block=BLOCKS)
    @settings(max_examples=25, deadline=None)
    def test_decrypt_inverts_encrypt(self, key, block):
        cipher = Present80(key)
        assert cipher.decrypt(cipher.encrypt(block)) == block

    def test_rejects_oversized_key(self):
        with pytest.raises(ValueError):
            Present80(1 << 80)

    def test_differs_from_rectangle(self):
        assert Present80(123).encrypt(456) != Rectangle80(123).encrypt(456)


class TestCipherAgility:
    def test_whole_stack_runs_on_present(self):
        source = """
        main:
            li a0, 10
            call dbl
            li t0, 0xFFFF0004
            sw a0, 0(t0)
            halt
        dbl:
            add a0, a0, a0
            ret
        """
        keys = DeviceKeys.from_seed(9).for_profile(PRESENT)
        image = transform(parse(source), keys, nonce=4, profile=PRESENT)
        assert verify_image(image, keys) == []
        result = SofiaMachine(image, keys).run()
        assert result.ok and result.output_ints == [20]

    def test_wrong_cipher_family_fails(self):
        source = "main: li a0, 1\n halt\n"
        present_keys = DeviceKeys.from_seed(9).for_profile(PRESENT)
        rect_keys = DeviceKeys.from_seed(9)  # same key bits, other cipher
        image = transform(parse(source), present_keys, nonce=4,
                          profile=PRESENT)
        result = SofiaMachine(image, rect_keys).run()
        assert result.detected

    def test_tamper_detected_under_present(self):
        keys = DeviceKeys.from_seed(11).for_profile(PRESENT)
        image = transform(parse("main: li a0, 1\n halt\n"), keys, nonce=4,
                          profile=PRESENT)
        machine = SofiaMachine(image, keys)
        machine.memory.poke_code(image.code_base + 8, image.words[2] ^ 4)
        assert machine.run().detected


class TestCipherAblation:
    def test_rectangle_wins_at_the_design_point(self):
        choices = cipher_ablation()
        assert choices[0].cipher == "RECTANGLE-80"
        rectangle = choices[0]
        present = next(c for c in choices if c.cipher == "PRESENT-80")
        assert rectangle.clock_mhz > present.clock_mhz
        assert rectangle.unroll == 13
        assert present.unroll == 16

"""ProtectionProfile: codec, seal/unseal pair, and grid round-trips.

The profile refactor's contract has two halves, both pinned here:

* the **default** profile is bit-identical to the pre-profile toolchain
  (golden image hashes and run fingerprints captured from the seed
  state), and
* every **non-default** grid point (2 ciphers x {32,64,96}-bit seals x
  renonce policies) goes protect -> offline-verify -> serialize ->
  deserialize -> run and behaves exactly like the vanilla core.
"""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import DeviceKeys, Present80, Rectangle80, mac_stream, mac_words
from repro.errors import ImageError
from repro.isa import parse
from repro.sim import SofiaMachine, Status
from repro.sim.vanilla import VanillaMachine
from repro.isa.assembler import assemble
from repro.transform.profile import parse_profile_spec
from repro.transform import (DEFAULT_PROFILE, ProtectionProfile, SofiaImage,
                             profile_grid, seal_block, transform,
                             unseal_block, verify_image)

KEYS = DeviceKeys.from_seed(0x601D)

BRANCHY = """
main:
    li t0, 5
    li t1, 0
loop:
    add t1, t1, t0
    addi t0, t0, -1
    bne t0, zero, loop
    li t2, 0xFFFF0000
    sw t1, 0(t2)
    halt
"""

CALLS = """
main:
    li a0, 3
    call double
    call double
    li t2, 0xFFFF0000
    sw a0, 0(t2)
    halt
double:
    add a0, a0, a0
    jr ra
"""

#: sha256(image.to_bytes()), cycles, instructions, output — captured from
#: the pre-profile toolchain (PR 4 seed state); the default profile must
#: reproduce these bytes and fingerprints forever.
PRE_PROFILE_GOLDENS = {
    ("branchy", 6): ("2fe17020dddd2043ce599ff9c3095a924bc018f742cc4c73606fc9b9959f0c5a", 73, 26),
    ("branchy", 8): ("2373b5996253598383bc73ea5fdd6bea04b0481193cae599c7ecda2f37a2c189", 99, 41),
    ("calls", 6): ("f4d5642b03623245938a28cdbb3accf926c35c978ff0063c462c1be92efc756c", 58, 17),
    ("calls", 8): ("96bbab4905b8f2ae632092a1c5de602accfc3e7e1c50645bcbf8a9084f707292", 78, 26),
}
#: the same fingerprints for the non-default axes (cipher, seal width,
#: renonce policy, store scheduling, geometry under PRESENT), captured
#: from the toolchain that still carried the geometry-only config beside
#: the profile; keyed by (source, profile spec)
PROFILE_AXIS_GOLDENS = {
    ("branchy", "present-80:mac32:fixed"): ("c11c4fc3eb8393915ebb7f3d234d4ebf60bcae39e2383969be9f9b74c752069a", 102, 49),
    ("calls", "present-80:mac32:fixed"): ("5af54824f2996746780615740b5925ca06b4f6261183b727d1999a2324030f55", 79, 31),
    ("branchy", "rectangle-80:mac96"): ("90c4dd4e495eb2806bd4d868601146193f48016a29aee10021b26d1c61267b3a", 99, 33),
    ("calls", "rectangle-80:mac96"): ("96151b15c80c4f5f98e8243dc7149f3a14a7fb71ea894e7d19b1bdae5982019f", 78, 21),
    ("branchy", "sched"): ("0af62816ef080a7fa5497f623e8c2dd68e4984c7ac98288ad23b4ffac6f6fdf3", 99, 41),
    ("calls", "sched"): ("7e91a3e4c3c250a7d39cad4979f0dfa2ad4b4f229e9714821fe111f2b1ac2a18", 78, 26),
    ("branchy", "present-80:bw6"): ("b137cb959fb5653effdf3bd510e006f8e230aa91afae8f7f7bc4111013241cb5", 73, 26),
    ("calls", "present-80:bw6"): ("6f5364fb9c3129df97147ddbd389504ab4ff9f5015057971ff8cf5e7bd2d89cb", 58, 17),
}
SOURCES = {"branchy": BRANCHY, "calls": CALLS}

GRID = profile_grid()


class TestProfileValidation:
    def test_default_is_the_paper_design_point(self):
        assert DEFAULT_PROFILE.cipher == "rectangle-80"
        assert DEFAULT_PROFILE.mac_words == 2
        assert DEFAULT_PROFILE.mac_bits == 64
        assert DEFAULT_PROFILE.renonce == "sequential"
        assert DEFAULT_PROFILE.block_words == 8
        assert not DEFAULT_PROFILE.schedule_stores

    def test_unknown_cipher_rejected(self):
        with pytest.raises(ValueError, match="unknown cipher"):
            ProtectionProfile(cipher="des-56")

    def test_unsupported_seal_width_rejected(self):
        for mac_words_count in (0, 4, -1):
            with pytest.raises(ValueError, match="mac_words"):
                ProtectionProfile(mac_words=mac_words_count)

    def test_unknown_renonce_policy_rejected(self):
        with pytest.raises(ValueError, match="renonce"):
            ProtectionProfile(renonce="hourly")

    def test_geometry_must_fit_the_seal(self):
        # a 96-bit seal needs 3+1 mux words plus jmp + CTI room
        with pytest.raises(ValueError, match="block_words must be at "
                                             "least 6 for a 96-bit seal"):
            ProtectionProfile(mac_words=3, block_words=5)
        assert ProtectionProfile(mac_words=3, block_words=6)
        with pytest.raises(ValueError, match="block_words must be at "
                                             "least 5 for a 64-bit seal"):
            ProtectionProfile(block_words=4)

    def test_mac_counts_per_kind(self):
        profile = ProtectionProfile(mac_words=3)
        assert profile.mac_count("exec") == 3
        assert profile.mac_count("mux") == 4
        assert profile.exec_capacity == 5
        assert profile.mux_capacity == 4

    def test_fixed_policy_has_no_successor_nonce(self):
        fixed = ProtectionProfile(renonce="fixed")
        assert not fixed.supports_renonce
        with pytest.raises(ValueError):
            fixed.next_nonce(7)
        assert DEFAULT_PROFILE.next_nonce(7) == 8
        assert DEFAULT_PROFILE.next_nonce(0xFFFF) == 1


class TestProfileCodec:
    def test_default_packs_to_zero(self):
        assert DEFAULT_PROFILE.to_code() == 0
        assert ProtectionProfile.from_code(0, 8) == DEFAULT_PROFILE

    def test_round_trip_over_the_grid(self):
        variants = GRID + [
            ProtectionProfile(schedule_stores=True),
            ProtectionProfile(block_words=6),
            ProtectionProfile(cipher="present-80", mac_words=3,
                              renonce="fixed", schedule_stores=True,
                              block_words=6),
        ]
        for profile in variants:
            code = profile.to_code()
            assert ProtectionProfile.from_code(
                code, profile.block_words) == profile

    def test_codes_are_distinct(self):
        codes = {p.to_code() for p in GRID}
        assert len(codes) == len(GRID)

    def test_unknown_codes_rejected(self):
        with pytest.raises(ValueError):
            ProtectionProfile.from_code(1 << 7, 8)
        with pytest.raises(ValueError):
            ProtectionProfile.from_code(0x3 << 3, 8)  # bad seal-width code

    def test_label_round_trips_through_spec_parser(self):
        for profile in GRID + [ProtectionProfile(block_words=6,
                                                 schedule_stores=True)]:
            assert parse_profile_spec(profile.label) == profile


class TestMacStream:
    def test_two_words_match_the_paper_mac(self):
        cipher = Rectangle80(0x1234)
        message = [0xDEADBEEF, 0x12345678, 0x0BADF00D]
        assert mac_stream(cipher, message, 2) == mac_words(cipher, message)

    def test_truncation_is_a_prefix(self):
        cipher = Present80(0x99)
        message = [1, 2, 3, 4, 5]
        wide = mac_stream(cipher, message, 3)
        assert mac_stream(cipher, message, 1) == wide[:1]
        assert mac_stream(cipher, message, 2) == wide[:2]

    def test_widened_words_differ_and_are_message_sensitive(self):
        cipher = Rectangle80(0x42)
        wide_a = mac_stream(cipher, [1, 2, 3], 3)
        wide_b = mac_stream(cipher, [1, 2, 7], 3)
        assert wide_a != wide_b
        assert len(set(wide_a)) == 3  # extension words are fresh PRF output

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            mac_stream(Rectangle80(1), [1], 0)


class TestSealUnseal:
    @pytest.mark.parametrize("kind", ["exec", "mux"])
    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_seal_then_unseal_verifies(self, kind, width):
        payload = [0x11111111, 0x22222222, 0x33333333]
        sealed = seal_block(kind, payload, KEYS, width)
        header = width if kind == "exec" else width + 1
        assert len(sealed) == header + len(payload)
        if kind == "mux":
            assert sealed[0] == sealed[1]  # duplicated M1 entry pair
            fetched = [sealed[0]] + sealed[2:]
        else:
            fetched = sealed
        out_payload, stored, computed = unseal_block(kind, fetched, KEYS,
                                                     width)
        assert out_payload == payload
        assert stored == computed

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_tampered_payload_fails_unseal(self, width):
        payload = [5, 6, 7]
        sealed = seal_block("exec", payload, KEYS, width)
        sealed[-1] ^= 1
        _out, stored, computed = unseal_block("exec", sealed, KEYS, width)
        assert stored != computed

    def test_kinds_use_distinct_keys(self):
        payload = [9, 9, 9]
        assert (seal_block("exec", payload, KEYS, 2)[:2]
                != seal_block("mux", payload, KEYS, 2)[:1])


class TestKeysForProfile:
    def test_default_profile_is_identity(self):
        assert KEYS.for_profile(DEFAULT_PROFILE) is KEYS

    def test_rebinding_keeps_the_secrets(self):
        present = KEYS.for_profile(ProtectionProfile(cipher="present-80"))
        assert present.cipher_factory is Present80
        assert tuple(present) == tuple(KEYS)
        assert isinstance(present.encryption_cipher, Present80)


class TestDefaultProfileGoldens:
    """The default profile is bit-identical to the pre-profile toolchain."""

    @pytest.mark.parametrize("name,block_words",
                             sorted(PRE_PROFILE_GOLDENS))
    def test_image_bytes_and_run_fingerprint(self, name, block_words):
        digest, cycles, instructions = PRE_PROFILE_GOLDENS[(name, block_words)]
        image = transform(parse(SOURCES[name]), KEYS, nonce=0x2016,
                          profile=ProtectionProfile(block_words=block_words))
        assert hashlib.sha256(image.to_bytes()).hexdigest() == digest
        result = SofiaMachine(image, KEYS).run()
        assert result.ok
        assert (result.cycles, result.instructions) == (cycles, instructions)

    @pytest.mark.parametrize("name,spec", sorted(PROFILE_AXIS_GOLDENS))
    def test_every_profile_axis_is_pinned(self, name, spec):
        digest, cycles, instructions = PROFILE_AXIS_GOLDENS[(name, spec)]
        profile = parse_profile_spec(spec)
        keys = KEYS.for_profile(profile)
        image = transform(parse(SOURCES[name]), keys, nonce=0x2016,
                          profile=profile)
        assert hashlib.sha256(image.to_bytes()).hexdigest() == digest
        result = SofiaMachine(image, keys).run()
        assert result.ok
        assert (result.cycles, result.instructions) == (cycles, instructions)


class TestImageProfileEmbedding:
    def test_serialization_round_trips_the_profile(self):
        for profile in GRID:
            image = transform(parse(CALLS), KEYS, nonce=0x2016,
                              profile=profile)
            assert image.profile == profile
            back = SofiaImage.from_bytes(image.to_bytes())
            assert back.profile == profile

    def test_pre_profile_blob_decodes_to_default(self):
        image = transform(parse(CALLS), KEYS, nonce=0x2016)
        blob = bytearray(image.to_bytes())
        assert image.profile == DEFAULT_PROFILE
        back = SofiaImage.from_bytes(bytes(blob))
        assert back.profile == DEFAULT_PROFILE

    def test_geometry_lives_on_the_profile(self):
        image = SofiaImage(words=[0] * 12, code_base=0x1800, nonce=1,
                           entry=0x1800, data=b"", data_base=0x8000,
                           profile=ProtectionProfile(block_words=6))
        assert (image.block_words, image.block_bytes) == (6, 24)
        assert image.num_blocks == 2

    def test_misaligned_code_base_rejected(self):
        with pytest.raises(ImageError, match="not aligned"):
            SofiaImage(words=[0] * 8, code_base=4, nonce=1, entry=4,
                       data=b"", data_base=0x8000, profile=DEFAULT_PROFILE)

    def test_misaligned_header_rejected_on_load(self):
        blob = bytearray(transform(parse(CALLS), KEYS, nonce=4).to_bytes())
        blob[12:16] = (4).to_bytes(4, "big")  # the header's code_base
        with pytest.raises(ImageError, match="not aligned"):
            SofiaImage.from_bytes(bytes(blob))

    def test_cipher_comes_from_the_profile_not_the_keys(self):
        present_keys = DeviceKeys.from_seed(9).for_profile(
            ProtectionProfile(cipher="present-80"))
        image = transform(parse(CALLS), present_keys, nonce=4)
        assert image.profile == DEFAULT_PROFILE
        rectangle_keys = DeviceKeys.from_seed(9)
        assert image.to_bytes() == transform(
            parse(CALLS), rectangle_keys, nonce=4).to_bytes()
        # a device whose datapath is PRESENT cannot run the image
        assert SofiaMachine(image, present_keys).run().detected
        assert SofiaMachine(image, rectangle_keys).run().ok


@st.composite
def grid_profiles(draw):
    return draw(st.sampled_from(GRID))


class TestProfileGridRoundTrip:
    """protect -> decode -> verify -> run equivalence across the grid."""

    @settings(max_examples=24, deadline=None)
    @given(profile=grid_profiles(),
           source=st.sampled_from([BRANCHY, CALLS]),
           nonce=st.integers(min_value=1, max_value=0xFFFF))
    def test_end_to_end_equivalence(self, profile, source, nonce):
        program = parse(source)
        keys = KEYS.for_profile(profile)
        image = transform(program, keys, nonce=nonce, profile=profile)
        assert verify_image(image, KEYS) == []
        vanilla = VanillaMachine(assemble(program)).run()
        restored = SofiaImage.from_bytes(image.to_bytes())
        result = SofiaMachine(restored, keys).run()
        assert result.ok
        assert result.status is vanilla.status
        assert result.output_ints == vanilla.output_ints
        assert result.exit_code == vanilla.exit_code

    @settings(max_examples=12, deadline=None)
    @given(profile=grid_profiles())
    def test_single_bit_tamper_detected(self, profile):
        keys = KEYS.for_profile(profile)
        image = transform(parse(BRANCHY), keys, nonce=0x2016,
                          profile=profile)
        machine = SofiaMachine(image, keys)
        machine.memory.poke_code(image.code_base + 4, image.words[1] ^ 1)
        result = machine.run()
        assert result.status is Status.RESET
        assert result.violation.kind == "integrity"

    def test_wrong_device_cipher_detected_per_profile(self):
        profile = ProtectionProfile(cipher="present-80")
        image = transform(parse(CALLS), KEYS.for_profile(profile),
                          nonce=0x2016, profile=profile)
        # device provisioned with the default (RECTANGLE) datapath
        result = SofiaMachine(image, KEYS).run()
        assert result.detected

    def test_provisioned_profile_ignores_header_tampering(self):
        """A strict device fuses its check parameters at provisioning:
        flipping the header's seal-width field neither downgrades its
        checks nor breaks a legitimate image."""
        image = transform(parse(BRANCHY), KEYS, nonce=0x2016)
        blob = bytearray(image.to_bytes())
        # the profile u16 is header bytes 18-19 (big-endian); set the
        # seal-width code (bits 3-4 of the low byte) to 1 = 32-bit
        blob[19] |= 1 << 3
        tampered = SofiaImage.from_bytes(bytes(blob))
        assert tampered.profile.mac_words == 1
        # header-trusting device: the downgraded split garbles the checks
        assert SofiaMachine(tampered, KEYS).run().detected
        # provisioned device: the header axis is ignored, the image runs
        strict = SofiaMachine(tampered, KEYS, profile=DEFAULT_PROFILE)
        assert strict.run().ok

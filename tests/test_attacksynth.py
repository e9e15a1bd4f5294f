"""Attack-synthesis engine tests (ISSUE 4).

The adversarial property the package exists to prove: every mechanically
enumerated SI/CFI-violating mutation of a protected image is detected by
the SOFIA model, every provably-benign mutation leaves the run
bit-identical, and the whole sweep is deterministic at any worker count.
"""

import json

import pytest

from repro.attacksynth import (DetectionMatrix, enumerate_geometric,
                               enumerate_instances, run_attacksynth,
                               run_attacksynth_image, sealed_edges,
                               cti_sources)
from repro.attacksynth.campaign import _clean_sofia
from repro.attacksynth.classify import (materialize_image, observables,
                                        run_plain_instance,
                                        run_sofia_instance)
from repro.attacksynth.model import (EXPECT_BENIGN, EXPECT_DETECTED,
                                     EXPECT_EDGE_OK, OBS_DETECTED,
                                     OBS_SURVIVED_CLEAN, TARGET_SOFIA)
from repro.crypto.keys import DeviceKeys
from repro.errors import ImageError, TransformError
from repro.isa.assembler import assemble, parse
from repro.isa.encoding import decode
from repro.isa.instructions import Instruction, make_nop
from repro.runner import task_rng
from repro.sim.result import Status
from repro.sim.sofia import SofiaMachine
from repro.transform.encrypt import reseal_block
from repro.transform.profile import ProtectionProfile
from repro.transform.transformer import transform

KEY_SEED = 0x50F1A

VICTIM_ASM = """
main:
    li t0, 3
    li t1, 0
loop:
    addi t1, t1, 1
    blt t1, t0, loop
    call leaf
    li a1, 0xFFFF0004
    sw t1, 0(a1)
    halt
leaf:
    addi t2, t2, 5
    ret
dead:
    addi t3, t3, 1
    halt
"""


@pytest.fixture(scope="module")
def keys():
    return DeviceKeys.from_seed(KEY_SEED)


@pytest.fixture(scope="module")
def built(keys):
    program = parse(VICTIM_ASM)
    exe = assemble(program)
    image = transform(program, keys, nonce=0x2016)
    return exe, image


@pytest.fixture(scope="module")
def enumerated(built, keys):
    exe, image = built
    clean, traversed, _edges = _clean_sofia(image, keys)
    assert clean.ok
    rng = task_rng(1, "test-enum")
    instances = enumerate_instances(image, exe, keys, traversed, rng,
                                    KEY_SEED)
    return image, exe, clean, instances


class TestEnumeration:
    def test_sealed_edges_match_block_metadata(self, built):
        _exe, image = built
        edges = sealed_edges(image)
        expected = sum(len(r.entry_prev_pcs) for r in image.blocks)
        assert len(edges) == expected
        for prev, entry in edges:
            offset = (entry - image.code_base) % image.block_bytes
            assert offset in (0, 4, 8)

    def test_cti_sources_sit_in_final_slots(self, built):
        _exe, image = built
        sources = cti_sources(image)
        assert sources, "the victim has branches, calls and returns"
        for address in sources:
            assert (address - image.code_base) % image.block_bytes \
                == image.block_bytes - 4
            word = image.blocks[
                (address - image.code_base) // image.block_bytes].\
                plain_payload[-1]
            assert decode(word, address).is_cti

    def test_all_families_present(self, enumerated):
        _image, _exe, _clean, instances = enumerated
        families = {i.family for i in instances}
        assert {"bend", "bend-entry-offset", "replay", "stale-nonce",
                "inject-plain", "inject-enc",
                "forge-cti-slot"} <= families

    def test_enumeration_is_deterministic(self, built, keys):
        exe, image = built
        _clean, traversed, _edges = _clean_sofia(image, keys)
        first = enumerate_instances(image, exe, keys, traversed,
                                    task_rng(1, "det"), KEY_SEED)
        second = enumerate_instances(image, exe, keys, traversed,
                                     task_rng(1, "det"), KEY_SEED)
        assert first == second

    def test_plan_quotas_can_disable_any_family(self, built, keys):
        exe, image = built
        _clean, traversed, _edges = _clean_sofia(image, keys)
        instances = enumerate_instances(
            image, exe, keys, traversed, task_rng(1, "plan"), KEY_SEED,
            plan={"inject-plain": 0, "stale-nonce": 0,
                  "stale-nonce-benign": 0})
        families = {i.family for i in instances}
        assert "inject-plain" not in families
        assert "stale-nonce" not in families

    def test_geometric_enumeration_needs_no_metadata(self, built):
        _exe, image = built
        raw = type(image).from_bytes(image.to_bytes())
        assert not raw.blocks
        instances = enumerate_geometric(raw, task_rng(1, "geo"))
        assert instances
        assert all(i.expected is None for i in instances)


class TestVerdicts:
    def test_every_cfi_violating_instance_resets(self, enumerated, keys):
        image, _exe, clean, instances = enumerated
        clean_obs = observables(clean)
        attempts = 0
        for instance in instances:
            if instance.expected != EXPECT_DETECTED:
                continue
            attempts += 1
            outcome, _hij, _violation, _edge = run_sofia_instance(
                instance, materialize_image(instance, image, keys), keys,
                clean_obs)
            assert outcome == OBS_DETECTED, instance.description
        assert attempts >= 10

    def test_benign_mutations_are_bit_identical(self, enumerated, keys):
        image, _exe, clean, instances = enumerated
        clean_obs = observables(clean)
        benign = [i for i in instances if i.expected == EXPECT_BENIGN]
        assert benign, "the victim has unreachable-at-runtime blocks"
        for instance in benign:
            outcome, _hij, _violation, _edge = run_sofia_instance(
                instance, materialize_image(instance, image, keys), keys,
                clean_obs)
            assert outcome == OBS_SURVIVED_CLEAN, instance.description

    def test_sealed_edge_bends_pass_the_front_end(self, enumerated, keys):
        image, _exe, clean, instances = enumerated
        clean_obs = observables(clean)
        edges = [i for i in instances if i.expected == EXPECT_EDGE_OK]
        assert edges
        for instance in edges:
            _outcome, _hij, _violation, edge_ok = run_sofia_instance(
                instance, materialize_image(instance, image, keys), keys,
                clean_obs)
            assert edge_ok is True, instance.description

    def test_entry_injection_is_viable_against_vanilla(self, enumerated):
        """The pinned plaintext analogue: the gadget injected at the
        program entry must beat the undefended core."""
        from repro.sim.vanilla import VanillaMachine
        image, exe, _clean, instances = enumerated
        viable = [i for i in instances if i.expected_plain == "viable"]
        assert len(viable) == 1
        vanilla_clean = VanillaMachine(exe).run(max_instructions=20_000)
        outcome, hijack = run_plain_instance(
            viable[0], lambda: VanillaMachine(exe),
            observables(vanilla_clean))
        assert hijack, (outcome, viable[0].description)

    def test_forged_slot_abuse_hits_structural_checks(self, enumerated,
                                                      keys):
        image, _exe, clean, instances = enumerated
        clean_obs = observables(clean)
        kinds = {}
        for instance in instances:
            if not instance.family.startswith("forge-"):
                continue
            outcome, _hij, violation, _edge = run_sofia_instance(
                instance, materialize_image(instance, image, keys), keys,
                clean_obs)
            assert outcome == OBS_DETECTED
            kinds[instance.family] = violation
        # a validly-MACed forgery is caught by the *structural* hardware
        # checks, not by MAC verification
        assert kinds["forge-cti-slot"] == "structure"
        if "forge-store-slot" in kinds:
            assert kinds["forge-store-slot"] == "store-slot"


class TestMutationHooks:
    def test_with_words_validates_length(self, built):
        _exe, image = built
        with pytest.raises(ImageError):
            image.with_words(image.words[:-1])

    def test_block_words_at_validates_base(self, built):
        _exe, image = built
        with pytest.raises(ImageError):
            image.block_words_at(image.code_base + 4)
        with pytest.raises(ImageError):
            image.block_words_at(image.code_base + 4 * len(image.words))

    def test_replace_block_roundtrip(self, built):
        _exe, image = built
        base = image.code_base + image.block_bytes
        donor = image.block_words_at(image.code_base)
        mutated = image.replace_block_words(base, donor)
        assert mutated.block_words_at(base) == donor
        assert image.block_words_at(base) != donor  # original untouched

    def test_reseal_block_models_a_successful_forgery(self, built, keys):
        """A payload re-sealed with the real keys passes verification."""
        _exe, image = built
        entry_record = next(r for r in image.blocks
                            if r.base == image.block_base_of(image.entry))
        payload = [make_nop()] * (entry_record.capacity - 1) \
            + [Instruction("halt")]
        forged = reseal_block(image, entry_record, payload, keys)
        machine = SofiaMachine(
            image.replace_block_words(entry_record.base, forged), keys)
        result = machine.run(max_instructions=1000)
        assert result.status is Status.HALT  # MAC verified, block ran

    def test_reseal_block_checks_capacity(self, built, keys):
        _exe, image = built
        record = image.blocks[0]
        with pytest.raises(TransformError):
            reseal_block(image, record, [make_nop()], keys)


class TestCampaign:
    def test_small_campaign_is_clean_and_serializable(self, tmp_path):
        export = tmp_path / "synth.json"
        report = run_attacksynth(programs=3, seed=21,
                                 export_path=str(export))
        assert report.ok, report.render()
        assert report.instances > 20
        assert report.bounds().consistent
        record = json.loads(export.read_text())
        assert record["instances"] == report.instances
        assert record["anomalies"]["missed"] == []
        assert record["vanilla"]["successes"] > 0

    def test_per_program_cap(self):
        report = run_attacksynth(programs=2, seed=21, per_program=3)
        assert all(len(p.instances) <= 3 for p in report.programs)

    def test_baseline_targets_join_the_matrix(self):
        report = run_attacksynth(programs=2, seed=21,
                                 include_baselines=True)
        assert report.ok, report.render()
        targets = report.matrix().targets()
        assert "xor-isr" in targets and "ecb-isr" in targets

    def test_corpus_is_a_program_source(self, tmp_path):
        from repro.fuzz import run_fuzz
        corpus = tmp_path / "corpus"
        fuzz_report = run_fuzz(seeds=12, seed=9, corpus_dir=str(corpus))
        assert fuzz_report.ok
        report = run_attacksynth(programs=2, seed=21,
                                 corpus_dir=str(corpus))
        assert report.source == "corpus"
        assert report.ok, report.render()

    def test_image_mode_rejects_wrong_keys(self, built):
        """A reset clean run must become an error, never a matrix of
        perfect-looking detections."""
        _exe, image = built
        raw = type(image).from_bytes(image.to_bytes())
        report = run_attacksynth_image(raw, seed=5, key_seed=KEY_SEED + 1)
        assert not report.ok
        assert report.instances == 0
        assert any("clean run of the image failed" in error
                   for _label, error in report.build_errors)

    def test_empty_campaign_writes_no_artifacts(self, tmp_path):
        export = tmp_path / "empty.json"
        csv = tmp_path / "empty.csv"
        report = run_attacksynth(programs=1, seed=21, per_program=0,
                                 export_path=str(export),
                                 csv_path=str(csv))
        assert report.instances == 0
        assert not export.exists() and not csv.exists()

    def test_image_mode_is_observational(self, built, keys):
        _exe, image = built
        raw = type(image).from_bytes(image.to_bytes())
        report = run_attacksynth_image(raw, seed=5, key_seed=KEY_SEED)
        assert report.source == "image"
        assert report.instances > 0
        assert report.expected_counts()["unknown"] == report.instances
        # unknown expectations can produce no anomalies by definition
        assert not report.missed

    def test_matrix_csv_rows_are_schema_complete(self):
        from repro.eval.export import ATTACKSYNTH_CSV_HEADER
        matrix = DetectionMatrix()
        matrix.observe("bend", TARGET_SOFIA, OBS_DETECTED, hijacked=False)
        rows = matrix.csv_rows()
        assert rows and set(ATTACKSYNTH_CSV_HEADER) == set(rows[0])


class TestProfileAwareCampaigns:
    """E17 satellite: expected detection follows the image's real profile."""

    def test_truncated_seal_has_nonzero_expected_collisions(self):
        """Regression: the 32-bit profile's §IV-A expectation is small
        but *nonzero* — pinning that the bound cross-check reads the
        profile's mac_bits, not the 64-bit module constant."""
        profile = ProtectionProfile(mac_words=1)
        report = run_attacksynth(programs=2, seed=21, profile=profile)
        assert report.ok, report.render()
        bounds = report.bounds()
        assert bounds.mac_bits == 32
        assert bounds.attempts > 0
        assert bounds.expected == bounds.attempts * 2.0 ** -32
        assert bounds.expected > 0.0
        assert bounds.consistent  # 0 observed misses is within 3 sigma
        # the default-profile expectation at the same attempt count is
        # 2^32 times smaller — the constants genuinely diverged
        default = run_attacksynth(programs=2, seed=21)
        assert default.bounds().mac_bits == 64
        assert bounds.expected > default.bounds().expected

    def test_victims_are_sealed_under_the_campaign_profile(self, tmp_path):
        profile = ProtectionProfile(cipher="present-80", mac_words=1)
        export = tmp_path / "synth32.json"
        report = run_attacksynth(programs=2, seed=21, profile=profile,
                                 export_path=str(export))
        assert report.ok, report.render()
        record = json.loads(export.read_text())
        assert record["parameters"]["profile"] == profile.label
        assert record["bounds"]["mac_bits"] == 32

    def test_fixed_nonce_profile_enumerates_no_stale_replay(self):
        fixed = run_attacksynth(
            programs=2, seed=21,
            profile=ProtectionProfile(renonce="fixed"))
        assert fixed.ok, fixed.render()
        families = {result.family for program in fixed.programs
                    for result in program.instances}
        assert "stale-nonce" not in families
        rotating = run_attacksynth(programs=2, seed=21)
        rotating_families = {result.family
                            for program in rotating.programs
                            for result in program.instances}
        assert "stale-nonce" in rotating_families

    def test_image_mode_reads_the_embedded_profile(self, tmp_path):
        profile = ProtectionProfile(mac_words=3)
        keys = DeviceKeys.from_seed(KEY_SEED).for_profile(profile)
        image = transform(parse(VICTIM_ASM), keys, nonce=0x7777,
                          profile=profile)
        raw = type(image).from_bytes(image.to_bytes())
        report = run_attacksynth_image(raw, seed=5, key_seed=KEY_SEED)
        assert report.instances > 0
        assert report.profile == profile
        assert report.bounds().mac_bits == 96

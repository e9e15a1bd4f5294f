"""A program's attack instances share its crypto.

The attack-synthesis campaign builds only the instances it runs, shares
one keyed cipher per key across every key set, re-encrypts once per
program and new nonce, and does the cipher work of every instance's first traversal of what it
mutated across lanes before the instances run.  None of it may change a
single outcome: these tests pin each sharing step to the unshared
computation it replaces.
"""

import pytest

import repro.attacksynth.campaign as campaign
import repro.attacksynth.classify as classify
import repro.attacksynth.enumerate as enumerate_module
from repro.attacksynth import enumerate_instances
from repro.attacksynth.campaign import (_campaign_genomes, _clean_sofia,
                                        _sofia_instance_results)
from repro.attacksynth.classify import (materialize_image,
                                        materialize_images, observables,
                                        run_sofia_instance)
from repro.attacksynth.enumerate import ATTACKER_SEED_SALT
from repro.attacksynth.model import TARGET_SOFIA
from repro.crypto.keys import DeviceKeys
from repro.crypto.present import Present80
from repro.dse.grid import parse_profile_spec
from repro.errors import ReproError
from repro.fuzz.generators import generate
from repro.fuzz.oracle import build_program
from repro.isa.assembler import assemble
from repro.runner import task_rng
from repro.transform.image import SofiaImage
from repro.transform.transformer import transform

KEY_SEED = 0x5EA1ED
#: a plan that asks for more of the reseal-backed families than the
#: default, so a limit can fall between them
PLAN = {"bend": 2, "inject-enc": 2, "forge-store-slot": 1,
        "stale-nonce-benign": 2, "replay": 1}
RESEALED = ("inject-enc", "forge-store-slot", "forge-cti-slot")


def _programs(spec, count=3, seed=0xA77A00):
    """(image, exe, keys, clean observables, traversed bases, clean
    edges) of the campaign's first generated programs that seal under
    ``spec``."""
    profile = parse_profile_spec(spec)
    keys = DeviceKeys.from_seed(KEY_SEED).for_profile(profile)
    built = []
    for genome in _campaign_genomes(count, seed, None)[1]:
        try:
            program = build_program(generate(genome))
            image = transform(
                program, keys, nonce=genome.nonce,
                profile=profile.with_block_words(genome.block_words))
        except ReproError:
            continue  # a geometry the profile's seal does not fit
        clean, traversed, edges = _clean_sofia(image, keys)
        assert clean.ok
        built.append((image, assemble(program), keys, observables(clean),
                      traversed, edges))
    assert len(built) >= 2, spec
    return built


def _enumerate(program, index, plan=None, **kwargs):
    image, exe, keys, _obs, traversed, _edges = program
    return enumerate_instances(image, exe, keys, traversed,
                               task_rng(7, "sharing", index), KEY_SEED,
                               plan, **kwargs)


class TestLazyEnumeration:
    @pytest.mark.parametrize("spec, plan", [
        ("rectangle-80", None), ("rectangle-80", PLAN),
        ("present-80", None), ("rectangle-80:mac32:fixed", PLAN)],
        ids=["default", "plan", "present-80", "fixed-nonce"])
    def test_limit_keeps_the_full_prefix(self, spec, plan):
        for index, program in enumerate(_programs(spec)):
            full = _enumerate(program, index, plan)
            for limit in range(len(full) + 2):
                assert (_enumerate(program, index, plan, limit=limit)
                        == full[:limit]), (spec, index, limit)

    def test_dropped_instances_are_never_built(self, monkeypatch):
        reseals, seeds = [], []
        real_reseal = enumerate_module.reseal_block

        def counting_reseal(*args, **kwargs):
            reseals.append(args)
            return real_reseal(*args, **kwargs)

        class CountingKeys:
            @staticmethod
            def from_seed(seed, *args):
                seeds.append(seed)
                return DeviceKeys.from_seed(seed, *args)

        monkeypatch.setattr(enumerate_module, "reseal_block",
                            counting_reseal)
        monkeypatch.setattr(enumerate_module, "DeviceKeys", CountingKeys)
        for index, program in enumerate(_programs("rectangle-80")):
            full = _enumerate(program, index, PLAN)
            assert {"inject-enc", "forge-cti-slot"} <= {
                i.family for i in full}
            for limit in range(len(full) + 1):
                reseals.clear()
                seeds.clear()
                kept = _enumerate(program, index, PLAN, limit=limit)
                families = [i.family for i in kept]
                assert len(reseals) == sum(families.count(f)
                                           for f in RESEALED)
                assert seeds == ([KEY_SEED ^ ATTACKER_SEED_SALT]
                                 if "inject-enc" in families else [])


class TestSharedCrypto:
    def test_equal_key_sets_share_ciphers(self):
        first, second = DeviceKeys.from_seed(3), DeviceKeys.from_seed(3)
        for name in ("encryption_cipher", "exec_mac_cipher",
                     "mux_mac_cipher"):
            assert getattr(first, name) is getattr(second, name)
        profile = parse_profile_spec("present-80")
        present = first.for_profile(profile)
        assert isinstance(present.encryption_cipher, Present80)
        assert present.encryption_cipher is not first.encryption_cipher
        assert (second.for_profile(profile).exec_mac_cipher
                is present.exec_mac_cipher)
        other = DeviceKeys.from_seed(4)
        assert other.encryption_cipher is not first.encryption_cipher
        # one key under both MAC roles is still one keyed cipher
        same = DeviceKeys(k1=first.k1, k2=first.k1, k3=first.k3)
        assert same.exec_mac_cipher is first.encryption_cipher

    def test_stale_instances_share_one_reencrypt(self, monkeypatch):
        calls = []
        real = classify.reencrypt

        def counting(*args, **kwargs):
            calls.append(args[2])
            return real(*args, **kwargs)

        monkeypatch.setattr(classify, "reencrypt", counting)
        most = 0
        for index, program in enumerate(_programs("rectangle-80", 4)):
            image, _exe, keys = program[:3]
            instances = _enumerate(program, index, PLAN)
            stale = [i for i in instances if i.renonce is not None]
            most = max(most, len(stale))
            calls.clear()
            shared = materialize_images(instances, image, keys)
            assert calls == [stale[0].renonce]
            renonced = {id(mutated.front_end)
                        for instance, mutated in zip(instances, shared)
                        if instance.renonce is not None}
            assert len(renonced) == 1
            for instance, mutated in zip(instances, shared):
                alone = materialize_image(instance, image, keys)
                assert (mutated.words, mutated.nonce) == (alone.words,
                                                          alone.nonce)
        assert most >= 2


class TestLanes:
    @pytest.mark.parametrize("spec", [
        "rectangle-80:mac32", "rectangle-80:mac64", "rectangle-80:mac96",
        "present-80"])
    def test_outcomes_equal_memo_less_runs(self, spec):
        for index, program in enumerate(_programs(spec, count=2)):
            image, _exe, keys, clean_obs, _traversed, edges = program
            instances = _enumerate(program, index)
            shared = _sofia_instance_results(instances, image, keys,
                                             clean_obs, edges)
            for instance, (result, hijacked) in zip(instances, shared):
                raw = SofiaImage.from_bytes(
                    materialize_image(instance, image, keys).to_bytes())
                assert raw.front_end is None
                alone = run_sofia_instance(instance, raw, keys, clean_obs)
                assert (result.outcomes[TARGET_SOFIA], hijacked,
                        result.violation, result.edge_ok) == alone, (
                    spec, instance.name)

    @pytest.mark.parametrize("spec", ["rectangle-80", "present-80:mac32"])
    def test_instance_runs_compute_no_seal(self, spec, monkeypatch):
        # every MAC an instance's run checks was computed in a lane
        # beforehand: the shared seal plane never grows during a run
        grown = []
        real = campaign.run_sofia_instance

        def watching(instance, mutated, keys, clean, *args, **kwargs):
            seal = mutated.front_end.seal
            before = len(seal)
            outcome = real(instance, mutated, keys, clean, *args, **kwargs)
            grown.append((instance.name, len(seal) - before))
            return outcome

        monkeypatch.setattr(campaign, "run_sofia_instance", watching)
        for index, program in enumerate(_programs(spec)):
            image, _exe, keys, clean_obs, _traversed, edges = program
            instances = _enumerate(program, index, PLAN)
            _sofia_instance_results(instances, image, keys, clean_obs,
                                    edges)
        assert len(grown) >= 30
        assert [entry for entry in grown if entry[1]] == []

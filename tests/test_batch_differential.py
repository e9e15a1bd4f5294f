"""Differential suite for the bit-sliced batch strategies (PR 2 style).

Four layers, each held to byte-identity against its scalar twin:

* **bit-slice primitives** — transpose involution and pack/unpack
  round-trips (Hypothesis properties), the bit-sliced RECTANGLE-80 and
  PRESENT-80 circuits lane-for-lane against the scalar ciphers
  (including PRESENT's published test vector through the batch path),
  and ``batch_mac_stream`` against the scalar ``mac_stream``;
* **warmed front end** — a machine warmed by ``warm_front_end``, and an
  instance machine that ``adopt_caches`` from such a donor, match a cold
  machine in every ``ExecutionResult`` field, on every E17 profile grid
  point and on tampered, resealed and renonce'd images;
* **lockstep leader** — ``LockstepLeader.fork_at(t)`` reproduces the
  state a fresh scalar machine reaches after ``t`` instructions, and a
  forked specimen that diverges (fault injection) classifies exactly
  like the scalar :func:`~repro.faults.campaign.run_fault`;
* **peel-off/merge** — ``run_fault_batch`` returns, in submission
  order, results field-for-field identical to per-specimen scalar runs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import DeviceKeys
from repro.crypto.bitslice import (WIDTH, batch_mac_stream, bitsliced_for,
                                   encrypt_batch, pack_planes,
                                   transpose_bits, unpack_planes)
from repro.crypto.cbcmac import mac_stream
from repro.crypto.present import Present80
from repro.crypto.rectangle import Rectangle80
from repro.faults.campaign import run_fault, run_fault_batch, sample_faults
from repro.isa import assemble
from repro.sim import SofiaMachine
from repro.sim.batch import (LockstepLeader, adopt_caches, fork_machine,
                             warm_front_end)
from repro.transform import transform
from repro.transform.profile import profile_grid
from repro.transform.renonce import rotate_nonce
from repro.workloads import make_workload

KEYS = DeviceKeys.from_seed(0xBEEF2016)
NONCE = 0x2016

_BUILDS = {}


def build(name):
    if name not in _BUILDS:
        workload = make_workload(name, "tiny")
        program = workload.compile().program
        _BUILDS[name] = (workload, assemble(program),
                         transform(program, KEYS, nonce=NONCE))
    return _BUILDS[name]


def result_fields(result):
    return (result.status, result.cycles, result.instructions,
            result.exit_code, result.icache.hits, result.icache.misses,
            result.blocks_executed, result.mac_fetch_cycles,
            result.output_ints, result.output_text, result.trap_reason,
            str(result.violation) if result.violation else None)


# --- bit-slice primitives --------------------------------------------------

class TestTransposeAndPacking:
    @given(x=st.integers(min_value=0, max_value=(1 << (64 * 64)) - 1))
    @settings(max_examples=50, deadline=None)
    def test_transpose_is_an_involution(self, x):
        assert transpose_bits(transpose_bits(x)) == x

    @given(blocks=st.lists(st.integers(min_value=0,
                                       max_value=(1 << 64) - 1),
                           min_size=1, max_size=WIDTH))
    @settings(max_examples=50, deadline=None)
    def test_pack_unpack_round_trip(self, blocks):
        planes = pack_planes(blocks)
        assert len(planes) == 64
        assert unpack_planes(planes, len(blocks)) == blocks

    def test_plane_bit_layout(self):
        # lane j of plane b is bit b of block j
        blocks = [1 << 5, 0, 1 << 5 | 1]
        planes = pack_planes(blocks)
        assert planes[5] == 0b101
        assert planes[0] == 0b100


class TestBitslicedCiphers:
    @pytest.mark.parametrize("cipher_cls,key", [
        (Rectangle80, 0x00001234_5678_9ABC_DEF0),
        (Present80, 0x0000FFFF_0000_FFFF_0000),
    ], ids=["rectangle", "present"])
    @pytest.mark.parametrize("lanes", [1, 3, WIDTH, 100])
    def test_lane_for_lane_vs_scalar(self, cipher_cls, key, lanes):
        cipher = cipher_cls(key)
        blocks = [(0x0123456789ABCDEF * (i + 1)) & ((1 << 64) - 1)
                  for i in range(lanes)]
        assert encrypt_batch(cipher, blocks) == [
            cipher.encrypt(b) for b in blocks]

    def test_present_published_vector_through_batch(self):
        # PRESENT-80 K=0, P=0 -> 5579C1387B228445 (Bogdanov et al.)
        cipher = Present80(0)
        assert encrypt_batch(cipher, [0] * 7)[3] == 0x5579C1387B228445

    def test_unknown_cipher_returns_none(self):
        class Weird:
            key = 1
        assert bitsliced_for(Weird()) is None


class TestBatchMacStream:
    @pytest.mark.parametrize("nwords,count", [(1, 2), (4, 2), (5, 3),
                                              (6, 1)])
    def test_matches_scalar_mac_stream(self, nwords, count):
        cipher = Rectangle80(0xACE0_FACE_CAFE_F00D_1234)
        payloads = [tuple((0x1111_2222 * (i + j + 1)) & 0xFFFFFFFF
                          for j in range(nwords)) for i in range(17)]
        batch = batch_mac_stream(cipher, payloads, count)
        for payload, mac in zip(payloads, batch):
            assert mac == mac_stream(cipher, list(payload), count)


# --- warmed front end ------------------------------------------------------

def warmed(image, keys):
    machine = SofiaMachine(image, keys)
    warm_front_end(machine)
    return machine


class TestWarmFrontEndParity:
    @pytest.mark.parametrize("name", ["sort", "rle"])
    def test_warmed_equals_cold(self, name):
        workload, _, image = build(name)
        warm, cold = warmed(image, KEYS), SofiaMachine(image, KEYS)
        wr, cr = warm.run(), cold.run()
        assert result_fields(wr) == result_fields(cr)
        assert warm.state.regs == cold.state.regs
        assert warm.state.pc == cold.state.pc
        assert warm.memory.ram == cold.memory.ram
        assert wr.output_ints == workload.expected_output

    @pytest.mark.parametrize("profile", profile_grid(),
                             ids=lambda p: p.label)
    def test_every_profile_grid_point(self, profile):
        workload = make_workload("sort", "tiny")
        program = workload.compile().program
        keys = KEYS.for_profile(profile)
        image = transform(program, keys, nonce=NONCE, profile=profile)
        wr = warmed(image, keys).run()
        cr = SofiaMachine(image, keys).run()
        assert result_fields(wr) == result_fields(cr)
        assert wr.output_ints == workload.expected_output

    def test_warm_front_end_is_observationally_invisible(self):
        _, _, image = build("sort")
        warmed = SofiaMachine(image, KEYS)
        edges = warm_front_end(warmed)
        assert edges > 0
        # warming is idempotent: everything is already in the memos
        assert warm_front_end(warmed) == 0
        cold = SofiaMachine(image, KEYS)
        assert result_fields(warmed.run()) == result_fields(cold.run())


class TestAdoptCaches:
    """The attack-synthesis strategy: instance machines adopt a warmed
    clean machine's pure memos and still classify exactly like cold
    machines, whatever the instance did to the image."""

    @staticmethod
    def instance(donor, image):
        machine = SofiaMachine(image, KEYS)
        adopt_caches(machine, donor)
        return machine

    def test_shares_pure_memos_only(self):
        _, _, image = build("sort")
        donor = warmed(image, KEYS)
        same = self.instance(donor, image)
        assert same.keystream._cache is donor.keystream._cache
        assert same._mac_cache is donor._mac_cache
        assert same._block_cache is not donor._block_cache
        # a renonce'd image decrypts under a different nonce: its
        # keystream must never come from the donor
        renonced = self.instance(donor, rotate_nonce(image, KEYS))
        assert renonced.keystream._cache is not donor.keystream._cache

    @pytest.mark.parametrize("mutation", ["clean", "tamper", "renonce"])
    def test_instance_equals_cold(self, mutation):
        _, _, image = build("sort")
        donor = warmed(image, KEYS)
        donor.run()
        target = image
        if mutation == "tamper":
            words = list(image.words)
            words[1] ^= 1 << 7   # inside the entry block: always fetched
            target = image.with_words(words)
        elif mutation == "renonce":
            target = rotate_nonce(image, KEYS)
        adopted, cold = self.instance(donor, target), SofiaMachine(target,
                                                                   KEYS)
        ar, cr = adopted.run(), cold.run()
        assert result_fields(ar) == result_fields(cr)
        assert adopted.state.regs == cold.state.regs
        if mutation == "tamper":
            assert cr.status.name == "RESET"
        else:
            assert cr.ok


# --- lockstep leader and peel-off ------------------------------------------

class TestLockstepLeader:
    @pytest.mark.parametrize("trigger", [0, 1, 7, 123, 999])
    def test_fork_matches_fresh_scalar_run(self, trigger):
        _, _, image = build("sort")
        leader = LockstepLeader(image, KEYS)
        fork = leader.fork_at(trigger)
        fresh = SofiaMachine(image, KEYS)
        if trigger:
            fresh.run(max_instructions=trigger)
        assert fork.state.regs == fresh.state.regs
        assert fork.state.pc == fresh.state.pc
        assert fork.prev_pc == fresh.prev_pc
        assert result_fields(fork.run()) == result_fields(fresh.run())

    def test_ascending_stints_reach_every_state(self):
        _, _, image = build("rle")
        leader = LockstepLeader(image, KEYS)
        for trigger in (3, 10, 64, 500):
            fork = leader.fork_at(trigger)
            fresh = SofiaMachine(image, KEYS)
            fresh.run(max_instructions=trigger)
            assert (fork.state.regs, fork.state.pc, fork.prev_pc) == (
                fresh.state.regs, fresh.state.pc, fresh.prev_pc)

    def test_fork_is_independent_of_the_leader(self):
        _, _, image = build("sort")
        leader = LockstepLeader(image, KEYS)
        fork = leader.fork_at(50)
        # running the fork to completion must not advance the leader
        executed = leader.executed
        fork.run()
        assert leader.executed == executed
        # a second fork at the same trigger still matches the trigger
        # state — the completed fork mutated only its own copies
        again = leader.fork_at(50)
        fresh = SofiaMachine(image, KEYS)
        fresh.run(max_instructions=50)
        assert again.state.regs == fresh.state.regs

    def test_diverged_fork_keeps_its_own_block_cache(self):
        _, _, image = build("sort")
        leader = LockstepLeader(image, KEYS)
        fork = leader.fork_at(30)
        # tampering the fork's code must not leak into the leader's run
        fork.memory.poke_code(image.code_base + 8, image.words[2] ^ 1)
        leader_fork = leader.fork_at(30)
        assert leader_fork.memory.code == SofiaMachine(image,
                                                       KEYS).memory.code


class TestPeelOffMerge:
    def test_run_fault_batch_matches_scalar(self):
        workload, _, image = build("sort")
        golden = SofiaMachine(image, KEYS).run(200_000)
        assert golden.ok
        faults = sample_faults(image, golden.instructions, per_model=4,
                               seed=123)
        scalar = [run_fault(image, KEYS, f, golden.output_ints,
                            max_instructions=200_000) for f in faults]
        batch = run_fault_batch(image, KEYS, faults, golden.output_ints,
                                max_instructions=200_000)
        assert len(scalar) == len(batch)
        for a, b in zip(scalar, batch):
            assert (a.fault, a.model, a.outcome, a.description, a.status,
                    a.detail) == (b.fault, b.model, b.outcome,
                                  b.description, b.status, b.detail)

    def test_fork_machine_is_byte_exact(self):
        _, _, image = build("rle")
        source = SofiaMachine(image, KEYS)
        source.run(max_instructions=40)
        clone = fork_machine(source)
        assert clone.state.regs == source.state.regs
        assert clone.state.regs is not source.state.regs
        assert clone.memory.ram == source.memory.ram
        assert clone.memory.ram is not source.memory.ram
        assert clone.icache._tags == source.icache._tags
        assert result_fields(clone.run()) == result_fields(
            fork_machine(source).run())

"""Differential suite for the bit-sliced batch strategies (PR 2 style).

Four layers, each held to byte-identity against its scalar twin:

* **bit-slice primitives** — transpose involution and pack/unpack
  round-trips (Hypothesis properties), the bit-sliced RECTANGLE-80 and
  PRESENT-80 circuits lane-for-lane against the scalar ciphers
  (including PRESENT's published test vector through the batch path),
  and ``batch_mac_stream`` against the scalar ``mac_stream``;
* **image front-end memo** — a machine that adopts the keystream and
  seal memos ``seal`` left on the image matches a machine on the same
  image with the memo removed in every ``ExecutionResult`` field, its
  registers and RAM, on every E17 profile grid point and on wrong-key,
  renonce'd, strict-profile, tampered, spliced and pickled cases; the
  batched ``seal`` writes the words of a scalar per-word reference seal;
* **golden-trace forks** — ``GoldenTrace.fork_at(t)`` reproduces the
  state a fresh scalar machine reaches after ``t`` instructions (every
  checkpoint count -1/+0/+1, the golden end and past it; the default
  design point, PRESENT-80 with 32-bit seals and a golden run that writes
  code), from a recorded trace and from one pickled and rebuilt
  (``GoldenTrace.warm``), and a fork's tampering never reaches the trace;
* **peel-off/merge** — ``run_fault_batch`` returns, in submission
  order, results field-for-field identical to per-specimen scalar runs.
"""

import pickle
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.crypto import DeviceKeys
from repro.crypto.bitslice import (WIDTH, batch_mac_stream, bitsliced_for,
                                   encrypt_batch, pack_planes,
                                   transpose_bits, unpack_planes)
from repro.crypto.cbcmac import mac_stream
from repro.crypto.ctr import EdgeKeystream
from repro.crypto.present import Present80
from repro.crypto.rectangle import Rectangle80
from repro.faults.campaign import run_fault, run_fault_batch, sample_faults
from repro.isa import assemble, parse
from repro.sim import SofiaMachine, Status, fused
from repro.sim.batch import GoldenTrace
from repro.transform import prepare, transform, word_prev_pcs
from repro.transform.encrypt import block_mac_cipher, encode_block_payload
from repro.transform.image import SofiaImage
from repro.transform.profile import profile_grid
from repro.transform.renonce import reencrypt, rotate_nonce
from repro.workloads import make_workload

from test_equivalence import assembly_programs

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


def fresh_image(name):
    """A newly sealed image, whose memo holds only what ``seal`` put
    there (the cached ``build`` images share theirs across tests)."""
    return transform(make_workload(name, "tiny").compile().program, KEYS,
                     nonce=NONCE)


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
        assert planes >> (64 * 64) == 0
        assert unpack_planes(planes, len(blocks)) == blocks

    def test_plane_bit_layout(self):
        # lane j of plane b (bits [64*b, 64*b + 64)) is bit b of block j
        blocks = [1 << 5, 0, 1 << 5 | 1]
        planes = pack_planes(blocks)
        assert (planes >> (64 * 5)) & ((1 << 64) - 1) == 0b101
        assert planes & ((1 << 64) - 1) == 0b100
        assert planes == (0b101 << (64 * 5)) | 0b100


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

    @pytest.mark.parametrize("cipher_cls", [Rectangle80, Present80],
                             ids=["rectangle", "present"])
    def test_chunks_below_the_crossover_run_scalar(self, cipher_cls,
                                                   monkeypatch):
        cipher = cipher_cls(0x0000FFFF_0000_FFFF_1234)
        engine = bitsliced_for(cipher)
        sliced = engine.encrypt_batch
        lanes = []
        monkeypatch.setattr(engine, "encrypt_batch",
                            lambda blocks: lanes.append(len(blocks))
                            or sliced(blocks))
        crossover = engine.min_lanes
        assert 1 < crossover <= WIDTH
        blocks = [(0x9E3779B97F4A7C15 * (i + 1)) & ((1 << 64) - 1)
                  for i in range(WIDTH + crossover - 1)]
        assert encrypt_batch(cipher, blocks) == [
            cipher.encrypt(b) for b in blocks]
        assert lanes == [WIDTH]      # the narrow tail chunk ran scalar
        lanes.clear()
        encrypt_batch(cipher, blocks[:crossover])
        encrypt_batch(cipher, blocks[:crossover - 1])
        assert lanes == [crossover]

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


# --- image front-end memo --------------------------------------------------

def cleared(image):
    """The same image without its front-end memo: a machine on it starts
    from empty keystream and seal memos, like a deserialized image."""
    return replace(image, front_end=None)


def assert_same_machine_run(memo_machine, cold_machine):
    mr, cr = memo_machine.run(), cold_machine.run()
    assert result_fields(mr) == result_fields(cr)
    assert memo_machine.state.regs == cold_machine.state.regs
    assert memo_machine.state.pc == cold_machine.state.pc
    assert memo_machine.memory.ram == cold_machine.memory.ram
    return cr


class TestFrontEndMemoParity:
    @pytest.mark.parametrize("name", ["sort", "rle"])
    def test_memo_equals_cold(self, name):
        workload, _, image = build(name)
        cr = assert_same_machine_run(SofiaMachine(image, KEYS),
                                     SofiaMachine(cleared(image), KEYS))
        assert cr.output_ints == workload.expected_output

    @pytest.mark.parametrize("profile", profile_grid(),
                             ids=lambda p: p.label)
    def test_every_profile_grid_point(self, profile):
        workload = make_workload("sort", "tiny")
        program = workload.compile().program
        keys = KEYS.for_profile(profile)
        image = transform(program, keys, nonce=NONCE, profile=profile)
        cr = assert_same_machine_run(SofiaMachine(image, keys),
                                     SofiaMachine(cleared(image), keys))
        assert cr.output_ints == workload.expected_output

    def test_image_memo_is_observationally_invisible(self):
        image = fresh_image("sort")
        memo = image.front_end
        # seal computed every sealed word's keystream and every block's
        # seal; a machine adopts both planes instead of recomputing
        assert len(memo.keystream) >= len(image.words) > 0
        assert {payload for _kind, payload in memo.seal} == {
            record.plain_payload for record in image.blocks}
        machine = SofiaMachine(image, KEYS)
        assert machine.keystream._cache is memo.keystream
        assert machine._mac_cache is memo.seal
        sizes = (len(memo.keystream), len(memo.seal))
        assert_same_machine_run(machine, SofiaMachine(cleared(image), KEYS))
        # a clean run only traverses sealed edges: nothing left to compute
        assert (len(memo.keystream), len(memo.seal)) == sizes

    def test_memo_is_not_part_of_the_image_value(self):
        _, _, image = build("sort")
        bare = cleared(image)
        assert bare == image
        assert bare.to_bytes() == image.to_bytes()
        assert repr(bare) == repr(image)
        assert SofiaImage.from_bytes(image.to_bytes()).front_end is None


class TestMemoAdoption:
    """Tag safety: a machine adopts a memo plane only when it was
    computed under the machine's own keys, nonce and seal width, and
    every case runs byte-identically to the memo-less image."""

    def test_shares_pure_memos_only(self):
        _, _, image = build("sort")
        first, second = SofiaMachine(image, KEYS), SofiaMachine(image, KEYS)
        assert second.keystream._cache is first.keystream._cache
        assert second._mac_cache is first._mac_cache
        assert second._block_cache is not first._block_cache
        copy = SofiaMachine(image.with_words(image.words), KEYS)
        assert copy.keystream._cache is first.keystream._cache
        # a renonce'd image decrypts under a different nonce: it carries
        # its own keystream plane and shares only the seal plane
        renonced = SofiaMachine(rotate_nonce(image, KEYS), KEYS)
        assert renonced.keystream._cache is not first.keystream._cache
        assert renonced._mac_cache is first._mac_cache

    def test_memo_less_image_gets_one_attached(self):
        _, _, image = build("sort")
        bare = cleared(image)
        first = SofiaMachine(bare, KEYS)
        assert bare.front_end is not None
        assert not bare.front_end.keystream and not bare.front_end.seal
        first.run()
        mutated = bare.with_words(bare.words)
        later = SofiaMachine(mutated, KEYS)
        assert later.keystream._cache is first.keystream._cache
        assert later.keystream.cache_size() > 0

    def test_wrong_key_device_starts_empty(self):
        _, _, image = build("sort")
        wrong = DeviceKeys.from_seed(0xBAD)
        machine = SofiaMachine(image, wrong)
        assert machine.keystream._cache is not image.front_end.keystream
        assert machine._mac_cache is not image.front_end.seal
        cr = assert_same_machine_run(machine,
                                     SofiaMachine(cleared(image), wrong))
        assert cr.status.name == "RESET"
        assert cr.violation.kind == "integrity"

    def test_wrong_key_memo_never_reaches_the_right_device(self):
        _, _, image = build("sort")
        bare = cleared(image)
        SofiaMachine(bare, DeviceKeys.from_seed(0xBAD)).run()
        right = SofiaMachine(bare, KEYS)
        assert right.keystream._cache is not bare.front_end.keystream
        assert right._mac_cache is not bare.front_end.seal
        assert assert_same_machine_run(
            right, SofiaMachine(cleared(image), KEYS)).ok

    @pytest.mark.parametrize("renonce", ["reencrypt", "rotate_nonce"])
    def test_renonced_image(self, renonce):
        _, _, image = build("sort")
        if renonce == "reencrypt":
            target = reencrypt(image, KEYS, NONCE ^ 0x5A5A)
        else:
            target = rotate_nonce(image, KEYS)
        memo = target.front_end
        assert memo.keystream_tag[-1] == target.nonce
        assert len(memo.keystream) >= len(target.words)
        assert target.to_bytes() == reencrypt(
            cleared(image), KEYS, target.nonce).to_bytes()
        assert assert_same_machine_run(
            SofiaMachine(target, KEYS),
            SofiaMachine(cleared(target), KEYS)).ok

    def test_tampered_header_nonce(self):
        # the memo travels with the words, but its keystream plane only
        # holds the sealed nonce's words: a header naming another nonce
        # must decrypt (and fail) with that nonce's keystream
        _, _, image = build("sort")
        target = replace(image, nonce=image.nonce ^ 1)
        assert target.front_end is image.front_end
        machine = SofiaMachine(target, KEYS)
        assert machine.keystream._cache is not image.front_end.keystream
        cr = assert_same_machine_run(machine,
                                     SofiaMachine(cleared(target), KEYS))
        assert cr.status.name == "RESET"

    @pytest.mark.parametrize("mac_words", [1, 3])
    def test_strict_profile_with_another_seal_width(self, mac_words):
        # the downgrade case: hardware whose fused seal width differs
        # from the image's must never read seals of the image's width
        _, _, image = build("sort")
        strict = replace(image.profile, mac_words=mac_words)
        machine = SofiaMachine(image, KEYS, profile=strict)
        assert machine._mac_cache is not image.front_end.seal
        cr = assert_same_machine_run(
            machine, SofiaMachine(cleared(image), KEYS, profile=strict))
        assert cr.status.name == "RESET"

    @pytest.mark.parametrize("mutation", ["with_words", "replace_block"])
    def test_attack_mutations(self, mutation):
        _, _, image = build("sort")
        if mutation == "with_words":
            words = list(image.words)
            words[1] ^= 1 << 7   # inside the entry block: always fetched
            target = image.with_words(words)
        else:
            # splice the entry block over the second block
            target = image.replace_block_words(
                image.code_base + image.block_bytes,
                image.block_words_at(image.code_base))
        assert target.front_end is image.front_end
        cr = assert_same_machine_run(SofiaMachine(target, KEYS),
                                     SofiaMachine(cleared(target), KEYS))
        if mutation == "with_words":
            assert cr.status.name == "RESET"

    def test_pickled_image(self):
        # fault-campaign workers receive the image through initargs
        _, _, image = build("sort")
        restored = pickle.loads(pickle.dumps(image))
        assert restored.front_end.keystream == image.front_end.keystream
        machine = SofiaMachine(restored, KEYS)
        assert machine.keystream._cache is restored.front_end.keystream
        assert machine._mac_cache is restored.front_end.seal
        assert assert_same_machine_run(
            machine, SofiaMachine(cleared(restored), KEYS)).ok


def scalar_seal_words(program, keys, nonce, profile):
    """A per-word reference seal: one scalar ``mac_stream`` per block
    and one ``EdgeKeystream.encrypt_word`` per word."""
    layout = prepare(program, profile=profile)
    stream = EdgeKeystream(keys.encryption_cipher, nonce)
    words = []
    for block in layout.blocks:
        kind = block.kind.value
        payload = encode_block_payload(block)
        macs = list(mac_stream(block_mac_cipher(keys, kind), payload,
                               profile.mac_words))
        plain = (macs if kind == "exec" else [macs[0]] + macs) + payload
        prevs = word_prev_pcs(block, layout.entry_prev_pcs(block))
        words.extend(stream.encrypt_word(word, prev, block.base + 4 * j)
                     for j, (word, prev) in enumerate(zip(plain, prevs)))
    return words


class TestBatchedSealDifferential:
    @given(source=assembly_programs(),
           profile=st.sampled_from(profile_grid()),
           nonce=st.integers(0, 0xFFFF))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_batched_seal_matches_scalar_seal(self, source, profile, nonce):
        program = parse(source)
        keys = KEYS.for_profile(profile)
        image = transform(program, keys, nonce=nonce, profile=profile)
        assert image.words == scalar_seal_words(program, keys, nonce,
                                                profile)


# --- golden-trace forks and peel-off ---------------------------------------

#: a golden run that writes code: it calls ``body``, corrupts a word every
#: path into ``body`` fetches, spins across checkpoints, restores the word
#: and calls ``body`` from another site, so the final block cache holds a
#: block the checkpoints' code makes stale; ``{body}`` is its sealed address
CODE_WRITER = """
main:
    li s0, {body}
    lw s1, 28(s0)
    li t0, 0
    li t1, 20
first:
    call body
    addi t0, t0, 1
    blt t0, t1, first
    xori s2, s1, 1
    sw s2, 28(s0)
    li t0, 0
    li t1, 2000
spin:
    addi t0, t0, 1
    blt t0, t1, spin
    sw s1, 28(s0)
    li t0, 0
    li t1, 300
again:
    call body
    addi t0, t0, 1
    blt t0, t1, again
    li t2, 0xFFFF0004
    sw a0, 0(t2)
    halt
body:
    addi a0, a0, 1
    ret
"""

#: the E17 design point away from the paper's: PRESENT-80, 32-bit seals
PRESENT = next(p for p in profile_grid()
               if p.cipher == "present-80" and p.mac_words == 1
               and p.renonce == "sequential")

_FORK_CASES = {}


def fork_case(design):
    """``(image, keys, trace)`` for one fork design point."""
    if design not in _FORK_CASES:
        keys = KEYS
        if design == "default":
            image = fresh_image("crc32")
        elif design == "present":
            keys = KEYS.for_profile(PRESENT)
            image = transform(make_workload("sort", "tiny").compile().program,
                              keys, nonce=NONCE, profile=PRESENT)
        else:
            # seal once to learn where ``body`` lands, then for real
            probe = transform(parse(CODE_WRITER.format(body=4)), KEYS,
                              nonce=NONCE)
            image = transform(parse(CODE_WRITER.format(
                body=probe.symbols["body"])), KEYS, nonce=NONCE)
            assert image.symbols == probe.symbols
        _FORK_CASES[design] = (image, keys,
                               GoldenTrace.record(image, keys, 200_000))
    return _FORK_CASES[design]


def machine_state(machine):
    memory, icache = machine.memory, machine.icache
    mmio = memory.mmio
    return (list(machine.state.regs), machine.state.pc, machine.prev_pc,
            list(memory.code), bytes(memory.ram),
            (list(mmio.chars), list(mmio.ints), list(mmio.words),
             list(mmio.actuator), mmio.exit_code),
            list(icache._tags), icache.stats.hits, icache.stats.misses)


def fresh_run(image, keys, trigger):
    """A fresh machine run for ``trigger`` instructions, and its count."""
    machine = SofiaMachine(image, keys)
    return machine, machine.run(max_instructions=trigger).instructions


def fork_triggers(trace):
    """0, every checkpoint count -1, +0 and +1, the golden end and past."""
    end = trace.result.instructions
    return sorted({0, end, end + 1000}.union(
        *({count - 1, count, count + 1} for count in trace.counts)))


class TestGoldenFork:
    @pytest.mark.parametrize("design", ["default", "present",
                                        "code-writer"])
    def test_fork_at_matches_a_fresh_run(self, design):
        image, keys, trace = fork_case(design)
        assert trace.result.ok and len(trace.checkpoints) >= 4
        for trigger in fork_triggers(trace):
            fork, absolute = trace.fork_at(image, keys, trigger)
            fresh, executed = fresh_run(image, keys, trigger)
            assert absolute == executed, trigger
            assert machine_state(fork) == machine_state(fresh), trigger
            assert result_fields(fork.run()) == result_fields(
                fresh.run()), trigger

    @pytest.mark.parametrize("design", ["default", "present",
                                        "code-writer"])
    def test_a_loaded_trace_forks_like_the_recorded_one(self, design):
        image, keys, trace = fork_case(design)
        payload = pickle.dumps(replace(trace))  # as recorded
        trace.fork_at(image, keys, trace.counts[-1])
        # a store entry's bytes do not depend on what the trace has done
        assert pickle.dumps(trace) == payload
        loaded = pickle.loads(payload)
        assert loaded == trace and loaded.blocks == {}
        assert pickle.dumps(loaded) == payload
        loaded.warm(image, keys)
        # the blocks a fork keeps, each with the region it carries
        kept = {key for key, _region in trace.block_edges}
        assert set(loaded.blocks) == kept <= set(trace.blocks)
        for key in kept:
            recorded, rebuilt = trace.blocks[key], loaded.blocks[key]
            assert rebuilt.payload == recorded.payload
            sources = [None if block.region is None
                       else block.region.fn.__fused_source__
                       for block in (recorded, rebuilt)]
            assert sources[0] == sources[1], key
        for trigger in fork_triggers(trace):
            fork, absolute = loaded.fork_at(image, keys, trigger)
            fresh, executed = fresh_run(image, keys, trigger)
            assert absolute == executed, trigger
            assert machine_state(fork) == machine_state(fresh), trigger
            assert result_fields(fork.run()) == result_fields(
                fresh.run()), trigger

    def test_code_writer_restores_a_code_diff_and_drops_stale_blocks(self):
        image, keys, trace = fork_case("code-writer")
        [word] = trace.written
        address = image.code_base + 4 * word
        corrupted = [c for c in trace.checkpoints if word in c.code]
        assert corrupted and trace.checkpoints[-1].code == {}
        # a block the final cache verified against the restored word
        stale = [key for key, block in trace.blocks.items()
                 if address in block.fetch_addresses]
        assert stale
        for checkpoint in corrupted:
            fork, _ = trace.fork_at(image, keys, checkpoint.instructions)
            fresh, _ = fresh_run(image, keys, checkpoint.instructions)
            assert fork.memory.code[word] == checkpoint.code[word]
            assert not set(stale) & set(fork._block_cache)
            # glitch both into the stale edge: the corrupted word must
            # fail its MAC on the fork exactly as on the fresh machine
            for machine in (fork, fresh):
                machine.prev_pc, machine.state.pc = stale[0]
            expected = fresh.run()
            assert expected.status is Status.RESET
            assert result_fields(fork.run()) == result_fields(expected)

    def test_forks_are_independent_of_the_trace(self):
        image, keys, trace = fork_case("default")
        trigger = trace.counts[1] + 7
        fork, _ = trace.fork_at(image, keys, trigger)
        # tampering with a fork and running it to completion must leave
        # the trace as it was: the next fork still matches a fresh run
        fork.memory.poke_code(image.code_base + 8, image.words[2] ^ 1)
        fork.state.regs[5] ^= 1
        fork.run()
        again, _ = trace.fork_at(image, keys, trigger)
        fresh, _ = fresh_run(image, keys, trigger)
        assert machine_state(again) == machine_state(fresh)

    def test_a_copy_shares_no_block_with_its_trace(self, monkeypatch):
        image, keys, trace = fork_case("default")
        group = trace.copy()
        assert group.blocks.keys() == trace.blocks.keys()
        assert not {id(block) for block in group.blocks.values()} & {
            id(block) for block in trace.blocks.values()}
        before = [(block.predecoded, block.region)
                  for block in trace.blocks.values()]
        cold = [key for key, block in group.blocks.items()
                if block.region is None]
        assert cold
        # a hook-less fork on the compiled tier compiles onto the copy only
        monkeypatch.setattr(fused, "COMPILE_THRESHOLD", 1)
        fork, _ = group.fork_at(image, keys, trace.counts[0])
        fork.run()
        assert any(group.blocks[key].region is not None for key in cold)
        assert [(block.predecoded, block.region)
                for block in trace.blocks.values()] == before

    def test_pickled_trace_forks_without_its_blocks(self):
        image, keys, trace = fork_case("default")
        assert any(block.region is not None
                   for block in trace.blocks.values())
        shipped = pickle.loads(pickle.dumps(trace))
        assert shipped.blocks == {}
        assert shipped == trace
        faults = sample_faults(image, trace.result.instructions,
                               per_model=3, seed=321)
        golden = trace.result.output_ints
        fields = [(r.fault, r.model, r.outcome, r.description, r.status,
                   r.detail) for r in run_fault_batch(
                       image, keys, faults, golden, trace, 200_000)]
        assert fields == [(r.fault, r.model, r.outcome, r.description,
                           r.status, r.detail) for r in run_fault_batch(
                               image, keys, faults, golden, shipped,
                               200_000)]


class TestPeelOffMerge:
    def test_run_fault_batch_matches_scalar(self):
        workload, _, image = build("sort")
        trace = GoldenTrace.record(image, KEYS, 200_000)
        golden = trace.result
        assert golden.ok
        faults = sample_faults(image, golden.instructions, per_model=4,
                               seed=123)
        scalar = [run_fault(image, KEYS, f, golden.output_ints,
                            max_instructions=200_000) for f in faults]
        batch = run_fault_batch(image, KEYS, faults, golden.output_ints,
                                trace, max_instructions=200_000)
        assert len(scalar) == len(batch)
        for a, b in zip(scalar, batch):
            assert (a.fault, a.model, a.outcome, a.description, a.status,
                    a.detail) == (b.fault, b.model, b.outcome,
                                  b.description, b.status, b.detail)

    def test_groups_leave_the_golden_blocks_as_they_came(self, monkeypatch):
        # likewise for the golden blocks forks adopt: recorded on the
        # interpreted tier they carry no handler, and what a group's forks
        # then compile onto them on the compiled tier stays with the group
        image = fresh_image("sort")
        monkeypatch.setattr(fused, "COMPILE_THRESHOLD", 1 << 62)
        trace = GoldenTrace.record(image, KEYS, 200_000)
        monkeypatch.setattr(fused, "COMPILE_THRESHOLD", 1)
        golden = trace.result

        def compiled():
            return any(block.region for block in trace.blocks.values())

        faults = sample_faults(image, golden.instructions, per_model=4,
                               seed=123)
        run_fault_batch(image, KEYS, faults, golden.output_ints, trace,
                        max_instructions=200_000)
        assert not compiled()
        # the same specimens forked off the trace itself do compile there
        for fault in faults:
            machine, start = trace.fork_at(image, KEYS,
                                           fault.trigger_instructions)
            fault.inject(machine)
            trace.resume(machine, start, 200_000)
        assert compiled()

    def test_groups_leave_the_image_memo_as_it_came(self):
        # what one lockstep group's specimens add to the memo must not
        # reach the next group in the same process: that keeps the
        # telemetry memo counters the same at any --jobs
        image = fresh_image("sort")
        trace = GoldenTrace.record(image, KEYS, 200_000)
        golden = trace.result
        faults = sample_faults(image, golden.instructions, per_model=4,
                               seed=123)
        memo = image.front_end
        sizes = (len(memo.keystream), len(memo.seal))
        run_fault_batch(image, KEYS, faults, golden.output_ints, trace,
                        max_instructions=200_000)
        assert (len(memo.keystream), len(memo.seal)) == sizes
        # the same specimens run per specimen do add entries to it
        for fault in faults:
            run_fault(image, KEYS, fault, golden.output_ints,
                      max_instructions=200_000)
        assert (len(memo.keystream), len(memo.seal)) != sizes

"""Per-program planes and idle loops, each held to the reference oracle.

Two planes let a machine reuse what another machine of the same program
already computed on the same words:

* the verified-block plane of an image's
  :class:`~repro.transform.image.FrontEndMemo`: (prev_pc, entry_pc,
  ciphertext words at the block's fetch addresses) -> the verified block,
  tagged by keys, nonce, profile, timing and image layout;
* the step plane of an :class:`~repro.isa.program.Executable`: (word, pc)
  -> (instruction, predecoded step), one per timing, shared by the
  vanilla core and the ISR baselines (keyed by the decrypted word).

Every case builds its hazard on a machine that found a warm plane and
locks the run against the oracle: the reference engine on a memo-less
copy of the image (or the reference vanilla loop), whose planes start
empty.  Compared are the result fields, cycles, I-cache statistics,
``blocks_executed``, ``mac_fetch_cycles``, the PC (and ``prev_pc``),
every register and all of data RAM, after every stint of 1, 7 and the
whole run.

The last cases cover idle loops: a compiled vanilla run whose direct CTI
targets its own start loops inside its call while a whole iteration fits
the budget, so every budget must stop it exactly where the oracle stops,
including a load that traps on a later iteration.
"""

import pickle
import random
from dataclasses import replace

import pytest

import repro.sim.fused as fused
from repro import obs
from repro.attacksynth.campaign import _campaign_genomes, _clean_sofia
from repro.attacksynth.classify import SOFIA_BUDGET
from repro.baselines.isr import EcbIsrMachine, XorIsrMachine
from repro.crypto import DeviceKeys
from repro.faults.campaign import run_fault_batch
from repro.faults.models import CodeBitFlip, FetchGlitch
from repro.fuzz.generators import generate
from repro.fuzz.oracle import build_program
from repro.isa import parse
from repro.isa.assembler import assemble_text
from repro.isa.encoding import encode
from repro.isa.instructions import Instruction
from repro.isa.program import DATA_BASE
from repro.isa.registers import ALIASES
from repro.obs import Telemetry
from repro.sim import (LEON3_MINIMAL_TIMING, GoldenTrace, SofiaMachine,
                       Status, VanillaMachine)
from repro.transform import transform
from repro.transform.profile import DEFAULT_PROFILE
from repro.transform.renonce import rotate_nonce

KEYS = DeviceKeys.from_seed(0x91A4E)
NONCE = 0x2016

#: the budget stints of the lockstep: single blocks or runs, a few, and
#: the whole run in one call
STINTS = (1, 7, 50_000_000)

#: a counted loop, its output, and a function no run calls (its blocks
#: are never fetched)
PROGRAM = """
main:
    li t0, 0
    li t1, 9
    li a0, 0
loop:
    addi a0, a0, 3
    addi t0, t0, 1
    bne t0, t1, loop
    li t2, 0xFFFF0004
    sw a0, 0(t2)
    halt
dead:
    addi a0, a0, 7
    addi a1, a1, 1
    addi a2, a2, 2
    addi a3, a3, 3
    addi a4, a4, 4
    addi a5, a5, 5
    halt
"""


def build(source=PROGRAM):
    return transform(parse(source), KEYS, nonce=NONCE)


def memo_less(image):
    """``image`` without its memo: the oracle's machine starts with
    empty planes of its own."""
    return replace(image, front_end=None)


def oracle(image, keys=KEYS, **kwargs):
    return SofiaMachine(memo_less(image), keys, engine="reference",
                        **kwargs)


def observe(machine, result):
    return (result.status, result.cycles, result.instructions,
            result.exit_code, result.icache.hits, result.icache.misses,
            result.blocks_executed, result.mac_fetch_cycles,
            result.output_ints, result.trap_reason,
            str(result.violation) if result.violation else None,
            machine.state.pc, getattr(machine, "prev_pc", None),
            tuple(machine.state.regs), bytes(machine.memory.ram))


def lockstep(ref, fast, stint, events=()):
    """Run both machines in budget stints of ``stint`` until the run
    ends, comparing after every stint; ``events`` are ``(count, action)``
    pairs applied to both machines once they executed ``count``
    instructions.  Returns the last result."""
    events = sorted(events, key=lambda event: event[0])
    executed = 0
    while True:
        if events and executed >= events[0][0]:
            events.pop(0)[1](ref, fast)
            continue
        budget = stint if not events else min(stint,
                                              events[0][0] - executed)
        expected = ref.run(budget)
        result = fast.run(budget)
        assert observe(fast, result) == observe(ref, expected), \
            f"after {executed} instructions, stint {budget}"
        executed += expected.instructions
        if expected.status is not Status.LIMIT:
            return expected


def warm(image, keys=KEYS, **kwargs):
    """A finished fast run of ``image``: its blocks are in the plane."""
    machine = SofiaMachine(image, keys, **kwargs)
    machine.run(SOFIA_BUDGET)
    return machine


def fetched(machine):
    return {address for block in machine._block_cache.values()
            for address in block.fetch_addresses}


def flip(image, address, bit=0):
    words = list(image.words)
    words[(address - image.code_base) // 4] ^= 1 << bit
    return image.with_words(words)


def loop_word(image):
    """The last word of the block holding ``loop``: every entry path of
    the block fetches it."""
    return (image.block_base_of(image.symbols["loop"])
            + image.block_bytes - 4)


# -- the verified-block plane -----------------------------------------------

class TestBlockPlane:
    @pytest.mark.parametrize("stint", STINTS)
    def test_a_clean_rerun_adopts_every_block(self, stint, tier):
        image = build()
        first = warm(image)
        second = SofiaMachine(image, KEYS)
        assert second._verified is first._verified
        result = lockstep(oracle(image), second, stint)
        assert result.ok and result.output_ints == [27]
        for key, block in second._block_cache.items():
            assert block is first._block_cache[key]

    @pytest.mark.parametrize("stint", STINTS)
    def test_wrong_key_device(self, stint, tier):
        image = build()
        right = warm(image)
        wrong = DeviceKeys.from_seed(0xBAD)
        machine = SofiaMachine(image, wrong)
        assert machine._verified is not right._verified
        assert not machine._verified
        result = lockstep(oracle(image, wrong), machine, stint)
        assert result.violation.kind == "integrity"
        assert not {id(block) for block in machine._verified.values()} & {
            id(block) for block in right._verified.values()}

    @pytest.mark.parametrize("stint", STINTS)
    def test_renonced_image(self, stint, tier):
        image = build()
        first = warm(image)
        renonced = rotate_nonce(image, KEYS)
        machine = SofiaMachine(renonced, KEYS)
        assert machine._verified is not first._verified
        assert lockstep(oracle(renonced), machine, stint).ok

    @pytest.mark.parametrize("stint", STINTS)
    def test_strict_profile_with_another_seal_width(self, stint, tier):
        image = build()
        first = warm(image)
        strict = replace(image.profile, mac_words=3)
        machine = SofiaMachine(image, KEYS, profile=strict)
        assert machine._verified is not first._verified
        result = lockstep(oracle(image, profile=strict), machine, stint)
        assert result.status is Status.RESET

    @pytest.mark.parametrize("stint", STINTS)
    def test_another_timing(self, stint, tier):
        # predecoded blocks and compiled regions carry cycle costs and
        # the I-cache geometry, so a machine with other timing must not
        # adopt them
        image = build()
        first = warm(image)
        machine = SofiaMachine(image, KEYS, LEON3_MINIMAL_TIMING)
        assert machine._verified is not first._verified
        assert lockstep(oracle(image, timing=LEON3_MINIMAL_TIMING),
                        machine, stint).ok

    @pytest.mark.parametrize("stint", STINTS)
    def test_mutated_word_outside_every_fetched_block(self, stint, tier):
        image = build()
        first = warm(image)
        address = image.symbols["dead"]
        assert address not in fetched(first)
        target = flip(image, address)
        machine = SofiaMachine(target, KEYS)
        assert lockstep(oracle(target), machine, stint).output_ints == [27]
        # every block came from the plane: the words it fetches are equal
        for key, block in machine._block_cache.items():
            assert block is first._block_cache[key]

    @pytest.mark.parametrize("stint", STINTS)
    def test_mutated_word_inside_a_shared_block(self, stint, tier):
        image = build()
        first = warm(image)
        address = loop_word(image)
        target = flip(image, address)
        machine = SofiaMachine(target, KEYS)
        result = lockstep(oracle(target), machine, stint)
        assert result.violation.kind == "integrity"
        for key, block in machine._block_cache.items():
            shared = block is first._block_cache.get(key)
            assert shared == (address not in block.fetch_addresses)

    @pytest.mark.parametrize("stint", STINTS)
    def test_code_write_after_adoption(self, stint, tier):
        image = build()
        warm(image)
        address = loop_word(image)

        def poke(ref, fast):
            for machine in (ref, fast):
                word = machine.memory.fetch_word(address)
                machine.memory.poke_code(address, word ^ 1)

        result = lockstep(oracle(image), SofiaMachine(image, KEYS), stint,
                          events=[(12, poke)])
        assert result.violation.kind == "integrity"

    # under "regions" every machine starts from a warm block cache, which
    # already holds the failing block: the comparator is never asked
    @pytest.mark.parametrize("tier", ["compiled", "interpreted"],
                             indirect=True)
    @pytest.mark.parametrize("stint", STINTS)
    def test_force_accepted_block_is_never_published(self, stint, tier):
        image = build()
        target = flip(image, loop_word(image))
        machine = SofiaMachine(target, KEYS)
        machine.verify_skip_budget = 1
        ref = oracle(target)
        ref.verify_skip_budget = 1
        result = lockstep(ref, machine, stint)
        assert result.violation.kind == "integrity"
        assert machine.verify_skip_budget == 0
        tampered = [block for block in machine._verified.values()
                    if loop_word(image) in block.fetch_addresses]
        assert tampered and not any(block.ok for block in tampered)
        # a later machine on the same words resets where a fresh device
        # does: the one-shot acceptance left nothing behind
        result = lockstep(oracle(target), SofiaMachine(target, KEYS), stint)
        assert result.violation.kind == "integrity"

    @pytest.mark.parametrize("tier", ["compiled", "interpreted"],
                             indirect=True)
    @pytest.mark.parametrize("stint", STINTS)
    def test_glitched_comparator_on_a_failing_block_from_the_plane(
            self, stint, tier):
        image = build()
        target = flip(image, loop_word(image))
        failing = SofiaMachine(target, KEYS)
        failed = failing.run(SOFIA_BUDGET)
        assert failed.violation.kind == "integrity"
        machine = SofiaMachine(target, KEYS)
        machine.verify_skip_budget = 1
        ref = oracle(target)
        ref.verify_skip_budget = 1
        result = lockstep(ref, machine, stint)
        # the comparator accepted the plane's failing block once and the
        # run went past where the unglitched run reset
        assert machine.verify_skip_budget == 0
        if stint == STINTS[-1]:
            assert result.instructions > failed.instructions
        for key, block in machine._block_cache.items():
            assert block is failing._block_cache.get(key, block)

    def test_pickled_image_drops_the_plane(self, tier):
        image = build()
        warm(image)
        assert image.front_end.blocks
        restored = pickle.loads(pickle.dumps(image))
        assert restored.front_end.blocks == {}
        assert restored.front_end.keystream == image.front_end.keystream
        assert restored == image
        assert lockstep(oracle(restored), SofiaMachine(restored, KEYS),
                        STINTS[-1]).ok

    def test_a_memo_copy_holds_no_blocks(self):
        image = build()
        warm(image)
        copy = image.front_end.copy()
        assert copy.blocks == {}
        assert copy.keystream == image.front_end.keystream


class TestFaultGroupPlanes:
    """A fault group verifies onto its own memo copy, so what an earlier
    group published never reaches a later one: a group's counters do not
    depend on which groups its process ran before."""

    def _counters(self, groups):
        """The counters of running ``groups`` one after another on a
        fresh image; a group lists fault factories, each called with the
        address of ``loop``."""
        image = build()
        trace = GoldenTrace.record(image, KEYS, 10_000)
        loop = image.symbols["loop"]
        telemetry = Telemetry()
        with obs.campaign(telemetry, "planes", {}):
            for group in groups:
                faults = [make(loop) for make in group]
                run_fault_batch(image, KEYS, faults, [27], trace,
                                max_instructions=10_000)
        return dict(telemetry.metrics.counters)

    def test_a_group_costs_the_same_after_an_equal_group(self):
        group = [
            lambda loop: CodeBitFlip(trigger_instructions=4, address=loop,
                                     bit=3),
            lambda loop: FetchGlitch(trigger_instructions=8,
                                     address=loop + 4),
            lambda loop: CodeBitFlip(trigger_instructions=6,
                                     address=loop + 4, bit=2)]
        alone = self._counters([group])
        assert alone["sim.keystream.words"] > 0
        # the second group verifies the same faulted words as the first
        assert self._counters([group, group]) == {
            name: 2 * value for name, value in alone.items()}


class TestCleanRunTraversal:
    """The clean attack-synthesis run reads its traversed bases off its
    verified blocks; they equal what a commit hook collects."""

    @pytest.mark.parametrize("campaign_seed", [0xA77A00, 0xA77A05])
    def test_traversed_bases_equal_the_hooked_set(self, campaign_seed):
        keys = DeviceKeys.from_seed(0xBEEF2016).for_profile(DEFAULT_PROFILE)
        _source, genomes = _campaign_genomes(4, campaign_seed, None)
        for genome in genomes:
            image = transform(
                build_program(generate(genome)), keys, nonce=genome.nonce,
                profile=DEFAULT_PROFILE.with_block_words(genome.block_words))
            hooked = SofiaMachine(memo_less(image), keys)
            traversed = set()
            hooked.on_commit = lambda pc, _instr: traversed.add(
                image.block_base_of(pc))
            expected = hooked.run(SOFIA_BUDGET)
            result, bases, _edges = _clean_sofia(image, keys)
            assert result.ok and expected.ok
            assert bases == traversed, genome


# -- the vanilla step plane -------------------------------------------------

COUNTER = """
main:
    li t0, 0
    li t1, 6
    li a0, 0
loop:
    addi a0, a0, 5
    addi t0, t0, 1
    blt t0, t1, loop
    li t2, 0xFFFF0004
    sw a0, 0(t2)
    halt
"""


def vanilla_pair(exe, make=VanillaMachine, *args):
    return make(exe, *args, engine="reference"), make(exe, *args)


class TestStepPlane:
    @pytest.mark.parametrize("stint", STINTS)
    def test_poked_word_is_another_key(self, stint, tier):
        exe = assemble_text(COUNTER)
        first = VanillaMachine(exe)
        assert first.run().output_ints == [30]
        loop = exe.symbol("loop")
        a0 = ALIASES["a0"]
        poked = encode(Instruction("addi", rd=a0, rs1=a0, imm=9))

        def poke(ref, fast):
            for machine in (ref, fast):
                machine.memory.poke_code(loop, poked)

        ref, fast = vanilla_pair(exe)
        assert fast._plane is first._plane
        result = lockstep(ref, fast, stint, events=[(5, poke)])
        assert result.ok and result.output_ints != [30]
        assert (poked, loop) in fast._plane
        assert (exe.word_at(loop), loop) in fast._plane

    @pytest.mark.parametrize("make,key", [(XorIsrMachine, 0x1234ABCD),
                                          (EcbIsrMachine, 0x77)],
                             ids=["xor", "ecb"])
    @pytest.mark.parametrize("stint", STINTS)
    def test_isr_baselines_share_the_plain_plane(self, make, key, stint,
                                                 tier):
        exe = assemble_text(COUNTER)
        plain = VanillaMachine(exe)
        plain.run()
        ref, fast = vanilla_pair(exe, make, key)
        assert fast._plane is plain._plane
        assert lockstep(ref, fast, stint).output_ints == [30]
        ref, fast = vanilla_pair(exe, make, key)
        loop = exe.symbol("loop")

        def poke(ref, fast):
            # a plaintext word on an ISR core decrypts to garbage
            for machine in (ref, fast):
                machine.memory.poke_code(loop, exe.word_at(loop))

        lockstep(ref, fast, stint, events=[(4, poke)])

    @pytest.mark.parametrize("stint", STINTS)
    def test_another_timing(self, stint, tier):
        exe = assemble_text(COUNTER)
        first = VanillaMachine(exe)
        first.run()
        ref, fast = vanilla_pair(exe, VanillaMachine, LEON3_MINIMAL_TIMING)
        assert fast._plane is not first._plane
        assert lockstep(ref, fast, stint).output_ints == [30]

    def test_pickled_executable_drops_the_plane(self):
        exe = assemble_text(COUNTER)
        VanillaMachine(exe).run()
        assert exe.step_planes
        restored = pickle.loads(pickle.dumps(exe))
        assert restored.step_planes == {}
        assert restored == exe
        assert VanillaMachine(restored).run().output_ints == [30]

    def test_a_new_executable_renders_the_current_table(self, monkeypatch):
        # the plane belongs to its executable: steps predecoded before
        # the semantics table changed never reach a new binary
        from repro.sim.engine import SEMANTICS, Semantics
        source = "main: li a0, 6\n li a1, 3\n xor a0, a0, a1\n halt\n"
        monkeypatch.setattr(fused, "COMPILE_THRESHOLD", 1 << 62)
        assert VanillaMachine(assemble_text(source)).run().ok
        monkeypatch.setitem(SEMANTICS, "xor",
                            Semantics("r[{rs1}] | r[{rs2}]"))
        machine = VanillaMachine(assemble_text(source))
        machine.run()
        assert machine.state.regs[ALIASES["a0"]] == 6 | 3


# -- idle loops in one call -------------------------------------------------

SELF_JUMP = "main: jmp main\n"

#: a three-instruction load-and-branch loop: its load, the run's second
#: instruction, walks down from ``start - 4`` and leaves data RAM at
#: ``DATA_BASE - 4``
LOAD_LOOP = """
main:
    li t0, 0x{start:08x}
    li t1, 1
loop:
    addi t0, t0, -4
    lw a0, 0(t0)
    bne t0, t1, loop
    halt
"""


def observe_vanilla(machine, result):
    return (result.status, result.cycles, result.instructions,
            result.icache.hits, result.icache.misses, result.trap_reason,
            machine.state.pc, tuple(machine.state.regs))


class TestIdleLoops:
    @pytest.mark.parametrize("threshold", [1, 16])
    def test_self_jump_every_budget(self, threshold, monkeypatch):
        monkeypatch.setattr(fused, "COMPILE_THRESHOLD", threshold)
        exe = assemble_text(SELF_JUMP)
        for budget in range(1, 40):
            ref, fast = vanilla_pair(exe)
            expected = ref.run(budget)
            assert observe_vanilla(fast, fast.run(budget)) == \
                observe_vanilla(ref, expected), budget
        fast = VanillaMachine(exe)
        fast.run(20_000)
        assert "while True" in fast._fused_runs[0][0].__fused_source__

    def test_self_jump_runs_in_one_call(self, monkeypatch):
        monkeypatch.setattr(fused, "COMPILE_THRESHOLD", 1)
        machine = VanillaMachine(assemble_text(SELF_JUMP))
        machine.run(1)
        fn, n_max = machine._fused_runs[0]
        calls = []

        def counted(*args):
            calls.append(args[-1])
            return fn(*args)

        machine._fused_runs[0] = (counted, n_max)
        result = machine.run(20_000)
        assert result.instructions == 20_000
        assert calls == [20_000]

    @pytest.mark.parametrize("j", [0, 1, 4])
    def test_load_loop_traps_on_a_later_iteration(self, j, tier):
        # the load traps on iteration j + 2
        exe = assemble_text(LOAD_LOOP.format(start=DATA_BASE + 4 * (j + 1)))
        expected = VanillaMachine(exe, engine="reference").run()
        assert expected.status is Status.TRAP
        for budget in range(1, expected.instructions + 3):
            ref, fast = vanilla_pair(exe)
            machine_result = fast.run(budget)
            assert observe_vanilla(fast, machine_result) == \
                observe_vanilla(ref, ref.run(budget)), budget
        for stint in STINTS:
            lockstep(*vanilla_pair(exe), stint)

    def test_random_budgets_across_stints(self, tier):
        exe = assemble_text(LOAD_LOOP.format(start=DATA_BASE + 4 * 10))
        rng = random.Random(7)
        ref, fast = vanilla_pair(exe)
        while True:
            budget = rng.randint(1, 9)
            expected = ref.run(budget)
            assert observe_vanilla(fast, fast.run(budget)) == \
                observe_vanilla(ref, expected)
            if expected.status is not Status.LIMIT:
                break

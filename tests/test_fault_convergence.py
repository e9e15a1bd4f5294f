"""Golden convergence: a fault specimen that rejoins the clean run ends early.

:class:`~repro.sim.batch.GoldenTrace` lets a lockstep fork take the clean
(golden) run's final result once its state equals a golden checkpoint on
everything the golden suffix observes (DESIGN.md "Golden convergence").
Each test here builds the exact condition it names — a fault that must
converge, one that must not, a budget too small for the golden suffix, a
self-modifying golden run, a trigger past the golden end — and
checks the outcome against the unconverged per-specimen oracle
:func:`~repro.faults.campaign.run_fault`.  A Hypothesis differential then
holds :func:`~repro.faults.campaign.run_fault_batch` field-for-field equal
to ``run_fault`` over two workloads, all six fault models and two design
points, and another holds the checkpoints' RAM page diff to a per-page
oracle.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.crypto import DeviceKeys
from repro.faults.campaign import (FaultOutcome, run_fault, run_fault_batch,
                                   sample_faults)
from repro.faults.models import (CodeBitFlip, CombinedFault, FetchGlitch,
                                 PCGlitch, RegisterFault, VerifySkip)
from repro.isa import parse
from repro.sim.batch import CHECK_EVERY, GoldenTrace
from repro.sim.memory import PAGE_BYTES, changed_pages
from repro.transform import transform
from repro.transform.profile import DEFAULT_PROFILE, profile_grid
from repro.workloads import make_workload

KEYS = DeviceKeys.from_seed(0xC0DE)
NONCE = 0x5EED
BUDGET = 2_000_000

#: the E17 design point away from the paper's: PRESENT-80, 32-bit seals
PRESENT = next(p for p in profile_grid()
               if p.cipher == "present-80" and p.mac_words == 1
               and p.renonce == "sequential")

_BUILDS = {}


def build(name, profile=DEFAULT_PROFILE):
    """(image, keys, trace) for a tiny workload, cached per design point."""
    key = (name, profile)
    if key not in _BUILDS:
        keys = KEYS.for_profile(profile)
        program = make_workload(name, "tiny").compile().program
        image = transform(program, keys, nonce=NONCE, profile=profile)
        _BUILDS[key] = (image, keys, GoldenTrace.record(image, keys, BUDGET))
    return _BUILDS[key]


def specimen(image, keys, trace, fault, budget=BUDGET):
    """One fault through a golden-trace fork: ``(result, skipped)``."""
    machine, start = trace.fork_at(image, keys, fault.trigger_instructions)
    fault.inject(machine)
    return trace.resume(machine, start, budget)


def fields(result):
    return (result.fault, result.model, result.outcome, result.description,
            result.status, result.detail)


def assert_matches_oracle(image, keys, trace, faults, budget=BUDGET):
    golden = trace.result.output_ints
    batch = run_fault_batch(image, keys, faults, golden, trace,
                            max_instructions=budget)
    scalar = [run_fault(image, keys, fault, golden, max_instructions=budget)
              for fault in faults]
    assert [fields(r) for r in batch] == [fields(r) for r in scalar]
    return batch


def fetched_words(trace):
    return set(trace.code_at)


def _flip_read_reg(machine, trace, image):
    machine.state.regs[trace.read_regs[-1]] ^= 1


def _flip_unread_reg(machine, trace, image):
    reg = next(r for r in range(1, 32) if r not in trace.read_regs)
    machine.state.regs[reg] ^= 1


def _ram_byte(machine, trace, image):
    machine.memory.ram[len(machine.memory.ram) // 2] ^= 1


def _fetched_word(machine, trace, image):
    machine.memory.code[trace.code_at[len(trace.code_at) // 2]] ^= 1


def _unfetched_word(machine, trace, image):
    index = next(i for i in range(len(image.words))
                 if i not in fetched_words(trace))
    machine.memory.code[index] ^= 1


def _pc(machine, trace, image):
    machine.state.pc += image.block_bytes


def _prev_pc(machine, trace, image):
    machine.prev_pc ^= 4


def _output(machine, trace, image):
    machine.memory.mmio.ints.append(7)


def _verify_skip(machine, trace, image):
    machine.verify_skip_budget += 1


class TestMatches:
    """``matches`` at a checkpoint, one recorded field perturbed at a time
    (a pending fetch restore: ``test_fetch_glitch_cannot_converge...``)."""

    @pytest.mark.parametrize("perturb, expected", [
        (_flip_read_reg, False), (_flip_unread_reg, True),
        (_ram_byte, False), (_fetched_word, False),
        (_unfetched_word, True), (_pc, False), (_prev_pc, False),
        (_output, False), (_verify_skip, True),
    ], ids=lambda case: getattr(case, "__name__", str(case)).strip("_"))
    def test_each_recorded_field(self, perturb, expected):
        image, keys, trace = build("crc32")
        checkpoint = trace.checkpoints[2]
        machine, _ = trace.fork_at(image, keys, checkpoint.instructions)
        assert trace.matches(machine, checkpoint)
        perturb(machine, trace, image)
        assert trace.matches(machine, checkpoint) is expected


class TestConverges:
    def test_verify_skip_converges(self):
        image, keys, trace = build("crc32")
        fault = VerifySkip(100)
        result, skipped = specimen(image, keys, trace, fault)
        assert result is trace.result
        assert 0 < skipped < trace.result.instructions
        [outcome] = assert_matches_oracle(image, keys, trace, [fault])
        assert outcome.outcome is FaultOutcome.MASKED

    def test_register_fault_in_unread_register_converges(self):
        image, keys, trace = build("crc32")
        unread = next(reg for reg in range(1, 32)
                      if reg not in trace.read_regs)
        fault = RegisterFault(500, reg=unread, bit=7)
        _, skipped = specimen(image, keys, trace, fault)
        assert skipped is not None
        assert_matches_oracle(image, keys, trace, [fault])

    def test_code_flip_on_never_fetched_word_converges(self):
        image, keys, trace = build("crc32")
        index = next(i for i in range(len(image.words))
                     if i not in fetched_words(trace))
        fault = CodeBitFlip(300, address=image.code_base + 4 * index, bit=3)
        _, skipped = specimen(image, keys, trace, fault)
        assert skipped is not None
        [outcome] = assert_matches_oracle(image, keys, trace, [fault])
        assert outcome.outcome is FaultOutcome.MASKED


class TestDoesNotConverge:
    def test_register_fault_that_changes_output(self):
        # a flip in a register the golden run reads that turns the run
        # into silent data corruption must simulate to the end
        image, keys, trace = build("crc32")
        golden = trace.result.output_ints
        total = trace.result.instructions
        candidates = (RegisterFault(trigger, reg=reg, bit=bit)
                      for reg in trace.read_regs if reg
                      for trigger in (total // 3, total // 2)
                      for bit in (5, 31))
        fault = next((fault for fault in candidates
                      if run_fault(image, keys, fault, golden).outcome
                      is FaultOutcome.SDC), None)
        assert fault is not None, "no read register flip causes SDC"
        result, skipped = specimen(image, keys, trace, fault)
        assert skipped is None
        assert result.output_ints != golden
        assert_matches_oracle(image, keys, trace, [fault])

    def test_code_flip_on_fetched_word_never_converges(self):
        image, keys, trace = build("crc32")
        fetched = sorted(fetched_words(trace))
        faults = [CodeBitFlip(200, address=image.code_base + 4 * index,
                              bit=index % 32)
                  for index in fetched[::max(1, len(fetched) // 12)]]
        for fault in faults:
            _, skipped = specimen(image, keys, trace, fault)
            assert skipped is None, fault
        assert_matches_oracle(image, keys, trace, faults)

    def test_fetch_glitch_cannot_converge_before_its_restore(self):
        image, keys, trace = build("crc32")
        checkpoint = trace.checkpoints[1]
        machine, start = trace.fork_at(image, keys, checkpoint.instructions)
        assert start == checkpoint.instructions
        assert trace.matches(machine, checkpoint)
        # glitch a word the golden run never fetches: every recorded
        # field still matches, only the pending restore differs
        index = next(i for i in range(len(image.words))
                     if i not in fetched_words(trace))
        FetchGlitch(checkpoint.instructions,
                    address=image.code_base + 4 * index,
                    xor_mask=0x100).inject(machine)
        assert machine.pending_fetch_restore is not None
        assert not trace.matches(machine, checkpoint)
        # one traversal later the word is restored and the fork rejoins
        fault = FetchGlitch(checkpoint.instructions,
                            address=image.code_base + 4 * index,
                            xor_mask=0x100)
        _, skipped = specimen(image, keys, trace, fault)
        assert skipped is not None
        assert_matches_oracle(image, keys, trace, [fault])

    def test_budget_too_small_for_the_golden_suffix_stays_hung(self):
        image, keys, trace = build("crc32")
        fault = VerifySkip(50)
        _, start = trace.fork_at(image, keys, fault.trigger_instructions)
        remaining = trace.result.instructions - start
        assert remaining > 3 * CHECK_EVERY  # a checkpoint lies in reach
        budget = remaining // 2
        result, skipped = specimen(image, keys, trace, fault, budget)
        assert skipped is None
        [outcome] = assert_matches_oracle(image, keys, trace, [fault],
                                          budget)
        assert outcome.outcome is FaultOutcome.HUNG
        # exactly the golden suffix: refused (the rule is conservative),
        # yet the plain run still completes the program
        _, skipped = specimen(image, keys, trace, fault, remaining)
        assert skipped is None
        [outcome] = assert_matches_oracle(image, keys, trace, [fault],
                                          remaining)
        assert outcome.outcome is FaultOutcome.MASKED

    def test_trigger_past_the_golden_end(self):
        image, keys, trace = build("crc32")
        late = trace.result.instructions + 1000
        faults = [VerifySkip(late), RegisterFault(late, reg=5, bit=1),
                  PCGlitch(late, target=image.code_base + 4)]
        for fault in faults:
            _, skipped = specimen(image, keys, trace, fault)
            assert skipped is None
        assert_matches_oracle(image, keys, trace, faults)


#: stores a code word back unchanged: a golden run that writes code
SELF_WRITING = """
main:
    li t0, 0
    lw t1, 0(t0)
    sw t1, 0(t0)
    li t0, 0
    li t1, 3000
spin:
    addi t0, t0, 1
    blt t0, t1, spin
    li t2, 0xFFFF0004
    sw t0, 0(t2)
    halt
"""

#: reads the first 64 code words as data, never-executed ones included
CODE_READER = """
main:
    li t0, 0
    li t1, 1500
spin:
    addi t0, t0, 1
    blt t0, t1, spin
    call tail
    halt
unused:
    addi t3, t3, 1
    addi t3, t3, 2
    addi t3, t3, 3
    ret
tail:
    li t0, 0
    li t1, 256
    li t2, 0
sum:
    lw t4, 0(t0)
    add t2, t2, t4
    addi t0, t0, 4
    blt t0, t1, sum
    li t5, 0xFFFF0004
    sw t2, 0(t5)
    ret
"""


def assemble_image(source):
    image = transform(parse(source), KEYS, nonce=NONCE)
    return image, GoldenTrace.record(image, KEYS, BUDGET)


class TestGoldenRunShape:
    def test_self_modifying_golden_run_never_converges(self):
        image, trace = assemble_image(SELF_WRITING)
        assert trace.result.ok
        assert trace.result.instructions > 2 * CHECK_EVERY
        # its checkpoints still serve forks, but none is met
        assert trace.checkpoints and trace.written
        assert not trace.converges
        faults = [VerifySkip(100), RegisterFault(100, reg=20, bit=2)]
        for fault in faults:
            _, skipped = specimen(image, KEYS, trace, fault)
            assert skipped is None
        assert_matches_oracle(image, KEYS, trace, faults)

    def test_code_words_read_as_data_block_convergence(self):
        # a flip in a word the golden run never fetches but does load
        # changes the output: the fork must not take the golden result
        image, trace = assemble_image(CODE_READER)
        assert trace.converges
        address = image.symbols["unused"]
        assert (address - image.code_base) >> 2 in fetched_words(trace)
        fault = CodeBitFlip(100, address=address, bit=5)
        result, skipped = specimen(image, KEYS, trace, fault)
        assert skipped is None
        [outcome] = assert_matches_oracle(image, KEYS, trace, [fault])
        assert outcome.outcome is FaultOutcome.SDC


#: (model, trigger, a, b) -> one fault spec; ``a``/``b`` pick the target
def _make_fault(image, model, trigger, a, b):
    address = image.code_base + 4 * (a % len(image.words))
    if model == "CodeBitFlip":
        return CodeBitFlip(trigger, address=address, bit=b % 32)
    if model == "FetchGlitch":
        return FetchGlitch(trigger, address=address, xor_mask=1 << (b % 32))
    if model == "PCGlitch":
        return PCGlitch(trigger, target=address)
    if model == "RegisterFault":
        return RegisterFault(trigger, reg=1 + a % 31, bit=b % 32)
    if model == "VerifySkip":
        return VerifySkip(trigger)
    return CombinedFault(trigger, parts=(
        VerifySkip(trigger), CodeBitFlip(trigger, address=address,
                                         bit=b % 32)))


MODELS = ("CodeBitFlip", "FetchGlitch", "PCGlitch", "RegisterFault",
          "VerifySkip", "CombinedFault")

fault_draws = st.lists(
    st.tuples(st.sampled_from(MODELS), st.floats(0.0, 1.0),
              st.integers(0, 1 << 16), st.integers(0, 31)),
    min_size=1, max_size=6)


class TestDifferential:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(workload=st.sampled_from(["crc32", "sort"]),
           profile=st.sampled_from([DEFAULT_PROFILE, PRESENT]),
           draws=fault_draws)
    def test_batch_equals_run_fault(self, workload, profile, draws):
        image, keys, trace = build(workload, profile)
        total = trace.result.instructions
        faults = [_make_fault(image, model, int(where * total), a, b)
                  for model, where, a, b in draws]
        assert_matches_oracle(image, keys, trace, faults)

    @pytest.mark.parametrize("workload", ["crc32", "sort"])
    @pytest.mark.parametrize("profile", [DEFAULT_PROFILE, PRESENT],
                             ids=["default", "present"])
    def test_sampled_population_converges_and_matches(self, workload,
                                                      profile):
        image, keys, trace = build(workload, profile)
        faults = sample_faults(image, trace.result.instructions,
                               per_model=3, seed=2016)
        assert_matches_oracle(image, keys, trace, faults)
        converged = sum(specimen(image, keys, trace, fault)[1] is not None
                        for fault in faults)
        assert converged > 0


def pages_oracle(ram, data):
    """Per-page reference for ``changed_pages``: every page on its own."""
    changed = {}
    for low in range(0, len(ram), PAGE_BYTES):
        page = bytes(ram[low:low + PAGE_BYTES])
        initial = data[low:low + PAGE_BYTES]
        if page != initial + bytes(len(page) - len(initial)):
            changed[low] = page
    return changed


class TestChangedPages:
    @settings(max_examples=150, deadline=None)
    @given(pages=st.integers(1, 40),
           short=st.sampled_from([0, 1, 100, PAGE_BYTES - 1]),
           data_pages=st.floats(0.0, 5.0), seed=st.integers(0, 1 << 32),
           writes=st.integers(0, 12))
    def test_matches_the_per_page_oracle(self, pages, short, data_pages,
                                         seed, writes):
        # RAM of whole pages or with a partial last page, a data segment
        # ending anywhere, and dirty bytes anywhere — preferably at the
        # edges: either side of the data end, the last page, the last byte
        rng = random.Random(seed)
        size = pages * PAGE_BYTES - short
        data = rng.randbytes(min(size, int(data_pages * PAGE_BYTES)))
        ram = bytearray(size)
        ram[:len(data)] = data
        edges = [len(data) - 1, len(data), size - PAGE_BYTES // 2, size - 1]
        for _ in range(writes):
            at = rng.choice(edges) if rng.random() < 0.4 else rng.randrange(
                size)
            if 0 <= at < size:
                # a rewrite of the initial value must not count as changed
                ram[at] = rng.choice([0, ram[at], rng.randrange(256)])
        assert changed_pages(ram, data) == pages_oracle(ram, data)

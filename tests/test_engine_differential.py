"""Lockstep differential suite: the fast engine vs the reference oracle.

The fast engine (:mod:`repro.sim.engine` predecoded stepping while code is
cold, :mod:`repro.sim.fused` compiled runs once it is hot) must be
observationally indistinguishable from ``core.execute`` stepped by the
reference loops — not just in final results but after *every stint* of a
run cut into short instruction budgets.  These tests pin that contract:

* a hook-less stint lockstep: both engines run the same budget stints
  (:data:`STINTS`, cycled until the run ends) and after each one PC,
  ``prev_pc``, registers, ``ExecutionResult`` fields and all of data
  memory must be equal — for every workload on both machines.  The fast
  engine never runs with a commit hook (a hooked run goes to the oracle),
  so the lockstep holds the exact code every campaign runs;
* bit-identical ``ExecutionResult`` fields (status, cycles, instructions,
  exit code, I-cache stats) under both overhead-sweep timing configs, so
  Table 1 / Fig. 2 reproductions cannot silently drift with the engine;
* Hypothesis property tests over random valid instruction sequences
  (word-level, reusing the decode-fuzz strategy idea) and random
  structured assembly programs (reusing ``test_equivalence`` strategies);
* cache-invalidation parity for self-modifying code and the ISR
  baselines' overridden fetch path;
* renonce rotation-epoch images, every E17 profile grid point and
  mid-run traps held to the same lockstep contract.

Every contract runs at each setting of the shared ``tier`` fixture
(tests/conftest.py): compile-on-first-traversal, interpret-only, and
multi-block regions compiled over a warm block cache, so each tier is
held to the oracle on its own.  ``TestTierPolicy`` pins the heat gate
itself, the exact vanilla budget tail the cold tier owns, the routing of
hooked and exit-pending runs to the oracle, and the region a warm loop
runs as.
"""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.crypto import DeviceKeys
from repro.isa import assemble, parse
from repro.isa.encoding import encode, is_valid_word
from repro.isa.program import CODE_BASE, MMIO_EXIT, Executable
from repro.sim import (DEFAULT_TIMING, LEON3_MINIMAL_TIMING, SofiaMachine,
                       Status, VanillaMachine, fused, run_executable,
                       run_image)
from repro.sim.engine import ENGINES, SEMANTICS, Semantics, resolve_engine
from repro.transform import profile_grid, transform
from repro.workloads import make_workload, workload_names

from test_equivalence import assembly_programs

KEYS = DeviceKeys.from_seed(1)
NONCE = 0x2016

#: the instruction budgets of the stint lockstep, cycled until the run
#: ends: single steps and short bursts cut runs and blocks at every
#: boundary, the long stint lets the compiled tier run whole chains
STINTS = (1, 2, 5, 64)

#: the ``tier`` fixture is function-scoped, but it only patches a module
#: constant that every Hypothesis example shares, so reuse is sound
TIERED = settings(suppress_health_check=[HealthCheck.function_scoped_fixture],
                  deadline=None)

#: per-module build cache: workload name -> (workload, exe, image)
_BUILDS = {}


def build(name):
    if name not in _BUILDS:
        workload = make_workload(name, "tiny")
        program = workload.compile().program
        _BUILDS[name] = (workload, assemble(program),
                         transform(program, KEYS, nonce=NONCE))
    return _BUILDS[name]


def result_fields(result):
    """Everything the acceptance criteria require to be bit-identical."""
    return (result.status, result.cycles, result.instructions,
            result.exit_code, result.icache.hits, result.icache.misses,
            result.blocks_executed, result.mac_fetch_cycles,
            result.output_ints, result.trap_reason,
            str(result.violation) if result.violation else None)


def assert_lockstep(make_machine):
    """Hook-less stint lockstep: both engines run the same budget stints
    and agree on PC, ``prev_pc``, registers, result fields and all of data
    memory after every stint, until the run halts, exits, traps or
    resets."""
    ref = make_machine("reference")
    fast = make_machine("fast")
    for stint, budget in enumerate(itertools.cycle(STINTS)):
        ref_result = ref.run(budget)
        fast_result = fast.run(budget)
        where = f"after stint {stint} (budget {budget})"
        assert (result_fields(fast_result)
                == result_fields(ref_result)), where
        assert fast.state.pc == ref.state.pc, where
        assert (getattr(fast, "prev_pc", None)
                == getattr(ref, "prev_pc", None)), where
        assert fast.state.regs == ref.state.regs, where
        # == on the bytearrays: a memcmp, cheap enough for every stint
        assert fast.memory.ram == ref.memory.ram, where
        if ref_result.status is not Status.LIMIT:
            break


def assert_same_run(make_machine, budget):
    """Hook-less runs of both engines agree on every final observable."""
    ref = make_machine("reference")
    ref_result = ref.run(budget)
    fast = make_machine("fast")
    fast_result = fast.run(budget)
    assert result_fields(fast_result) == result_fields(ref_result)
    assert fast.state.regs == ref.state.regs
    assert fast.state.pc == ref.state.pc
    assert fast.memory.ram == ref.memory.ram
    if isinstance(fast, SofiaMachine):
        assert fast.prev_pc == ref.prev_pc
    return fast, fast_result


class TestLockstepWorkloads:
    @pytest.mark.parametrize("name", workload_names())
    def test_vanilla_lockstep(self, name, tier):
        _, exe, _ = build(name)
        assert_lockstep(lambda engine: VanillaMachine(exe, engine=engine))

    @pytest.mark.parametrize("name", workload_names())
    def test_sofia_lockstep(self, name, tier):
        workload, _, image = build(name)
        assert_lockstep(
            lambda engine: SofiaMachine(image, KEYS, engine=engine))
        # the golden output is produced under the hook-less loop too
        _, result = assert_same_run(
            lambda engine: SofiaMachine(image, KEYS, engine=engine),
            50_000_000)
        assert result.output_ints == workload.expected_output


class TestCycleAccountingParity:
    """Overhead-sweep configs must yield bit-identical cycles and stats
    on both tiers of the fast engine."""

    @pytest.mark.parametrize("name", workload_names())
    @pytest.mark.parametrize("timing", [DEFAULT_TIMING,
                                        LEON3_MINIMAL_TIMING],
                             ids=["default", "leon3-minimal"])
    def test_both_machines(self, name, timing, tier):
        _, exe, image = build(name)
        assert_same_run(
            lambda engine: VanillaMachine(exe, timing, engine=engine),
            50_000_000)
        assert_same_run(
            lambda engine: SofiaMachine(image, KEYS, timing, engine=engine),
            50_000_000)


class TestEngineSelection:
    def test_default_is_fast(self):
        _, exe, image = build("sort")
        assert VanillaMachine(exe).engine == "fast"
        assert SofiaMachine(image, KEYS).engine == "fast"

    def test_every_engine_selectable(self, engine):
        _, exe, image = build("sort")
        assert VanillaMachine(exe, engine=engine).engine == engine
        assert run_executable(exe, engine=engine).ok
        assert run_image(image, KEYS, engine=engine).ok

    def test_unknown_engine_rejected(self):
        _, exe, _ = build("sort")
        with pytest.raises(ValueError):
            VanillaMachine(exe, engine="jit")
        with pytest.raises(ValueError):
            resolve_engine("turbo")
        for retired in ("predecoded", "batch", "fused"):
            with pytest.raises(ValueError):
                resolve_engine(retired)
        assert resolve_engine(None) == "fast"
        assert ENGINES == ("fast", "reference")

    def test_facade_engine_kwarg(self):
        from repro import core
        prog = core.build_assembly("main: li a0, 2\n add a0, a0, a0\n halt\n")
        exe = core.link_vanilla(prog)
        ref = core.run_vanilla(exe, engine="reference")
        fast = core.run_vanilla(exe, engine="fast")
        assert result_fields(ref) == result_fields(fast)


# --- Hypothesis property tests -------------------------------------------

def _word_program(words):
    """Wrap raw instruction words into an Executable at CODE_BASE."""
    return Executable(code_words=list(words), data=b"", symbols={},
                      entry=CODE_BASE)


class TestRandomWordDifferential:
    """Random *valid* instruction words: both engines agree on everything,
    including traps, infinite loops (LIMIT) and wild control flow."""

    @given(raw=st.lists(st.integers(min_value=0, max_value=0xFFFFFFFF),
                        min_size=1, max_size=24))
    @settings(TIERED, max_examples=60)
    def test_word_sequences(self, raw, tier):
        words = [w for w in raw if is_valid_word(w)]
        words.append(encode(parse("main: halt\n").instructions[0]))
        exe = _word_program(words)
        assert_same_run(lambda engine: VanillaMachine(exe, engine=engine),
                        3_000)


class TestRandomProgramDifferential:
    """Structured random programs (test_equivalence strategies): both
    engines agree on both machines, trap behaviour and cycles included."""

    @given(source=assembly_programs())
    @settings(TIERED, max_examples=20)
    def test_vanilla_engines_agree(self, source, tier):
        exe = assemble(parse(source))
        assert_same_run(lambda engine: VanillaMachine(exe, engine=engine),
                        200_000)

    @given(source=assembly_programs(), nonce=st.integers(0, 0xFFFF))
    @settings(TIERED, max_examples=10)
    def test_sofia_engines_agree(self, source, nonce, tier):
        image = transform(parse(source), KEYS, nonce=nonce)
        assert_same_run(
            lambda engine: SofiaMachine(image, KEYS, engine=engine),
            400_000)


# --- cache-invalidation parity ---------------------------------------------

SELF_MODIFYING = """
main:
    li a0, 0
    li t3, 0
loop:
patch:
    nop
    bne t3, zero, done
    li t3, 1
    la t0, src
    lw t1, 0(t0)
    la t2, patch
    sw t1, 0(t2)
    jmp loop
done:
    li a1, 0xFFFF0004
    sw a0, 0(a1)
    halt
src:
    addi a0, a0, 7
"""


class TestInvalidationParity:
    def test_self_modifying_code(self, tier):
        """A stale cached handler would replay the pre-patch nop."""
        exe = assemble(parse(SELF_MODIFYING))
        assert_lockstep(lambda engine: VanillaMachine(exe, engine=engine))
        _, result = assert_same_run(
            lambda engine: VanillaMachine(exe, engine=engine), 10_000)
        assert result.output_ints == [7]

    def test_isr_baselines_both_engines(self, tier):
        from repro.baselines import EcbIsrMachine, XorIsrMachine
        _, exe, _ = build("sort")
        assert_lockstep(
            lambda engine: XorIsrMachine(exe, 0xA5A5F00D, engine=engine))
        assert_lockstep(
            lambda engine: EcbIsrMachine(exe, 0xBEEF2016CAFE, engine=engine))


class TestRenonceRotationLockstep:
    """A rotated-epoch image (the update path) must hold the same
    engine-lockstep contract as the freshly sealed one — this pins the
    renonce path into the differential suite, which previously only
    exercised first-epoch images."""

    def test_rotated_epoch_lockstep(self, tier):
        from repro.transform.renonce import rotate_nonce
        workload, _, image = build("sort")
        rotated = rotate_nonce(image, KEYS)
        assert rotated.nonce != image.nonce
        assert_lockstep(
            lambda engine: SofiaMachine(rotated, KEYS, engine=engine))
        result = SofiaMachine(rotated, KEYS).run()
        assert result.ok
        assert result.output_ints == workload.expected_output

    def test_double_rotation_lockstep(self, tier):
        from repro.transform.renonce import rotate_nonce
        _, _, image = build("rle")
        twice = rotate_nonce(rotate_nonce(image, KEYS), KEYS)
        assert_lockstep(
            lambda engine: SofiaMachine(twice, KEYS, engine=engine))


class TestProfileGridLockstep:
    """Every E17 design point (2 ciphers x 3 seal widths x both renonce
    policies) holds both tiers to the per-commit lockstep contract — the
    compiled cycle constants are specialized per profile (seal geometry
    changes fetch slots and block layout), so one point passing says
    nothing about the others."""

    @pytest.mark.parametrize(
        "profile", profile_grid(),
        ids=lambda p: f"{p.cipher}-{32 * p.mac_words}b-{p.renonce}")
    def test_grid_point_lockstep(self, profile, tier):
        workload, _, _ = build("rle")
        program = workload.compile().program
        image = transform(program, KEYS, nonce=NONCE, profile=profile)
        keys = KEYS.for_profile(profile)
        make = lambda engine: SofiaMachine(image, keys, engine=engine)
        assert_lockstep(make)
        assert_same_run(make, 50_000_000)


#: stores then reloads every width with its sign bit set, in a loop that
#: runs past COMPILE_THRESHOLD: a sign-extending ``lbu``/``lhu`` or a
#: zero-extending ``lb``/``lh`` on either tier changes a register (and the
#: printed checksum).  Codegen never emits sub-word ops, so no workload
#: covers these paths.
SUBWORD = """
main:
    li s0, 24
    li s1, 0
    li t0, 0x00100100
    li t1, 0x80
    li t2, 0xFF80
    li t3, 0x80000000
loop:
    sw zero, 0(t0)
    sw zero, 4(t0)
    sb t1, 1(t0)
    sh t2, 2(t0)
    sw t3, 4(t0)
    lb a0, 1(t0)
    lbu a1, 1(t0)
    lh a2, 2(t0)
    lhu a3, 2(t0)
    lw a4, 4(t0)
    lb a5, 4(t0)
    lhu a6, 4(t0)
    lh a7, 4(t0)
    xor s1, s1, a0
    add s1, s1, a1
    xor s1, s1, a2
    add s1, s1, a3
    xor s1, s1, a4
    add s1, s1, a5
    xor s1, s1, a6
    add s1, s1, a7
    addi s0, s0, -1
    bne s0, zero, loop
    li t4, 0xFFFF000C
    sw a0, 0(t4)
    sw a1, 0(t4)
    sw a2, 0(t4)
    sw a3, 0(t4)
    sw a4, 0(t4)
    sw a5, 0(t4)
    sw a6, 0(t4)
    sw a7, 0(t4)
    sw s1, 0(t4)
    halt
"""


class TestSubwordMemoryLockstep:
    def test_every_width_with_sign_bits(self, tier):
        program = parse(SUBWORD)
        exe = assemble(program)
        image = transform(program, KEYS, nonce=NONCE)
        for make in (lambda e: VanillaMachine(exe, engine=e),
                     lambda e: SofiaMachine(image, KEYS, engine=e)):
            assert_lockstep(make)
            fast, result = assert_same_run(make, 100_000)
            assert result.ok
            assert fast.state.regs[4:12] == [
                0xFFFFFF80, 0x80, 0xFFFFFF80, 0xFF80,
                0x80000000, 0xFFFFFF80, 0x8000, 0xFFFF8000]


class TestPlantedSemanticsBug:
    """Both tiers render the one semantics table, so a wrong entry must
    break the lockstep whichever tier runs: on SOFIA every block of the
    compiled tier runs compiled, so the hot rendering alone is caught."""

    def test_wrong_xor_entry_fails_the_lockstep(self, tier, monkeypatch):
        monkeypatch.setitem(SEMANTICS, "xor", Semantics("r[{rs1}] | r[{rs2}]"))
        program = parse(SUBWORD)
        exe = assemble(program)
        image = transform(program, KEYS, nonce=NONCE)
        for make in (lambda e: VanillaMachine(exe, engine=e),
                     lambda e: SofiaMachine(image, KEYS, engine=e)):
            with pytest.raises(AssertionError):
                assert_lockstep(make)


MID_BLOCK_TRAP = """
main:
    li a1, 1
    li a2, 2
    li a3, 3
    li t0, 0x000F0000
    lw t1, {offset}(t0)
    addi a3, a3, 40
    halt
"""


class TestMidRunTrapEquivalence:
    """A bus error / misaligned access in the middle of a run must leave
    registers, memory, cycles and the I-cache exactly as k stepped
    iterations would: the committed prefix (a1..a3 writes) stands, the
    instruction after the faulting load never executes."""

    @pytest.mark.parametrize("offset,reason", [
        (0, "bus error"),            # below data RAM, past code
        (2, "misaligned load"),      # rejects the compiled fast-path guard
    ])
    def test_vanilla_and_sofia_trap_prefix(self, offset, reason, tier):
        source = MID_BLOCK_TRAP.format(offset=offset)
        program = parse(source)
        exe = assemble(program)
        image = transform(program, KEYS, nonce=NONCE)
        for make in (lambda e: VanillaMachine(exe, engine=e),
                     lambda e: SofiaMachine(image, KEYS, engine=e)):
            fast, result = assert_same_run(make, 10_000)
            assert result.status.name == "TRAP"
            assert reason in result.trap_reason
            assert fast.state.regs[5:8] == [1, 2, 3]  # a1, a2, a3 (r5-r7)


# --- the heat policy and the cold tier's own paths ---------------------------

COUNTER = """
main:
    li t0, 0
    li t1, 40
loop:
    addi t0, t0, 1
    blt t0, t1, loop
    li a1, 0xFFFF0004
    sw t0, 0(a1)
    li a1, 0xFFFF0008
    sw zero, 0(a1)
    halt
"""

STRAIGHT = """
main:
    li a0, 5
    addi a0, a0, 3
    li a1, 0xFFFF0004
    sw a0, 0(a1)
    halt
"""


def counter_machines():
    """Machine factories (engine -> machine) running COUNTER."""
    program = parse(COUNTER)
    exe = assemble(program)
    image = transform(program, KEYS, nonce=NONCE)
    return (lambda e: VanillaMachine(exe, engine=e),
            lambda e: SofiaMachine(image, KEYS, engine=e))


def compiled_handlers(machine):
    """The fast engine's compiled-handler memo of either machine."""
    if isinstance(machine, SofiaMachine):
        return machine._fused_edges
    return machine._fused_runs


def hooked_run(machine):
    """Run with a commit hook recording (pc, registers) per commit."""
    events = []
    regs = machine.state.regs
    machine.on_commit = lambda pc, instr: events.append((pc, tuple(regs)))
    return machine.run(), events


class TestTierPolicy:
    def test_one_shot_code_never_compiles(self):
        program = parse(STRAIGHT)
        vanilla = VanillaMachine(assemble(program))
        sofia = SofiaMachine(transform(program, KEYS, nonce=NONCE), KEYS)
        assert vanilla.run().output_ints == [8]
        assert sofia.run().output_ints == [8]
        assert not vanilla._fused_runs
        assert not sofia._fused_edges

    def test_hot_loop_compiles(self):
        program = parse(COUNTER)
        vanilla = VanillaMachine(assemble(program))
        sofia = SofiaMachine(transform(program, KEYS, nonce=NONCE), KEYS)
        assert vanilla.run().output_ints == [40]
        assert sofia.run().output_ints == [40]
        # 40 loop iterations cross the default threshold of 16
        assert vanilla._fused_runs
        assert sofia._fused_edges

    def test_vanilla_budget_tail_is_exact(self, tier):
        """A budget that ends inside a run is finished by the cold tier
        instruction by instruction — at every possible boundary."""
        exe = assemble(parse(COUNTER))
        for budget in range(1, 130):
            assert_same_run(
                lambda engine: VanillaMachine(exe, engine=engine), budget)

    def test_resumed_run_after_exit(self, tier):
        """A second run() starts with the exit register already written;
        the oracle executes one more instruction before noticing, and a
        fast machine hands that run to the oracle."""
        for make in counter_machines():
            ref, fast = make("reference"), make("fast")
            for _ in range(2):
                assert (result_fields(fast.run())
                        == result_fields(ref.run()))
                assert fast.state.pc == ref.state.pc
                assert fast.state.regs == ref.state.regs

    @pytest.mark.parametrize("tier", ["regions"], indirect=True)
    def test_warm_crc32_loop_body_is_one_region(self, tier):
        """On a warm block cache the crc32-small loop body — the edges
        0x19c->0x1a0 ... 0x2fc->0x188 — is registered as entries of one
        region, each entering at its own member."""
        workload = make_workload("crc32", "small")
        image = transform(workload.compile().program, KEYS, nonce=NONCE)
        machine = SofiaMachine(image, KEYS)
        assert machine.run().output_ints == workload.expected_output
        body = {key for key in machine._block_cache
                if 0x19c <= key[0] <= 0x2fc and 0x188 <= key[1] <= 0x2fc}
        assert {(0x19c, 0x1a0), (0x2fc, 0x188)} <= body
        entries = [machine._fused_edges[key] for key in body]
        assert len({id(entry.__globals__) for entry in entries}) == 1
        assert all(body <= entry.members for entry in entries)
        assert len({entry.__defaults__ for entry in entries}) == len(body)

    def test_hooked_run_goes_to_the_oracle(self, monkeypatch):
        """A commit hook on a fast machine selects the oracle loop: the
        same trace and results as ``reference``, and nothing compiles even
        when every first traversal would."""
        monkeypatch.setattr(fused, "COMPILE_THRESHOLD", 1)
        for make in counter_machines():
            ref_result, ref_events = hooked_run(make("reference"))
            fast = make("fast")
            fast_result, fast_events = hooked_run(fast)
            assert fast_events == ref_events
            assert len(fast_events) == fast_result.instructions > 80
            assert result_fields(fast_result) == result_fields(ref_result)
            assert not compiled_handlers(fast)
            # the same run without the hook compiles on first traversal
            unhooked = make("fast")
            assert result_fields(unhooked.run()) == result_fields(ref_result)
            assert compiled_handlers(unhooked)

    def test_exit_pending_run_goes_to_the_oracle(self, monkeypatch):
        """A fast machine resumed with the exit register already written
        runs the oracle loop: one instruction, then EXIT, exactly like
        ``reference``, and nothing compiles."""
        monkeypatch.setattr(fused, "COMPILE_THRESHOLD", 1)
        for make in counter_machines():
            ref, fast = make("reference"), make("fast")
            for machine in (ref, fast):
                machine.memory.store(MMIO_EXIT, 3, 4)
            result = fast.run()
            assert result_fields(result) == result_fields(ref.run())
            assert result.status is Status.EXIT
            assert result.instructions == 1
            assert fast.state.pc == ref.state.pc
            assert fast.state.regs == ref.state.regs
            assert fast.memory.ram == ref.memory.ram
            assert not compiled_handlers(fast)

"""Machine-level tests: vanilla and SOFIA run loops, traps, violations.

Behavioural tests take the shared ``engine`` fixture (tests/conftest.py)
so both registered execution engines — fast and reference — and the fast
engine pinned to each of its tiers satisfy the same machine-level
contract.
"""

import pytest

from repro.crypto import DeviceKeys
from repro.isa import assemble_text, parse
from repro.sim import SofiaMachine, Status, TimingParams, VanillaMachine
from repro.transform import TransformConfig, transform

KEYS = DeviceKeys.from_seed(321)


def build_sofia(source, nonce=9, config=None, engine=None):
    image = transform(parse(source), KEYS, nonce=nonce,
                      config=config or TransformConfig())
    return SofiaMachine(image, KEYS, engine=engine), image


COUNTER = """
main:
    li t0, 0
    li t1, 50
loop:
    addi t0, t0, 1
    blt t0, t1, loop
    li t2, 0xFFFF0004
    sw t0, 0(t2)
    halt
"""


class TestVanillaMachine:
    def test_halt(self, engine):
        m = VanillaMachine(assemble_text("main: halt\n"), engine=engine)
        r = m.run()
        assert r.status is Status.HALT
        assert r.instructions == 1

    def test_exit_code(self, engine):
        m = VanillaMachine(assemble_text("""
        main:
            li t0, 0xFFFF0008
            li t1, 5
            sw t1, 0(t0)
            halt
        """), engine=engine)
        r = m.run()
        assert r.status is Status.EXIT
        assert r.exit_code == 5

    def test_loop_and_output(self, engine):
        r = VanillaMachine(assemble_text(COUNTER), engine=engine).run()
        assert r.output_ints == [50]
        # 2x li + 50x(addi, blt) + lui/ori + sw + halt
        assert r.instructions == 2 + 50 * 2 + 4

    def test_instruction_limit(self, engine):
        r = VanillaMachine(assemble_text("main: jmp main\n"),
                           engine=engine).run(max_instructions=100)
        assert r.status is Status.LIMIT
        assert r.instructions == 100

    def test_illegal_instruction_traps(self, engine):
        m = VanillaMachine(assemble_text("main: nop\n halt\n"),
                           engine=engine)
        m.memory.poke_code(0, 0xFFFFFFFF)
        r = m.run()
        assert r.status is Status.TRAP
        assert "opcode" in r.trap_reason

    def test_bus_error_traps(self):
        r = VanillaMachine(assemble_text("""
        main:
            li t0, 0x00900000
            lw t1, 0(t0)
            halt
        """)).run()
        assert r.status is Status.TRAP

    def test_branch_taken_costs_more(self):
        # a large redirect penalty must dominate the cold-miss fetch cost
        # in the bottleneck (max of fetch/execute) cycle model
        timing = TimingParams(branch_taken_penalty=20)
        taken = VanillaMachine(assemble_text(
            "main: beq zero, zero, out\nout: halt\n"), timing).run()
        not_taken = VanillaMachine(assemble_text(
            "main: bne zero, zero, out\nout: halt\n"), timing).run()
        # both paths execute 2 instructions (the not-taken one falls into
        # `out`), but only the taken branch pays the redirect penalty
        assert taken.instructions == not_taken.instructions == 2
        assert taken.cycles > not_taken.cycles

    def test_icache_stats_populated(self):
        r = VanillaMachine(assemble_text(COUNTER)).run()
        assert r.icache is not None
        assert r.icache.accesses == r.instructions
        assert r.icache.hit_rate > 0.9  # tight loop

    def test_self_modifying_code_sees_new_bytes(self, engine):
        # the decode cache must be invalidated by code writes
        src = """
        main:
            la t0, patch      # address of the patched instruction... in data? no: code
            halt
        """
        # simpler: poke between two run() calls
        m = VanillaMachine(assemble_text("main: nop\n nop\n halt\n"),
                           engine=engine)
        m.run(max_instructions=1)
        from repro.isa import Instruction, encode
        m.memory.poke_code(4, encode(Instruction("halt")))
        r = m.run(max_instructions=10)
        assert r.status is Status.HALT


class TestSofiaMachine:
    def test_counter_program(self, engine):
        m, _ = build_sofia(COUNTER, engine=engine)
        r = m.run()
        assert r.status is Status.EXIT or r.status is Status.HALT
        assert r.output_ints == [50]

    def test_blocks_and_mac_cycles_accounted(self, engine):
        m, image = build_sofia(COUNTER, engine=engine)
        r = m.run()
        assert r.blocks_executed > 0
        assert r.mac_fetch_cycles == 2 * r.blocks_executed

    def test_tamper_detected_and_nothing_commits(self, engine):
        source = """
        main:
            li t0, 0xFFFF0010
            li t1, 77
            sw t1, 0(t0)
            halt
        """
        m, image = build_sofia(source, engine=engine)
        # flip a bit in the block that does the store
        m.memory.poke_code(image.code_base + 8, image.words[2] ^ 1)
        r = m.run()
        assert r.status is Status.RESET
        assert r.violation.kind == "integrity"
        assert m.memory.mmio.actuator == []  # the store never reached MA

    def test_invalid_entry_offset(self, engine):
        m, image = build_sofia(COUNTER, engine=engine)
        m.state.pc = image.code_base + 12
        r = m.run()
        assert r.status is Status.RESET
        assert r.violation.kind == "invalid-entry"

    def test_valid_entry_wrong_edge(self, engine):
        m, image = build_sofia(COUNTER, engine=engine)
        m.state.pc = image.code_base + image.block_bytes  # block 1, no edge
        r = m.run()
        assert r.status is Status.RESET
        assert r.violation.kind in ("integrity", "fetch-fault")

    def test_memoization_speedup_and_correctness(self):
        m1, _ = build_sofia(COUNTER)
        m2, _ = build_sofia(COUNTER)
        m2.memoize = False
        r1, r2 = m1.run(), m2.run()
        assert r1.output_ints == r2.output_ints
        assert r1.cycles == r2.cycles

    def test_code_write_drops_exactly_the_blocks_fetching_it(self, tier):
        # a verified block is a pure function of the words it fetches, so
        # a poke drops exactly the edges whose blocks fetch that word —
        # memo, compiled handlers and heat alike — and keeps every other
        m, image = build_sofia(COUNTER)
        m.run(max_instructions=60)
        target = image.symbols["loop"] + 8
        cache = dict(m._block_cache)
        survivors = {key: block for key, block in cache.items()
                     if target not in block.fetch_addresses}
        assert survivors and len(survivors) < len(cache)
        m.memory.poke_code(target, m.memory.fetch_word(target))
        assert m._block_cache == survivors
        assert all(m._block_cache[key] is block
                   for key, block in survivors.items())
        for edges in (m._fused_edges, m._fused_heat):
            assert set(edges) <= set(survivors)
        if tier == "compiled":
            assert m._fused_edges

    def test_interleaved_code_writes_match_reference_and_unmemoized(
            self, tier):
        # stints with pokes between them: rewrites of fetched words, a
        # tamper that resets the next stint and is then undone (the run
        # after it must re-verify the restored block and go on), then a
        # tamper left in place — the memoized fast machine must agree
        # with the reference engine and a machine that memoizes nothing
        _, image = build_sofia(COUNTER)
        loop = image.symbols["loop"]
        pokes = [(loop, None), (loop + 8, 0x12345678), (loop + 8, None),
                 (image.code_base, None), (loop + 4, None),
                 (loop + 12, 0xDEADBEEF)]

        def drive(machine):
            trail = []
            for address, word in pokes:
                result = machine.run(max_instructions=9)
                trail.append((result.status, result.cycles,
                              result.instructions, result.blocks_executed,
                              result.mac_fetch_cycles,
                              str(result.violation), list(machine.state.regs),
                              machine.state.pc, machine.prev_pc,
                              result.icache.hits, result.icache.misses))
                if word is None:   # rewrite the stored word, or undo
                    word = image.words[(address - image.code_base) >> 2]
                machine.memory.poke_code(address, word)
            result = machine.run()
            trail.append((result.status, result.cycles, result.instructions,
                          str(result.violation), result.output_ints))
            return trail

        fast = SofiaMachine(image, KEYS)
        reference = SofiaMachine(image, KEYS, engine="reference")
        unmemoized = SofiaMachine(image, KEYS, memoize=False)
        trail = drive(fast)
        assert trail == drive(reference) == drive(unmemoized)
        assert [step[0] for step in trail] == [
            Status.LIMIT, Status.LIMIT, Status.RESET, Status.LIMIT,
            Status.LIMIT, Status.LIMIT, Status.RESET]

    def test_runtime_injection_detected(self, engine):
        # tamper *while running*: the next traversal of the loop block
        # re-verifies and catches it (poke M2, fetched on every path)
        m, image = build_sofia(COUNTER, engine=engine)
        m.run(max_instructions=30)
        target = image.symbols["loop"] + 8
        m.memory.poke_code(target, 0x12345678)
        r = m.run(max_instructions=100000)
        assert r.status is Status.RESET
        assert r.violation.kind == "integrity"

    def test_small_block_configuration_runs(self, engine):
        config = TransformConfig(block_words=6)
        m, image = build_sofia(COUNTER, config=config, engine=engine)
        r = m.run()
        assert r.output_ints == [50]
        assert image.block_words == 6

    def test_sofia_slower_than_vanilla(self):
        vanilla = VanillaMachine(assemble_text(COUNTER)).run()
        m, _ = build_sofia(COUNTER)
        sofia = m.run()
        assert sofia.cycles > vanilla.cycles
        assert sofia.instructions >= vanilla.instructions  # padding nops

    def test_timing_params_affect_cycles(self):
        slow = TimingParams(branch_taken_penalty=10)
        image = transform(parse(COUNTER), KEYS, nonce=9)
        fast_r = SofiaMachine(image, KEYS).run()
        slow_r = SofiaMachine(image, KEYS, timing=slow).run()
        assert slow_r.cycles > fast_r.cycles

    def test_result_summary_renders(self):
        m, _ = build_sofia(COUNTER)
        text = m.run().summary()
        assert "status=" in text and "cycles=" in text

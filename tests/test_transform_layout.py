"""Layout-engine invariants, including property tests over random programs.

The invariants are the paper's block rules: fixed 8-word blocks; control
enters only at block entries and exits only at the last slot; stores keep
out of the slots that would reach MA before verification; every inbound
edge has a sealed entry; multiplexor trees fan in arbitrary predecessor
counts.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TransformError
from repro.isa import parse
from repro.isa.program import CODE_BASE
from repro.transform import (BlockKind, DEFAULT_PROFILE, ProtectionProfile,
                             prepare, store_forbidden_slots)
from repro.transform.blocks import is_offset0, token_sort_key
from repro.transform.profile import UNREACHABLE_PREV_PC


def layout_of(source, profile=DEFAULT_PROFILE):
    return prepare(parse(source), profile)


SIMPLE = """
main:
    li a0, 1
    beq a0, zero, skip
    addi a0, a0, 2
skip:
    sw a0, -4(sp)
    call f
    halt
f:
    addi a0, a0, 3
    ret
"""


class TestConfig:
    def test_capacities(self):
        assert DEFAULT_PROFILE.exec_capacity == 6
        assert DEFAULT_PROFILE.mux_capacity == 5
        assert DEFAULT_PROFILE.block_bytes == 32

    def test_store_forbidden_matches_paper(self):
        # Fig. 6: 6-instruction blocks forbid stores in the first two slots
        assert store_forbidden_slots(DEFAULT_PROFILE.exec_capacity) == (0, 1)
        # derived: multiplexor blocks forbid slot 0
        assert store_forbidden_slots(DEFAULT_PROFILE.mux_capacity) == (0,)

    def test_four_instruction_blocks_have_no_restriction(self):
        profile = ProtectionProfile(block_words=6)  # Fig. 5 geometry
        assert profile.exec_capacity == 4
        assert store_forbidden_slots(profile.exec_capacity) == ()

    def test_too_small_block_rejected(self):
        with pytest.raises(ValueError):
            ProtectionProfile(block_words=4)

    def test_tokens_order_and_offset0(self):
        tokens = [("cti", 5), ("reset",), ("fall", 2), ("tree", 0)]
        ordered = sorted(tokens, key=token_sort_key)
        assert ordered[0] == ("reset",)
        assert is_offset0(("fall", 1))
        assert is_offset0(("ret", 3))
        assert not is_offset0(("cti", 3))


class TestInvariants:
    def _check(self, layout):
        block_bytes = layout.profile.block_bytes
        for block in layout.blocks:
            # fixed size
            assert len(block.payload) == block.capacity
            assert block.base % block_bytes == 0
            capacity = block.capacity
            forbidden = store_forbidden_slots(capacity)
            for slot, instr in enumerate(block.payload):
                if instr.is_cti:
                    assert slot == capacity - 1, \
                        f"CTI mid-block at {block.base:#x} slot {slot}"
                if instr.is_store:
                    assert slot not in forbidden, \
                        f"store in forbidden slot {slot}"
            if block.kind is BlockKind.MUX:
                assert len(block.entries) == 2
            else:
                assert len(block.entries) <= 1
        # entry addresses are classifiable by offset
        for (token, leader), (block, slot) in layout.assignments.items():
            address = block.entry_address(slot)
            offset = (address - CODE_BASE) % block_bytes
            if block.kind is BlockKind.EXEC:
                assert offset == 0
            else:
                assert offset in (4, 8)

    def test_simple_program(self):
        self._check(layout_of(SIMPLE))

    def test_entry_address_is_first_block(self):
        layout = layout_of("main: halt\n")
        assert layout.entry_address == CODE_BASE

    def test_store_never_in_first_two_slots(self):
        layout = layout_of("""
        main:
            sw a0, -4(sp)
            sw a1, -8(sp)
            sw a2, -12(sp)
            sw a3, -16(sp)
            sw a4, -20(sp)
            halt
        """)
        self._check(layout)

    def test_continuation_blocks_for_long_straight_line(self):
        body = "\n".join(f"addi a0, a0, {i % 7}" for i in range(25))
        layout = layout_of(f"main:\n{body}\n halt\n")
        self._check(layout)
        assert len(layout.blocks) >= 5  # 26 instructions / 6 per block

    def test_two_pred_leader_becomes_mux(self):
        layout = layout_of("""
        main:
            beq a0, zero, join
            jmp join
        join:
            halt
        """)
        join_block = layout.leader_blocks[2]
        assert join_block.kind is BlockKind.MUX

    def test_fallthrough_into_mux_gets_thunk(self):
        layout = layout_of("""
        main:
            beq a0, zero, join
            addi a0, a0, 1
        join:
            halt
        """)
        # the fall-through from `addi` needs an offset-0 forwarder
        join_block = layout.leader_blocks[2]
        assert join_block.kind is BlockKind.MUX
        forwarders = [b for b in layout.blocks if b.is_forwarder]
        assert len(forwarders) == 1
        assert forwarders[0].kind is BlockKind.EXEC
        # the forwarder physically precedes the mux block
        assert forwarders[0].seq == join_block.seq - 1
        self._check(layout)

    @pytest.mark.parametrize("callers", [3, 4, 5, 8, 16])
    def test_mux_tree_node_count(self, callers):
        calls = "\n".join("call lib" for _ in range(callers))
        layout = layout_of(f"main:\n{calls}\n halt\nlib:\n ret\n")
        # a binary fan-in of k callers needs exactly k-1 mux nodes
        # (tree forwarders + the function's own mux block)
        mux_count = sum(1 for b in layout.blocks
                        if b.kind is BlockKind.MUX)
        assert mux_count == callers - 1
        self._check(layout)

    def test_unreachable_block_sealed_with_sentinel(self):
        layout = layout_of("""
        main:
            halt
        dead:
            addi a0, a0, 1
            halt
        """)
        dead_block = layout.blocks[1]
        assert layout.entry_prev_pcs(dead_block) == \
            [UNREACHABLE_PREV_PC]

    def test_dead_code_after_ret_sealed_with_sentinel(self):
        layout = layout_of("""
        main:
            call f
            halt
        f:
            ret
            addi a0, a0, 7
            halt
        """)
        # the block holding the dead addi must not be reachable via the
        # physical-fall edge from f's ret block
        dead = [b for b in layout.blocks
                if any(i.mnemonic == "addi" for i in b.payload)]
        assert len(dead) == 1
        assert layout.entry_prev_pcs(dead[0]) == \
            [UNREACHABLE_PREV_PC]

    def test_program_without_terminator_rejected(self):
        program = parse("main: jmp main\n")
        # craft: single addi with no terminator
        from repro.isa import Instruction
        program.instructions = [Instruction("addi", rd=4, rs1=4, imm=1)]
        from repro.cfg import build_cfg
        from repro.errors import CFGError
        with pytest.raises(CFGError):
            build_cfg(program)


class TestSmallBlockAblation:
    def test_six_word_blocks_layout(self):
        layout = layout_of(SIMPLE, ProtectionProfile(block_words=6))
        for block in layout.blocks:
            assert len(block.payload) == block.capacity
            assert block.base % 24 == 0
        TestInvariants()._check(layout)


PROGRAM_BODIES = st.lists(
    st.sampled_from([
        "addi a0, a0, 1",
        "add a1, a0, a1",
        "sw a0, -4(sp)",
        "lw a2, -4(sp)",
        "mul a1, a1, a1",
        "sub a0, a1, a0",
    ]),
    min_size=1, max_size=30)


class TestLayoutProperties:
    @given(body=PROGRAM_BODIES,
           branch_at=st.integers(min_value=0, max_value=29))
    @settings(max_examples=40, deadline=None)
    def test_random_straight_line_with_branch(self, body, branch_at):
        lines = list(body)
        index = min(branch_at, len(lines))
        lines.insert(index, "beq a0, zero, out")
        source = "main:\n" + "\n".join(lines) + "\nout: halt\n"
        layout = layout_of(source)
        TestInvariants()._check(layout)
        # every source instruction is placed exactly once
        placed = sorted(layout.block_of_instr)
        assert placed == list(range(len(lines) + 1))

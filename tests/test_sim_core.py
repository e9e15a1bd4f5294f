"""Functional semantics tests for the SRISC execution core."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.isa import Instruction
from repro.isa.instructions import SPECS
from repro.isa.program import CODE_BASE, DATA_BASE, Executable
from repro.sim import (CPUState, Memory, VanillaMachine, compile_handler,
                       compile_vanilla_run, execute, to_signed)
from repro.sim.core import _trunc_div
from repro.sim.engine import HALT, SEMANTICS

I32 = st.integers(min_value=0, max_value=0xFFFFFFFF)
S32 = st.integers(min_value=-(2**31), max_value=2**31 - 1)


@pytest.fixture
def machine_bits():
    state = CPUState.reset(entry=0)
    memory = Memory(code_words=[0] * 16)
    return state, memory


def run_one(state, memory, instr, pc=0):
    return execute(instr, state, memory, pc)


class TestAlu:
    def test_add_wraps(self, machine_bits):
        state, mem = machine_bits
        state.write(5, 0xFFFFFFFF)
        state.write(6, 2)
        run_one(state, mem, Instruction("add", rd=7, rs1=5, rs2=6))
        assert state.read(7) == 1

    def test_sub_wraps(self, machine_bits):
        state, mem = machine_bits
        state.write(5, 0)
        state.write(6, 1)
        run_one(state, mem, Instruction("sub", rd=7, rs1=5, rs2=6))
        assert state.read(7) == 0xFFFFFFFF

    def test_r0_is_immutable(self, machine_bits):
        state, mem = machine_bits
        state.write(5, 9)
        run_one(state, mem, Instruction("add", rd=0, rs1=5, rs2=5))
        assert state.read(0) == 0

    def test_sra_sign_extends(self, machine_bits):
        state, mem = machine_bits
        state.write(5, 0x80000000)
        state.write(6, 4)
        run_one(state, mem, Instruction("sra", rd=7, rs1=5, rs2=6))
        assert state.read(7) == 0xF8000000

    def test_srl_zero_extends(self, machine_bits):
        state, mem = machine_bits
        state.write(5, 0x80000000)
        state.write(6, 4)
        run_one(state, mem, Instruction("srl", rd=7, rs1=5, rs2=6))
        assert state.read(7) == 0x08000000

    def test_shift_amount_masked_to_5_bits(self, machine_bits):
        state, mem = machine_bits
        state.write(5, 1)
        state.write(6, 33)
        run_one(state, mem, Instruction("sll", rd=7, rs1=5, rs2=6))
        assert state.read(7) == 2

    def test_slt_signed_vs_sltu_unsigned(self, machine_bits):
        state, mem = machine_bits
        state.write(5, 0xFFFFFFFF)  # -1 signed, huge unsigned
        state.write(6, 1)
        run_one(state, mem, Instruction("slt", rd=7, rs1=5, rs2=6))
        assert state.read(7) == 1
        run_one(state, mem, Instruction("sltu", rd=7, rs1=5, rs2=6))
        assert state.read(7) == 0

    def test_lui_ori_builds_constant(self, machine_bits):
        state, mem = machine_bits
        run_one(state, mem, Instruction("lui", rd=5, imm=0xDEAD))
        run_one(state, mem, Instruction("ori", rd=5, rs1=5, imm=0xBEEF))
        assert state.read(5) == 0xDEADBEEF

    @given(a=S32, b=S32)
    @settings(max_examples=60, deadline=None)
    def test_div_rem_c_semantics(self, a, b):
        if b == 0:
            return
        # the C identity: a == (a/b)*b + a%b, remainder has dividend's sign
        q = _trunc_div(a, b)
        r = a - b * q
        assert q * b + r == a
        assert abs(r) < abs(b)

    def test_div_by_zero(self, machine_bits):
        state, mem = machine_bits
        state.write(5, 42)
        run_one(state, mem, Instruction("div", rd=7, rs1=5, rs2=0))
        assert state.read(7) == 0xFFFFFFFF
        run_one(state, mem, Instruction("rem", rd=7, rs1=5, rs2=0))
        assert state.read(7) == 42

    def test_div_negative_truncates_toward_zero(self, machine_bits):
        state, mem = machine_bits
        state.write(5, (-7) & 0xFFFFFFFF)
        state.write(6, 2)
        run_one(state, mem, Instruction("div", rd=7, rs1=5, rs2=6))
        assert to_signed(state.read(7)) == -3  # C: -7/2 == -3, not -4
        run_one(state, mem, Instruction("rem", rd=7, rs1=5, rs2=6))
        assert to_signed(state.read(7)) == -1


class TestShiftImmediateMasking:
    """``slli``/``srli``/``srai`` mask the shift amount to 0..31 exactly
    like the register forms ``sll``/``srl``/``sra`` do.

    The decoder rejects encoded shift amounts >= 32, so this only shows
    with hand-constructed instructions (fuzzers, fault models) — but the
    two forms must agree there too (``TestFastTiersAgree`` holds both
    tiers of the fast engine to the same shift amounts).
    """

    VALUE = 0x80000001

    @pytest.mark.parametrize("amount", [31, 32, 63])
    @pytest.mark.parametrize("imm_name,reg_name",
                             [("slli", "sll"), ("srli", "srl"),
                              ("srai", "sra")])
    def test_immediate_matches_register_form(self, machine_bits,
                                             imm_name, reg_name, amount):
        state, mem = machine_bits
        state.write(5, self.VALUE)
        state.write(6, amount)
        run_one(state, mem, Instruction(reg_name, rd=7, rs1=5, rs2=6))
        run_one(state, mem, Instruction(imm_name, rd=8, rs1=5, imm=amount))
        assert state.read(8) == state.read(7), (imm_name, amount)

    def test_boundary_31_exact_values(self, machine_bits):
        state, mem = machine_bits
        state.write(5, self.VALUE)
        run_one(state, mem, Instruction("slli", rd=7, rs1=5, imm=31))
        assert state.read(7) == 0x80000000
        run_one(state, mem, Instruction("srli", rd=7, rs1=5, imm=31))
        assert state.read(7) == 1
        run_one(state, mem, Instruction("srai", rd=7, rs1=5, imm=31))
        assert state.read(7) == 0xFFFFFFFF
        # 32 and 63 wrap to 0 and 31
        run_one(state, mem, Instruction("slli", rd=7, rs1=5, imm=32))
        assert state.read(7) == self.VALUE
        run_one(state, mem, Instruction("srai", rd=7, rs1=5, imm=63))
        assert state.read(7) == 0xFFFFFFFF


#: register values at the edges of 32-bit arithmetic
EDGES = (0, 1, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF)
#: shift amounts at and past the 5-bit mask
SHIFTS = (31, 32, 63)
#: immediates: both signs, both 16-bit extremes and the shift edges
IMMS = (0, 1, -1, 0x7FFF, -0x8000, 0xFFFF) + SHIFTS
#: the address the instruction under test sits at
PC = 0x40
#: a data word at DATA_BASE + 8 and its neighbours, sign bits set
RAM_PREFIX = bytes([0x80, 0xFF, 0x01, 0x7F, 0x12, 0x34, 0x56, 0x78,
                    0xFE, 0xDC, 0x80, 0x00, 0xFF, 0xFF, 0x7F, 0x80])


def edge_cases(name):
    """``(instruction, r5, r6)`` cases at the edges of ``name``: rd = r0,
    rd == rs1, every edge value and shift amount, divide by zero and
    INT_MIN / -1, sign-extending and misaligned accesses."""
    spec = SPECS[name]
    pairs = [(x, y) for x in EDGES for y in EDGES + SHIFTS]
    if spec.fmt == "R":
        for rd in (7, 5, 0):
            for x, y in pairs:
                yield Instruction(name, rd=rd, rs1=5, rs2=6), x, y
    elif spec.fmt == "I":
        for rd in (7, 5, 0):
            for imm in IMMS:
                for x in EDGES:
                    yield Instruction(name, rd=rd, rs1=5, imm=imm), x, 0
    elif spec.is_load:
        for rd in (7, 5, 0):
            for imm in (0, -8, 2, 1, 6, -0x8000):
                yield Instruction(name, rd=rd, rs1=5, imm=imm), \
                    DATA_BASE + 8, 0
    elif spec.is_store:
        for rs2 in (6, 5):
            for imm in (0, -8, 2, 1, 6, -0x8000):
                for y in EDGES:
                    yield Instruction(name, rs1=5, rs2=rs2, imm=imm), \
                        DATA_BASE + 8, y
    elif spec.fmt == "B":
        for rs2 in (6, 5):
            for x, y in pairs:
                yield Instruction(name, rs1=5, rs2=rs2, imm=0x100), x, y
    elif spec.fmt == "J":
        yield Instruction(name, imm=0x100), 0, 0
    elif spec.fmt == "JR":
        rds = (7, 5, 0) if name == "jalr" else (None,)
        for rd in rds:
            for x in EDGES:
                yield Instruction(name, rd=rd, rs1=5), x, 0
    else:
        yield Instruction(name), 0, 0


def fresh_bits(r5, r6):
    state = CPUState.reset(entry=0)
    state.write(5, r5)
    state.write(6, r6)
    memory = Memory(code_words=[0] * 16)
    memory.ram[:len(RAM_PREFIX)] = RAM_PREFIX
    return state.regs, memory


def oracle_step(instr, r5, r6):
    """``core.execute``: (registers, RAM, next) where next is "seq",
    "halt", the next PC or ("trap", reason)."""
    regs, memory = fresh_bits(r5, r6)
    try:
        out = execute(instr, CPUState(regs=regs, pc=PC), memory, PC)
    except SimulationError as exc:
        return regs, memory.ram, ("trap", str(exc))
    if out.halted:
        return regs, memory.ram, "halt"
    return regs, memory.ram, "seq" if out.next_pc is None else out.next_pc


def cold_step(instr, r5, r6):
    """The cold tier: the instruction's predecoded handler."""
    regs, memory = fresh_bits(r5, r6)
    try:
        target = compile_handler(instr)(regs, memory, PC)
    except SimulationError as exc:
        return regs, memory.ram, ("trap", str(exc))
    if target == HALT:
        return regs, memory.ram, "halt"
    return regs, memory.ram, "seq" if target is None else target


def hot_step(instr, r5, r6):
    """The hot tier: a compiled vanilla run of the instruction alone
    (a ``halt`` follows it, so a sequential instruction ends the run
    there)."""
    machine = VanillaMachine(Executable(code_words=[0] * 16, data=b"",
                                        symbols={}, entry=CODE_BASE))
    halt = Instruction("halt")
    machine._decode = lambda pc: (instr if pc == PC else halt, None)
    fn, _n, _covered = compile_vanilla_run(machine, PC)
    regs, memory = fresh_bits(r5, r6)
    _n, _cycles, _hits, _misses, pc, arg = fn(
        regs, memory.load, memory.store, memory.mmio,
        machine.icache._tags, memory.ram, 1)
    if arg is None:
        return regs, memory.ram, "seq" if pc == PC + 4 else pc
    code, payload = arg
    if code == 4:
        return regs, memory.ram, ("trap", payload)
    # a terminal exit reports its own pc: the halt that ended the run,
    # or the instruction itself when it halts or its store exits
    assert pc == (PC + 4 if code == 2 and not instr.spec.is_halt else PC)
    return regs, memory.ram, "halt" if instr.spec.is_halt else "seq"


class TestFastTiersAgree:
    """Both renderings of the semantics table — the cold tier's handler
    and the hot tier's compiled run — agree with ``core.execute`` on every
    mnemonic at the edges of its operands."""

    def test_table_covers_every_mnemonic(self):
        assert set(SEMANTICS) == set(SPECS)

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_predecoded_handler_agrees(self, name):
        cases = 0
        for instr, r5, r6 in edge_cases(name):
            oracle = oracle_step(instr, r5, r6)
            where = (instr, hex(r5), hex(r6))
            assert cold_step(instr, r5, r6) == oracle, where
            assert hot_step(instr, r5, r6) == oracle, where
            cases += 1
        assert cases


class TestMemoryOps:
    def test_store_load_roundtrip(self, machine_bits):
        state, mem = machine_bits
        state.write(5, DATA_BASE)
        state.write(6, 0xCAFEBABE)
        run_one(state, mem, Instruction("sw", rs2=6, rs1=5, imm=8))
        run_one(state, mem, Instruction("lw", rd=7, rs1=5, imm=8))
        assert state.read(7) == 0xCAFEBABE

    def test_lb_sign_extension(self, machine_bits):
        state, mem = machine_bits
        state.write(5, DATA_BASE)
        state.write(6, 0x80)
        run_one(state, mem, Instruction("sb", rs2=6, rs1=5, imm=0))
        run_one(state, mem, Instruction("lb", rd=7, rs1=5, imm=0))
        assert state.read(7) == 0xFFFFFF80
        run_one(state, mem, Instruction("lbu", rd=7, rs1=5, imm=0))
        assert state.read(7) == 0x80

    def test_lh_sign_extension(self, machine_bits):
        state, mem = machine_bits
        state.write(5, DATA_BASE)
        state.write(6, 0x8001)
        run_one(state, mem, Instruction("sh", rs2=6, rs1=5, imm=2))
        run_one(state, mem, Instruction("lh", rd=7, rs1=5, imm=2))
        assert state.read(7) == 0xFFFF8001
        run_one(state, mem, Instruction("lhu", rd=7, rs1=5, imm=2))
        assert state.read(7) == 0x8001


class TestControl:
    def test_branch_taken_and_not_taken(self, machine_bits):
        state, mem = machine_bits
        state.write(5, 3)
        state.write(6, 3)
        out = run_one(state, mem,
                      Instruction("beq", rs1=5, rs2=6, imm=0x40), pc=0)
        assert out.next_pc == 0x40 and out.branch_taken
        out = run_one(state, mem,
                      Instruction("bne", rs1=5, rs2=6, imm=0x40), pc=0)
        assert out.next_pc is None and not out.branch_taken

    def test_signed_vs_unsigned_branches(self, machine_bits):
        state, mem = machine_bits
        state.write(5, 0xFFFFFFFF)
        state.write(6, 0)
        assert run_one(state, mem,
                       Instruction("blt", rs1=5, rs2=6, imm=8)).branch_taken
        assert not run_one(state, mem,
                           Instruction("bltu", rs1=5, rs2=6, imm=8)).branch_taken

    def test_call_writes_ra(self, machine_bits):
        state, mem = machine_bits
        out = run_one(state, mem, Instruction("call", imm=0x100), pc=0x20)
        assert out.next_pc == 0x100
        assert state.read(1) == 0x24

    def test_jalr_writes_link_then_jumps(self, machine_bits):
        state, mem = machine_bits
        state.write(5, 0x80)
        out = run_one(state, mem,
                      Instruction("jalr", rd=1, rs1=5), pc=0x10)
        assert out.next_pc == 0x80 and state.read(1) == 0x14

    def test_jalr_link_to_target_register(self, machine_bits):
        # jalr rd == rs1: the jump target is read before the link write
        state, mem = machine_bits
        state.write(5, 0x80)
        out = run_one(state, mem,
                      Instruction("jalr", rd=5, rs1=5), pc=0x10)
        assert out.next_pc == 0x80 and state.read(5) == 0x14

    def test_halt(self, machine_bits):
        state, mem = machine_bits
        assert run_one(state, mem, Instruction("halt")).halted

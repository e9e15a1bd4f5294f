"""Region hazards: the SOFIA hot tier's regions held to the reference oracle.

A region (:func:`repro.sim.fused.compile_sofia_block`) runs many verified
blocks in one call with the registers in locals, so each way control can
leave it, or enter it, is a place it could diverge from one
``core.execute`` per slot.  Each case below builds its exact condition on
a fast machine whose block cache is warm (every block verified by an
interpret-only pass, so regions grow over whole loops on the first
traversal) and locks it against the oracle in budget stints of 1, 7 and
the full run: after every stint the result fields, the cycles, the
I-cache statistics, ``blocks_executed``, ``mac_fetch_cycles``, the PC
and ``prev_pc``, every register and all of data RAM must be equal.

* adoption at a non-head member: a machine adopts another's region first
  at its second member, and must run that member, not the head;
* two overlapping regions sharing a block, then ``poke_code`` into it:
  both regions go, including the one not registered at the poked edge;
* a store from inside a running region into a later member's code word:
  the region ends at the storing block's boundary and the next MAC check
  resets;
* a misaligned load in the third member after the first two wrote
  registers: the trap writes the registers back;
* an MMIO exit mid-region;
* ``pending_fetch_restore`` armed before ``run()`` while a region is
  registered: the first block runs alone, so the glitch is restored
  before the region's next load of the glitched word;
* ``verify_skip_budget`` with a region registered: the force-accepted
  block is interpreted and never joins a region.
"""

import pytest

import repro.sim.fused as fused
from repro.crypto import DeviceKeys
from repro.faults.models import FetchGlitch
from repro.isa import parse
from repro.isa.program import DATA_BASE
from repro.isa.registers import ALIASES
from repro.sim import SofiaMachine, Status
from repro.transform import transform

KEYS = DeviceKeys.from_seed(0x5EC7)
NONCE = 0x2016

#: the budget stints of the lockstep: single blocks, a few blocks, and
#: the whole run in one call
STINTS = (1, 7, 50_000_000)


@pytest.fixture(autouse=True)
def compile_on_first_traversal(monkeypatch):
    monkeypatch.setattr(fused, "COMPILE_THRESHOLD", 1)


def build(source):
    return transform(parse(source), KEYS, nonce=NONCE)


def machine(image, regs=(), engine=None):
    """A machine on ``image`` with the registers ``regs`` (``(name,
    value)`` pairs) preset."""
    machine = SofiaMachine(image, KEYS, engine=engine)
    for name, value in regs:
        machine.state.regs[ALIASES[name]] = value
    return machine


def warm_blocks(image, regs=()):
    """The block cache of an interpret-only run of ``image``."""
    warm = machine(image, regs, engine="reference")
    warm.run(1_000_000)
    return warm._block_cache


def pair(image, regs=(), blocks=None):
    """A reference machine and a fast one adopting ``blocks`` (by default
    a warm cache of its own)."""
    fast = machine(image, regs)
    fast._block_cache.update(warm_blocks(image, regs) if blocks is None
                             else blocks)
    return machine(image, regs, engine="reference"), fast


def observe(machine, result):
    return (result.status, result.cycles, result.instructions,
            result.exit_code, result.icache.hits, result.icache.misses,
            result.blocks_executed, result.mac_fetch_cycles,
            result.output_ints, result.trap_reason,
            str(result.violation) if result.violation else None,
            machine.state.pc, machine.prev_pc, tuple(machine.state.regs),
            bytes(machine.memory.ram))


def lockstep(ref, fast, stint, events=()):
    """Run both machines in budget stints of ``stint`` until the run
    ends, comparing after every stint.  ``events`` are ``(count,
    action)`` pairs: once both have executed ``count`` instructions (a
    stint never runs past it), ``action(machine, is_fast)`` is applied to
    each.  Returns the last result."""
    events = sorted(events, key=lambda event: event[0])
    executed = 0
    while True:
        if events and executed >= events[0][0]:
            _count, action = events.pop(0)
            action(ref, False)
            action(fast, True)
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


def regions_at(machine, key):
    """The distinct regions registered on ``machine`` that contain edge
    ``key`` (one compiled namespace each)."""
    return {id(entry.__globals__): entry
            for entry in machine._fused_edges.values()
            if key in entry.members}


# -- adoption at a non-head member ------------------------------------------

LOOP = """
main:
    li t0, 0
    li t1, 12
    li a0, 0
loop:
    addi a0, a0, 3
    addi a1, a0, 1
    addi a2, a1, 2
    addi a3, a2, 3
    addi a4, a3, 4
    addi a5, a4, 5
    addi a0, a5, 6
    addi t0, t0, 1
    blt t0, t1, loop
    li a1, 0xFFFF0004
    sw a0, 0(a1)
    halt
"""


@pytest.mark.parametrize("stint", STINTS)
def test_adoption_at_a_non_head_member(stint):
    image = build(LOOP)
    owner = SofiaMachine(image, KEYS)
    owner._block_cache.update(warm_blocks(image))
    owner.run()
    ref, fast = pair(image, blocks=owner._block_cache)
    # the oracle runs the head block, so the fast machine's first edge is
    # the region's second member
    fast.engine = "reference"
    assert observe(fast, fast.run(1)) == observe(ref, ref.run(1))
    fast.engine = "fast"
    key = (fast.prev_pc, fast.state.pc)
    region = fast._block_cache[key].region
    assert region is not None and region.members[0][0] != key
    assert not fast._fused_edges
    expected = lockstep(ref, fast, stint)
    assert fast._fused_edges[key].__defaults__ != (0,)
    assert expected.status is Status.HALT


# -- overlapping regions ------------------------------------------------------

OVERLAP = """
main:
    li t0, 0
    li t1, 6
    li t3, 0
loop:
    call p
    jmp shared
back:
    call q
    jmp shared
shared:
    addi t2, t2, 1
    addi t2, t2, 2
    addi t2, t2, 3
    addi t2, t2, 4
    addi t2, t2, 5
    addi t2, t2, 6
    addi t2, t2, 7
    addi t2, t2, 8
    xori t3, t3, 1
    bne t3, zero, back
    addi t0, t0, 1
    blt t0, t1, loop
    li a1, 0xFFFF0004
    sw t2, 0(a1)
    halt
p:
    addi a0, a0, 1
    ret
q:
    addi a1, a1, 1
    ret
"""


def second_block(image, label):
    """The edge and the first payload word of the block after the one at
    ``label`` (its sequential successor)."""
    base = image.symbols[label]
    base -= (base - image.code_base) % image.block_bytes
    following = base + image.block_bytes
    return (following - 4, following), following + 4 * image.profile.mac_words


@pytest.mark.parametrize("stint", STINTS)
def test_overlapping_regions_both_drop_on_a_code_write(stint):
    image = build(OVERLAP)
    ref, fast = pair(image)
    shared, word = second_block(image, "shared")
    # by now both return sites have grown a region through the shared
    # block (each from an edge only an indirect return reaches)
    at = 80

    def poke(machine, is_fast):
        if is_fast:
            assert shared in machine._block_cache
            assert len(regions_at(machine, shared)) >= 2
        machine.memory.poke_code(word, machine.memory.fetch_word(word) ^ 1)
        if is_fast:
            assert not regions_at(machine, shared)

    expected = lockstep(ref, fast, stint, [(at, poke)])
    assert expected.status is Status.RESET


# -- a store into a later member's code -------------------------------------

#: t6 holds the address of ``later`` (preset: SOFIA code takes no
#: addresses of plain code labels)
CODE_STORE = """
main:
    li t0, 0
    li t1, 5
loop:
    addi t0, t0, 1
    blt t0, t1, skip
    sw zero, 0(t6)
skip:
    addi a0, a0, 3
    addi a0, a0, 4
    addi a0, a0, 5
    addi a0, a0, 6
    addi a0, a0, 7
    addi a0, a0, 8
later:
    addi a0, a0, 9
    addi a0, a0, 10
    blt t0, t1, loop
    li a1, 0xFFFF0004
    sw a0, 0(a1)
    halt
"""


@pytest.mark.parametrize("stint", STINTS)
def test_store_into_a_later_member_ends_the_region(stint):
    image = build(CODE_STORE)
    later = image.symbols["later"]
    # the warm pass stores to RAM instead, so its blocks stay valid
    ref, fast = pair(image, [("t6", later)],
                     warm_blocks(image, [("t6", DATA_BASE)]))
    expected = lockstep(ref, fast, stint)
    assert expected.status is Status.RESET
    assert expected.violation.kind == "integrity"
    assert fast.memory.fetch_word(later) == 0
    if stint == STINTS[-1]:
        # the store ran inside a region that inlined the written block
        assert expected.blocks_executed > 5


# -- a trap after registers were written ------------------------------------

MISALIGNED = """
main:
    li t0, 0
    la t6, buffer
loop:
    addi a0, a0, 1
    addi a1, a1, 2
    addi a2, a2, 3
    addi a3, a3, 4
    addi a4, a4, 5
    addi a5, a5, 6
    addi a0, a0, 7
    addi a1, a1, 8
    addi a2, a2, 9
    addi a3, a3, 10
    addi a4, a4, 11
    addi a5, a5, 12
    lw t2, 0(t6)
    addi t6, t6, 2
    addi t0, t0, 1
    jmp loop
.data
buffer:
    .word 1, 2, 3, 4
"""


@pytest.mark.parametrize("stint", STINTS)
def test_misaligned_load_after_members_wrote_registers(stint):
    image = build(MISALIGNED)
    ref, fast = pair(image)
    expected = lockstep(ref, fast, stint)
    assert expected.status is Status.TRAP
    assert "misaligned" in expected.trap_reason
    regs = ref.state.regs
    assert regs[ALIASES["a0"]] and regs[ALIASES["a5"]]


# -- an MMIO exit mid-region --------------------------------------------------

EXIT = """
main:
    li t0, 0
    li t1, 4
    li a2, 0xFFFF0008
loop:
    addi a0, a0, 7
    addi a1, a1, 5
    addi a3, a3, 3
    addi t0, t0, 1
    blt t0, t1, next
    sw t0, 0(a2)
next:
    addi a4, a4, 1
    addi a5, a5, 2
    addi a0, a0, 1
    jmp loop
"""


@pytest.mark.parametrize("stint", STINTS)
def test_mmio_exit_mid_region(stint):
    image = build(EXIT)
    ref, fast = pair(image)
    expected = lockstep(ref, fast, stint)
    assert expected.status is Status.EXIT and expected.exit_code == 4


# -- a fetch glitch pending at run() -----------------------------------------

#: t6 holds the address of ``dead``, a code word the loop reads as data
GLITCH = """
main:
    li t0, 0
    li t1, 20
loop:
    addi t0, t0, 1
    addi a1, a1, 1
    addi a2, a2, 1
    addi a3, a3, 1
    addi a4, a4, 1
    addi a5, a5, 1
    lw t2, 0(t6)
    add a0, a0, t2
    blt t0, t1, loop
    li a1, 0xFFFF0004
    sw a0, 0(a1)
    halt
dead:
    addi a0, a0, 1
    halt
"""


@pytest.mark.parametrize("stint", STINTS)
def test_pending_fetch_restore_runs_one_block_alone(stint):
    image = build(GLITCH)
    dead = image.symbols["dead"]
    ref, fast = pair(image, [("t6", dead)])

    def glitch(machine, is_fast):
        if is_fast:
            key = (machine.prev_pc, machine.state.pc)
            assert key in machine._fused_edges
        FetchGlitch(0, address=dead, xor_mask=1 << 7).inject(machine)

    expected = lockstep(ref, fast, stint, [(30, glitch)])
    assert expected.status is Status.HALT
    assert fast.pending_fetch_restore is None
    # the glitched word lived for exactly one block: no load saw it
    clean = machine(image, [("t6", dead)], engine="reference").run()
    assert expected.output_ints == clean.output_ints


# -- a glitched comparator with a region registered -------------------------

@pytest.mark.parametrize("stint", STINTS)
def test_verify_skip_with_a_region_registered(stint):
    image = build(LOOP)
    ref, fast = pair(image)
    key, word = second_block(image, "loop")

    def tamper(machine, is_fast):
        if is_fast:
            assert regions_at(machine, key)
        machine.verify_skip_budget += 1
        machine.memory.poke_code(word, machine.memory.fetch_word(word) ^ 4)

    expected = lockstep(ref, fast, stint, [(20, tamper)])
    assert expected.status is Status.RESET
    assert fast.verify_skip_budget == 0
    assert not fast._block_cache[key].ok
    assert all(key not in entry.members
               for entry in fast._fused_edges.values())

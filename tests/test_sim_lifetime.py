"""Machine lifetime: freed by refcount, RAM recycled, handler code shared.

A dead machine must be freed the moment its last reference goes — not at
the next cyclic collection — so every test of that runs with the cyclic
GC disabled.  Its RAM buffer then goes back to the per-process pool of
:mod:`repro.sim.memory`, and the next :class:`Memory` of that size must
see exactly its own initial RAM; a buffer anything else still holds
never goes back.
"""

import gc
import weakref

import pytest

from repro.baselines import EcbIsrMachine, XorIsrMachine
from repro.crypto import DeviceKeys
from repro.isa import assemble_text, parse
from repro.isa.program import DATA_BASE, STACK_TOP
from repro.sim import GoldenTrace, Memory, SofiaMachine, VanillaMachine
from repro.sim import fused
from repro.sim import memory as memory_module
from repro.sim.memory import CHUNK_BYTES, POOL_BUFFERS
from repro.transform import transform

KEYS = DeviceKeys.from_seed(321)

RAM_BYTES = STACK_TOP - DATA_BASE

#: a loop that also writes the stack, so its machine's RAM is dirty
COUNTER = """
main:
    li t0, 0
    li t1, 50
loop:
    addi t0, t0, 1
    addi sp, sp, -4
    sw t0, 0(sp)
    addi sp, sp, 4
    blt t0, t1, loop
    li t2, 0xFFFF0004
    sw t0, 0(t2)
    halt
"""


@pytest.fixture
def no_gc():
    gc.collect()
    gc.disable()
    yield
    gc.enable()


@pytest.fixture
def pool():
    """This process's free buffers, emptied before and after the test."""
    memory_module._FREE.clear()
    yield memory_module._FREE
    memory_module._FREE.clear()


def _image():
    return transform(parse(COUNTER), KEYS, nonce=9)


def _sofia():
    return SofiaMachine(_image(), KEYS)


def _vanilla():
    return VanillaMachine(assemble_text(COUNTER))


def _ecb():
    return EcbIsrMachine(assemble_text(COUNTER), 0x1234)


def _xor():
    return XorIsrMachine(assemble_text(COUNTER), 0x1234)


def _fork():
    image = _image()
    trace = GoldenTrace.record(image, KEYS, 10_000)
    machine, _start = trace.fork_at(image, KEYS, 40)
    return machine


@pytest.mark.usefixtures("no_gc")
class TestFreedByRefcount:
    @pytest.mark.parametrize("build", [_sofia, _vanilla, _ecb, _xor, _fork],
                             ids=["sofia", "vanilla", "ecb", "xor", "fork"])
    def test_dead_machine_is_freed_without_the_cyclic_gc(self, build, tier):
        machine = build()
        assert machine.run().instructions > 0
        ref = weakref.ref(machine)
        del machine
        assert ref() is None

    def test_code_writes_still_reach_the_machine(self, tier):
        # the listener is held weakly, but held: a poke still invalidates
        machine = _ecb()
        machine.run()
        assert machine._predecoded
        machine.memory.poke_code(0, machine.memory.fetch_word(0))
        assert not machine._predecoded

    def test_golden_record_machine_returns_its_buffer(self, pool, tier):
        trace = GoldenTrace.record(_image(), KEYS, 10_000)
        assert trace.result.instructions > 0
        assert len(pool[RAM_BYTES]) == 1


def _dirty_offsets(size):
    """The first and last byte, both sides of every chunk boundary and
    one byte mid-RAM."""
    offsets = {0, size - 1, size // 2 + 123}
    for boundary in range(CHUNK_BYTES, size, CHUNK_BYTES):
        offsets.update((boundary - 1, boundary))
    return sorted(offsets)


class TestRamPool:
    def test_recycled_buffer_holds_exactly_the_new_initial_ram(self, pool):
        old = Memory([0], data=b"\xAA" * 5000)
        for offset in _dirty_offsets(RAM_BYTES):
            old.ram[offset] = 0x5A
        del old
        (recycled,) = pool[RAM_BYTES]
        data = bytes(range(256)) * 11   # shorter than the old segment
        new = Memory([0], data=data)
        assert new.ram is recycled
        assert bytes(new.ram) == data + bytes(RAM_BYTES - len(data))

    def test_held_ram_keeps_its_bytes(self, pool):
        old = Memory([0], data=b"held")
        ram = old.ram
        ram[-1] = 7
        del old
        assert not pool.get(RAM_BYTES)
        new = Memory([0])
        assert new.ram is not ram
        assert ram[:4] == b"held" and ram[-1] == 7

    def test_live_memoryview_keeps_its_bytes(self, pool):
        old = Memory([0], data=b"view")
        view = memoryview(old.ram)
        del old
        assert not pool.get(RAM_BYTES)
        new = Memory([0])
        assert new.ram is not view.obj
        assert view[:4] == b"view"

    def test_sizes_are_never_mixed(self, pool):
        small_bytes = 3 * 4096
        small = Memory([0], data_limit=DATA_BASE + small_bytes)
        del small
        big = Memory([0])
        assert len(big.ram) == RAM_BYTES
        del big
        other = Memory([0], data_limit=DATA_BASE + 2 * 4096)
        assert len(other.ram) == 2 * 4096
        assert [len(pool[size]) for size in (small_bytes, RAM_BYTES)] \
            == [1, 1]

    def test_pool_is_capped(self, pool):
        memories = [Memory([0]) for _ in range(POOL_BUFFERS + 2)]
        del memories
        assert len(pool[RAM_BYTES]) == POOL_BUFFERS


class TestHandlerCodeCache:
    def test_same_source_shares_code_other_source_gets_its_own(
            self, monkeypatch):
        monkeypatch.setattr(fused, "COMPILE_THRESHOLD", 1)
        # two separately transformed copies of one program
        first, second = SofiaMachine(_image(), KEYS), SofiaMachine(
            _image(), KEYS)
        assert first.image is not second.image
        first.run()
        second.run()
        handlers = {key: block.region.fn
                    for key, block in first._block_cache.items()
                    if block.region is not None}
        assert len(handlers) >= 2
        for key, handler in handlers.items():
            twin = second._block_cache[key].region.fn
            assert twin is not handler
            assert twin.__globals__ is not handler.__globals__
            assert twin.__code__ is handler.__code__
        sources = {}
        for handler in handlers.values():
            sources.setdefault(handler.__fused_source__, set()).add(
                id(handler.__code__))
        assert len(sources) >= 2
        assert all(len(codes) == 1 for codes in sources.values())
        assert len({code for codes in sources.values()
                    for code in codes}) == len(sources)

"""Memory system and I-cache tests."""

import pytest

from repro.errors import SimulationError
from repro.isa.program import (DATA_BASE, MMIO_ACTUATOR, MMIO_EXIT,
                               MMIO_PUTCHAR, MMIO_PUTINT)
from repro.sim import DirectMappedCache, Memory


@pytest.fixture
def memory():
    return Memory(code_words=[0x11111111, 0x22222222], data=b"\x01\x02\x03\x04")


class TestCodeRegion:
    def test_fetch(self, memory):
        assert memory.fetch_word(0) == 0x11111111
        assert memory.fetch_word(4) == 0x22222222

    def test_fetch_misaligned(self, memory):
        with pytest.raises(SimulationError):
            memory.fetch_word(2)

    def test_fetch_out_of_range(self, memory):
        with pytest.raises(SimulationError):
            memory.fetch_word(8)

    def test_poke_code_notifies_listeners(self, memory):
        seen = []
        memory.add_code_listener(seen.append)
        memory.poke_code(4, 0xDEAD)
        assert seen == [4]
        assert memory.fetch_word(4) == 0xDEAD

    def test_store_to_code_region_is_a_code_write(self, memory):
        seen = []
        memory.add_code_listener(seen.append)
        memory.store(0, 0x99, 4)
        assert seen == [0]
        assert memory.fetch_word(0) == 0x99

    def test_sub_word_code_store_rejected(self, memory):
        with pytest.raises(SimulationError):
            memory.store(0, 1, 1)

    def test_load_from_code_returns_ciphertext_word(self, memory):
        assert memory.load(0, 4, signed=False) == 0x11111111


class TestDataRegion:
    def test_initial_data(self, memory):
        assert memory.load(DATA_BASE, 4, signed=False) == 0x01020304

    def test_store_load_sizes(self, memory):
        memory.store(DATA_BASE + 8, 0xAABBCCDD, 4)
        assert memory.load(DATA_BASE + 8, 2, signed=False) == 0xAABB
        assert memory.load(DATA_BASE + 11, 1, signed=False) == 0xDD

    def test_misaligned_word_access(self, memory):
        with pytest.raises(SimulationError):
            memory.load(DATA_BASE + 2, 4, signed=False)
        with pytest.raises(SimulationError):
            memory.store(DATA_BASE + 1, 0, 2)

    def test_bus_error_outside_ram(self, memory):
        with pytest.raises(SimulationError):
            memory.load(0x00800000, 4, signed=False)

    def test_signed_byte_load(self, memory):
        memory.store(DATA_BASE + 16, 0xFF, 1)
        assert memory.load(DATA_BASE + 16, 1, signed=True) == 0xFFFFFFFF


class TestMMIO:
    def test_console_devices(self, memory):
        memory.store(MMIO_PUTCHAR, ord("h"), 4)
        memory.store(MMIO_PUTCHAR, ord("i"), 4)
        memory.store(MMIO_PUTINT, 0xFFFFFFFF, 4)
        memory.store(MMIO_ACTUATOR, 0x123, 4)
        assert memory.mmio.text() == "hi"
        assert memory.mmio.ints == [-1]
        assert memory.mmio.actuator == [0x123]

    def test_exit(self, memory):
        assert not memory.mmio.exit_requested
        memory.store(MMIO_EXIT, 3, 4)
        assert memory.mmio.exit_requested
        assert memory.mmio.exit_code == 3

    def test_unmapped_mmio(self, memory):
        with pytest.raises(SimulationError):
            memory.store(0xFFFF0100, 0, 4)

    def test_mmio_load_rejected(self, memory):
        with pytest.raises(SimulationError):
            memory.load(MMIO_PUTCHAR, 4, signed=False)

    def test_sub_word_mmio_store_rejected(self, memory):
        with pytest.raises(SimulationError):
            memory.store(MMIO_PUTCHAR, 1, 1)


class TestICache:
    def test_miss_then_hit(self):
        cache = DirectMappedCache(lines=4, line_words=4)
        assert not cache.access(0x0)
        assert cache.access(0x4)     # same 16-byte line
        assert cache.access(0xC)
        assert not cache.access(0x40)  # conflicting line (4 lines x 16B)

    def test_conflict_eviction(self):
        cache = DirectMappedCache(lines=2, line_words=2)
        assert not cache.access(0x00)
        assert not cache.access(0x10)  # maps to line 0 again (2 lines x 8B)
        assert not cache.access(0x00)  # evicted

    def test_stats(self):
        cache = DirectMappedCache(lines=2, line_words=2)
        cache.access(0)
        cache.access(4)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_flush(self):
        cache = DirectMappedCache(lines=2, line_words=2)
        cache.access(0)
        cache.flush()
        assert not cache.access(0)

    def test_bad_geometry(self):
        with pytest.raises(ValueError):
            DirectMappedCache(lines=3)
        with pytest.raises(ValueError):
            DirectMappedCache(lines=0)

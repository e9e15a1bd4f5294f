"""Simulated memory system: program memory, data RAM, MMIO devices.

The memory map follows :mod:`repro.isa.program`: code at ``CODE_BASE``
(word-granular, backing either a plaintext executable or an encrypted SOFIA
image), a 1 MiB data RAM from ``DATA_BASE`` up to ``STACK_TOP`` (the stack
grows down from the top), and a small MMIO window at ``MMIO_BASE`` for
console/exit devices (bare-metal programs have no OS to call into).

Writes to the code region are allowed — that is exactly what a code
injection attack does — and notify registered listeners so the SOFIA
machine can invalidate its decrypt/verify caches, mirroring hardware where
every fetch re-decrypts and re-verifies.  A listener that is a bound
method is held weakly, so a machine and its memory form no reference
cycle and a dead machine is freed by refcount alone.

A machine costs what its program touches, not its 1 MiB of RAM.  A
:class:`Memory` takes its RAM buffer from a small per-process free list
(at most :data:`POOL_BUFFERS` per size) and returns it when it dies, unless
anything else still holds the buffer (a kept ``memory.ram`` or a
``memoryview`` of it keeps its bytes).  A recycled buffer is reset on
acquire: :func:`changed_pages` finds the pages that differ from the new
machine's initial RAM — the data segment, zero beyond it — comparing the
mostly-zero rest a :data:`CHUNK_BYTES` chunk at a time, and only those
pages are rewritten.
"""

from __future__ import annotations

import sys
import weakref
from dataclasses import dataclass, field
from types import MethodType, SimpleNamespace
from typing import Callable, Dict, Iterator, List, Optional

from ..errors import SimulationError
from ..isa.program import (CODE_BASE, DATA_BASE, MMIO_ACTUATOR, MMIO_BASE,
                           MMIO_EXIT, MMIO_PUTCHAR, MMIO_PUTINT,
                           MMIO_PUTWORD, STACK_TOP)

MASK32 = 0xFFFFFFFF

#: granularity of a RAM diff: the unit a recycled buffer is reset in and
#: a golden checkpoint snapshots (repro.sim.batch)
PAGE_BYTES = 4096

#: RAM beyond the data segment starts and mostly stays zero: a diff
#: compares it a chunk at a time before looking at its pages
CHUNK_BYTES = 16 * PAGE_BYTES

#: dead machines' RAM buffers kept per RAM size for the next machines (a
#: fixed constant, not a tuning option)
POOL_BUFFERS = 4

_ZERO_PAGE = bytes(PAGE_BYTES)
_ZERO_CHUNK = bytes(CHUNK_BYTES)

#: RAM size -> free buffers of that size, this process's
_FREE: Dict[int, List[bytearray]] = {}


def _ram_refs(owner) -> int:
    """``sys.getrefcount`` of ``owner.ram`` as seen from here (0 without
    one)."""
    ram = owner.__dict__.get("ram")
    return 0 if ram is None else sys.getrefcount(ram)


#: what :func:`_ram_refs` sees when nothing but its owner holds the
#: buffer, measured once rather than assumed (interpreters differ in how
#: many references a local and an argument add)
_SOLE_OWNER_REFS = _ram_refs(SimpleNamespace(ram=bytearray(1)))


def _changed_offsets(ram: bytearray, data: bytes) -> Iterator[int]:
    """The offset of every page of ``ram`` that differs from a fresh
    machine's RAM: ``data``, zero beyond it."""
    size = len(ram)
    zero_from = -(-len(data) // PAGE_BYTES) * PAGE_BYTES
    lows = list(range(0, zero_from, PAGE_BYTES))
    for chunk in range(zero_from, size, CHUNK_BYTES):
        # one comparison, without a copy, for a chunk still all zero
        if not ram.startswith(_ZERO_CHUNK, chunk):
            lows.extend(range(chunk, min(chunk + CHUNK_BYTES, size),
                              PAGE_BYTES))
    for low in lows:
        if low >= len(data) and ram.startswith(_ZERO_PAGE, low):
            continue
        page = ram[low:low + PAGE_BYTES]
        if page != _initial_page(data, low, len(page)):
            yield low


def _initial_page(data: bytes, low: int, size: int) -> bytes:
    initial = data[low:low + size]
    return initial + _ZERO_PAGE[len(initial):size]


def changed_pages(ram: bytearray, data: bytes) -> Dict[int, bytes]:
    """``offset -> page`` for every page of ``ram`` that differs from a
    fresh machine's RAM: ``data``, zero beyond it."""
    return {low: bytes(ram[low:low + PAGE_BYTES])
            for low in _changed_offsets(ram, data)}


def _acquire_ram(size: int, data: bytes) -> bytearray:
    """A buffer of ``size`` bytes holding ``data`` and zero beyond it: a
    dead machine's, reset page by page, or a fresh one."""
    free = _FREE.get(size)
    if not free or len(data) > size:
        # (a data segment longer than RAM extends a fresh buffer)
        ram = bytearray(size)
        ram[:len(data)] = data
        return ram
    ram = free.pop()
    for low in _changed_offsets(ram, data):
        end = min(low + PAGE_BYTES, size)
        ram[low:end] = _initial_page(data, low, end - low)
    return ram


@dataclass
class MMIODevice:
    """Console + exit device at the top of the address space."""

    chars: List[str] = field(default_factory=list)
    ints: List[int] = field(default_factory=list)
    words: List[int] = field(default_factory=list)
    actuator: List[int] = field(default_factory=list)
    exit_code: Optional[int] = None

    @property
    def exit_requested(self) -> bool:
        return self.exit_code is not None

    def text(self) -> str:
        return "".join(self.chars)

    def store(self, address: int, value: int) -> None:
        value &= MASK32
        if address == MMIO_PUTCHAR:
            self.chars.append(chr(value & 0xFF))
        elif address == MMIO_PUTINT:
            signed = value - 0x100000000 if value & 0x80000000 else value
            self.ints.append(signed)
        elif address == MMIO_EXIT:
            self.exit_code = value
        elif address == MMIO_PUTWORD:
            self.words.append(value)
        elif address == MMIO_ACTUATOR:
            self.actuator.append(value)
        else:
            raise SimulationError(f"store to unmapped MMIO 0x{address:08x}")

    def load(self, address: int) -> int:
        raise SimulationError(f"load from write-only MMIO 0x{address:08x}")


class Memory:
    """Byte-addressable memory with a word-granular code region."""

    def __init__(self, code_words: List[int], code_base: int = CODE_BASE,
                 data: bytes = b"", data_base: int = DATA_BASE,
                 data_limit: int = STACK_TOP,
                 mmio: Optional[MMIODevice] = None) -> None:
        self.code = list(code_words)
        self.code_base = code_base
        self.data_base = data_base
        self.data_limit = data_limit
        self.ram = _acquire_ram(data_limit - data_base, data)
        self.mmio = mmio if mmio is not None else MMIODevice()
        #: zero-argument references to the listeners (see poke_code)
        self._code_listeners: List[Callable[[], Optional[Callable]]] = []
        # the code region never grows or shrinks (poke_code writes in
        # place), so its limit is a plain attribute, not a recomputation
        self.code_limit = code_base + 4 * len(self.code)
        # the load/store fast path may only claim an address when the RAM
        # window cannot shadow the code region or MMIO; otherwise disable
        # it (impossible range) and let the canonical region checks decide
        if self.code_limit <= data_base and data_limit <= MMIO_BASE:
            self._ram_size = len(self.ram)
        else:
            self._ram_size = -1

    def __del__(self, ram_refs=_ram_refs, free=_FREE) -> None:
        # recycle the buffer only when this memory is its sole owner
        if ram_refs(self) == _SOLE_OWNER_REFS:
            pool = free.setdefault(len(self.ram), [])
            if len(pool) < POOL_BUFFERS:
                pool.append(self.ram)

    # -- code region -----------------------------------------------------

    def in_code(self, address: int) -> bool:
        return self.code_base <= address < self.code_limit

    def add_code_listener(self, listener: Callable[[int], None]) -> None:
        """Register a callback invoked with the address of any code write.

        A bound method is held weakly (a machine registering its own
        method must not be kept alive by its memory); once its object
        dies it is skipped.  Any other callable is held strongly."""
        if isinstance(listener, MethodType):
            ref = weakref.WeakMethod(listener)
        else:
            def ref(listener=listener):
                return listener
        self._code_listeners.append(ref)

    def fetch_word(self, address: int) -> int:
        """Instruction fetch (no MMIO, code region only)."""
        if address % 4:
            raise SimulationError(f"misaligned fetch at 0x{address:08x}")
        if not self.in_code(address):
            raise SimulationError(f"fetch outside code at 0x{address:08x}")
        return self.code[(address - self.code_base) >> 2]

    def poke_code(self, address: int, word: int) -> None:
        """Write a code word (the attack surface; notifies listeners)."""
        if address % 4:
            raise SimulationError(f"misaligned code write 0x{address:08x}")
        if not self.in_code(address):
            raise SimulationError(f"code write outside text 0x{address:08x}")
        self.code[(address - self.code_base) >> 2] = word & MASK32
        for ref in self._code_listeners:
            listener = ref()
            if listener is not None:
                listener(address)

    # -- data loads/stores -------------------------------------------------

    def _ram_offset(self, address: int, size: int) -> int:
        offset = address - self.data_base
        if not 0 <= offset <= len(self.ram) - size:
            raise SimulationError(f"bus error at 0x{address:08x}")
        return offset

    def load(self, address: int, size: int, signed: bool) -> int:
        if address % size:
            raise SimulationError(f"misaligned load at 0x{address:08x}")
        # fast path: an aligned access inside data RAM (the overwhelmingly
        # common case); everything else falls through to the region checks
        # with their original error behaviour
        offset = address - self.data_base
        if 0 <= offset <= self._ram_size - size:
            raw = int.from_bytes(self.ram[offset:offset + size], "big")
            if signed:
                sign_bit = 1 << (8 * size - 1)
                if raw & sign_bit:
                    raw -= 1 << (8 * size)
            return raw & MASK32
        if address >= MMIO_BASE:
            return self.mmio.load(address)
        if self.in_code(address):
            if size != 4:
                raise SimulationError(
                    f"sub-word load from code at 0x{address:08x}")
            return self.code[(address - self.code_base) >> 2]
        offset = self._ram_offset(address, size)
        raw = int.from_bytes(self.ram[offset:offset + size], "big")
        if signed:
            sign_bit = 1 << (8 * size - 1)
            if raw & sign_bit:
                raw -= 1 << (8 * size)
        return raw & MASK32

    def store(self, address: int, value: int, size: int) -> None:
        if address % size:
            raise SimulationError(f"misaligned store at 0x{address:08x}")
        offset = address - self.data_base
        if 0 <= offset <= self._ram_size - size:
            self.ram[offset:offset + size] = (
                (value & ((1 << (8 * size)) - 1)).to_bytes(size, "big"))
            return
        if address >= MMIO_BASE:
            if size != 4:
                raise SimulationError("MMIO stores must be word sized")
            self.mmio.store(address, value)
            return
        if self.in_code(address):
            if size != 4:
                raise SimulationError(
                    f"sub-word store to code at 0x{address:08x}")
            self.poke_code(address, value)
            return
        offset = self._ram_offset(address, size)
        self.ram[offset:offset + size] = (
            (value & ((1 << (8 * size)) - 1)).to_bytes(size, "big"))

    # -- test/debug helpers -------------------------------------------------

    def read_data_word(self, address: int) -> int:
        return self.load(address, 4, signed=False) & MASK32

    def write_data_word(self, address: int, value: int) -> None:
        self.store(address, value, 4)

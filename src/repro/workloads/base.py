"""Workload model: a minicc program plus its Python golden output.

A workload is self-contained: the C source embeds its input data as global
initializers (generated deterministically), and the program prints result
checksums through the MMIO console.  The golden output is computed by a
pure-Python reference implementation of the same algorithm, so the
simulator, compiler, transformer and crypto stack are all validated
end-to-end by comparing ``print_int`` streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..cc import CompiledProgram, compile_source


@dataclass
class Workload:
    """One benchmark program with its expected console output."""

    name: str
    description: str
    c_source: str
    expected_output: List[int]
    expected_exit: int = 0
    _compiled: object = field(default=None, repr=False, compare=False)

    def compile(self) -> CompiledProgram:
        if self._compiled is None:
            self._compiled = compile_source(self.c_source)
        return self._compiled


class _LCG:
    """Deterministic 32-bit linear congruential generator (data synthesis)."""

    def __init__(self, seed: int) -> None:
        self.state = seed & 0xFFFFFFFF

    def next(self) -> int:
        self.state = (self.state * 1103515245 + 12345) & 0xFFFFFFFF
        return self.state

    def int_range(self, low: int, high: int) -> int:
        """Uniform-ish integer in [low, high]."""
        return low + self.next() % (high - low + 1)


def pcm_signal(count: int, seed: int = 2016) -> List[int]:
    """Synthetic 16-bit PCM: a triangle carrier with LCG noise.

    Stands in for the MediaBench audio clip (DESIGN.md substitution table):
    the ADPCM code path depends only on sample dynamics, not on the clip's
    semantics.
    """
    rng = _LCG(seed)
    samples = []
    value = 0
    direction = 257
    for _ in range(count):
        value += direction
        if value > 14000 or value < -14000:
            direction = -direction
        noise = rng.int_range(-900, 900)
        sample = max(-32768, min(32767, value + noise))
        samples.append(sample)
    return samples


def format_int_array(name: str, values: List[int]) -> str:
    """Emit a minicc global array definition with initializers."""
    body = ", ".join(str(v) for v in values)
    return f"int {name}[{len(values)}] = {{{body}}};"


SCALE_SIZES = {"tiny": 0, "small": 1, "medium": 2}


def scale_index(scale: str) -> int:
    try:
        return SCALE_SIZES[scale]
    except KeyError:
        raise ValueError(f"unknown scale {scale!r}") from None

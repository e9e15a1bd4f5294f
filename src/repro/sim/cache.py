"""Instruction cache model.

A direct-mapped I-cache with configurable geometry.  The default (128 lines
of 8 words = 4 KiB) matches a minimal LEON3 configuration and has a
convenient property for SOFIA: a cache line equals one 8-word block, so a
block traversal costs at most one line fill.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses


class DirectMappedCache:
    """Tag-only direct-mapped cache (we model timing, not contents)."""

    def __init__(self, lines: int = 128, line_words: int = 8) -> None:
        if lines <= 0 or line_words <= 0:
            raise ValueError("cache geometry must be positive")
        if lines & (lines - 1) or line_words & (line_words - 1):
            raise ValueError("cache geometry must be powers of two")
        self.lines = lines
        self.line_words = line_words
        self.line_bytes = 4 * line_words
        self._tags = [-1] * lines
        self.stats = CacheStats()

    def access(self, address: int) -> bool:
        """Touch ``address``; returns True on hit (and fills on miss)."""
        line_number = address // self.line_bytes
        index = line_number % self.lines
        tag = line_number // self.lines
        if self._tags[index] == tag:
            self.stats.hits += 1
            return True
        self._tags[index] = tag
        self.stats.misses += 1
        return False

    def flush(self) -> None:
        self._tags = [-1] * self.lines

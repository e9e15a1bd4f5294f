"""Execution results shared by the vanilla and SOFIA machines."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional

from .cache import CacheStats
from .memory import MMIODevice


class Status(enum.Enum):
    """How a simulation ended."""

    HALT = "halt"          # executed a halt instruction
    EXIT = "exit"          # program wrote the MMIO exit register
    TRAP = "trap"          # illegal instruction / bus error / misalignment
    RESET = "reset"        # SOFIA integrity violation -> processor reset
    LIMIT = "limit"        # hit the step/cycle budget


@dataclass
class ViolationRecord:
    """What the SOFIA hardware knew when it pulled the reset line."""

    kind: str      # "integrity" | "invalid-entry" | "store-slot" | "structure"
    pc: int
    prev_pc: int
    detail: str = ""

    def __str__(self) -> str:
        return (f"{self.kind} violation at pc=0x{self.pc:08x} "
                f"(prevPC=0x{self.prev_pc:08x}) {self.detail}".rstrip())


@dataclass
class ExecutionResult:
    """Outcome and metrics of one simulated run."""

    status: Status
    cycles: int
    instructions: int
    exit_code: Optional[int] = None
    mmio: Optional[MMIODevice] = None
    violation: Optional[ViolationRecord] = None
    trap_reason: str = ""
    icache: Optional[CacheStats] = None
    #: SOFIA only: number of block traversals and MAC-word fetch slots
    blocks_executed: int = 0
    mac_fetch_cycles: int = 0

    @property
    def ok(self) -> bool:
        """True when the program finished normally."""
        return self.status in (Status.HALT, Status.EXIT)

    @property
    def detected(self) -> bool:
        """True when the SOFIA hardware detected a violation."""
        return self.status is Status.RESET

    @property
    def output_ints(self) -> List[int]:
        return list(self.mmio.ints) if self.mmio else []

    @property
    def output_text(self) -> str:
        return self.mmio.text() if self.mmio else ""

    def summary(self) -> str:
        parts = [f"status={self.status.value}",
                 f"cycles={self.cycles}",
                 f"instructions={self.instructions}"]
        if self.exit_code is not None:
            parts.append(f"exit={self.exit_code}")
        if self.violation:
            parts.append(str(self.violation))
        if self.trap_reason:
            parts.append(f"trap={self.trap_reason}")
        return " ".join(parts)

"""Exception hierarchy for the SOFIA reproduction.

All library errors derive from :class:`ReproError` so callers can catch a
single base class.  The hierarchy mirrors the subsystem layout: assembly and
compilation problems, transformation problems, and run-time integrity
violations raised by the simulated SOFIA hardware.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class AssemblyError(ReproError):
    """Raised by the assembler for malformed assembly input."""

    def __init__(self, message: str, line: int = 0) -> None:
        self.line = line
        if line:
            message = f"line {line}: {message}"
        super().__init__(message)


class EncodingError(ReproError):
    """Raised when an instruction cannot be encoded (range/field errors)."""


class DecodingError(ReproError):
    """Raised when a 32-bit word does not decode to a valid instruction."""


class CompileError(ReproError):
    """Raised by the minicc compiler for invalid source programs."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        self.line = line
        self.column = column
        if line:
            message = f"{line}:{column}: {message}"
        super().__init__(message)


class CFGError(ReproError):
    """Raised when a control flow graph cannot be constructed precisely."""


class TransformError(ReproError):
    """Raised when a program cannot be rewritten into SOFIA blocks."""


class ImageError(ReproError):
    """Raised for malformed SOFIA binary images."""


class SimulationError(ReproError):
    """Raised for simulator misuse (bad memory map, missing entry, ...)."""


class CampaignError(ReproError, ValueError):
    """Raised for an impossible campaign parameter, such as a negative
    specimen count or an empty scheduling batch."""


def check_count(name: str, value: int, minimum: int = 0) -> None:
    """Raise :class:`CampaignError` unless the count ``value`` is at
    least ``minimum``."""
    if value < minimum:
        raise CampaignError(f"{name} must be >= {minimum}, got {value}")


class HardwareModelError(ReproError, ValueError):
    """Raised by :mod:`repro.hwmodel` for out-of-range design parameters.

    Subclasses :class:`ValueError` as well: the hardware model predates
    the typed hierarchy and its callers (and tests) historically caught
    ``ValueError`` for bad unroll factors — both spellings keep working.
    """


class IntegrityViolation(ReproError):
    """Raised (or recorded) by the simulated SOFIA core on a violation.

    Attributes mirror what the hardware knows at detection time.
    """

    def __init__(self, kind: str, pc: int, detail: str = "") -> None:
        self.kind = kind
        self.pc = pc
        self.detail = detail
        message = f"{kind} violation at pc=0x{pc:08x}"
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)

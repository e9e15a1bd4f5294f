"""Exception hierarchy for the SOFIA reproduction.

All library errors derive from :class:`ReproError` so callers can catch a
single base class.  The hierarchy mirrors the subsystem layout: assembly and
compilation problems, transformation problems, and simulator misuse.  A
run-time integrity violation is not an error: the simulated SOFIA core
records it as the run's :class:`~repro.sim.result.ViolationRecord` and
resets.
"""

from __future__ import annotations

from typing import Optional


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


def check_count(name: str, value: int, minimum: int = 0,
                maximum: Optional[int] = None) -> None:
    """Raise :class:`CampaignError` unless the count ``value`` is at
    least ``minimum`` (and at most ``maximum``, when given)."""
    if value < minimum or (maximum is not None and value > maximum):
        bound = (f">= {minimum}" if maximum is None
                 else f"in {minimum}..{maximum}")
        raise CampaignError(f"{name} must be {bound}, got {value}")


class UsageError(ReproError):
    """Raised by the command-line interface for a flag value or a flag
    combination it rejects; ``repro`` exits 2 on it, as on an argparse
    error."""


class HardwareModelError(ReproError, ValueError):
    """Raised by :mod:`repro.hwmodel` for out-of-range design parameters.

    Subclasses :class:`ValueError` as well: the hardware model predates
    the typed hierarchy and its callers (and tests) historically caught
    ``ValueError`` for bad unroll factors — both spellings keep working.
    """

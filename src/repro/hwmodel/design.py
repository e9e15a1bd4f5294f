"""The Table I report and the hardware design-choice ablations.

Every number here is read off one component model: the calibrated LEON3
list (:func:`~repro.hwmodel.components.leon3_components`) plus the SOFIA
additions of a protection profile
(:func:`~repro.hwmodel.profilecost.sofia_profile_components`), at the
paper's profile unless a cipher is being compared.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..transform.profile import DEFAULT_PROFILE, ProtectionProfile
from .components import (CIPHER_PROFILES, CYCLES_BUDGET, PAPER_UNROLL,
                         Component, leon3_components)
from .profilecost import cipher_hw_profile, sofia_profile_components


def _totals(components: List[Component]) -> Tuple[int, float]:
    """``(slices, clock MHz)`` of a synthesized component list."""
    return (sum(c.slices for c in components),
            1000.0 / max(c.path_ns for c in components))


def _sofia_totals(profile: ProtectionProfile,
                  unroll: int) -> Tuple[int, float]:
    """``(slices, clock MHz)`` of LEON3 + SOFIA for ``profile``."""
    return _totals(leon3_components()
                   + sofia_profile_components(profile, unroll))


@dataclass(frozen=True)
class Table1Row:
    design: str
    slices: int
    clock_mhz: float


@dataclass(frozen=True)
class Table1:
    """The paper's Table I plus derived overhead percentages."""

    vanilla: Table1Row
    sofia: Table1Row

    @property
    def area_overhead(self) -> float:
        """Fractional slice increase (paper: 0.282)."""
        return self.sofia.slices / self.vanilla.slices - 1.0

    @property
    def clock_slowdown(self) -> float:
        """Fractional clock-period increase (paper: 'clock is 84.6% slower')."""
        return self.vanilla.clock_mhz / self.sofia.clock_mhz - 1.0

    @property
    def clock_ratio(self) -> float:
        """f_vanilla / f_sofia — the execution-time multiplier."""
        return self.vanilla.clock_mhz / self.sofia.clock_mhz

    def render(self) -> str:
        lines = [
            "Table I: hardware comparison of SOFIA and LEON3",
            f"{'Design':<10s} {'Slices':>8s} {'Clock speed':>12s}",
            f"{self.vanilla.design:<10s} {self.vanilla.slices:>8,d} "
            f"{self.vanilla.clock_mhz:>9.1f} MHz",
            f"{self.sofia.design:<10s} {self.sofia.slices:>8,d} "
            f"{self.sofia.clock_mhz:>9.1f} MHz",
            f"area overhead:   {self.area_overhead:+.1%} (paper: +28.2%)",
            f"clock slowdown:  {self.clock_slowdown:+.1%} (paper: +84.6%)",
        ]
        return "\n".join(lines)


def table1() -> Table1:
    """Regenerate Table I from the component model."""
    return Table1(
        vanilla=Table1Row("Vanilla", *_totals(leon3_components())),
        sofia=Table1Row("SOFIA",
                        *_sofia_totals(DEFAULT_PROFILE, PAPER_UNROLL)))


@dataclass(frozen=True)
class UnrollPoint:
    """One point of the cipher-unroll ablation."""

    unroll: int
    slices: int
    clock_mhz: float
    cipher_cycles: int
    #: does this design sustain one 64-bit cipher op per two cycles, as
    #: required to alternate CTR and CBC without stalling fetch (§III)?
    sustains_fetch: bool


def unroll_ablation() -> List[UnrollPoint]:
    """Sweep the unroll factor (design-choice ablation for §III)."""
    hw = cipher_hw_profile(DEFAULT_PROFILE)
    points = []
    for unroll in range(1, hw.rounds + 1):
        slices, clock_mhz = _sofia_totals(DEFAULT_PROFILE, unroll)
        cycles = hw.cycles_per_op(unroll)
        points.append(UnrollPoint(
            unroll=unroll, slices=slices, clock_mhz=clock_mhz,
            cipher_cycles=cycles, sustains_fetch=cycles <= CYCLES_BUDGET))
    return points


@dataclass(frozen=True)
class CipherChoice:
    """One cipher evaluated at its fetch-sustaining design point."""

    cipher: str
    unroll: int
    datapath_slices: int
    clock_mhz: float

    def __str__(self) -> str:
        return (f"{self.cipher:<14s} unroll={self.unroll:<3d} "
                f"{self.datapath_slices:>5d} slices  "
                f"{self.clock_mhz:5.1f} MHz")


def cipher_ablation() -> List[CipherChoice]:
    """Compare candidate ciphers at one operation per
    :data:`~repro.hwmodel.components.CYCLES_BUDGET` cycles.

    Reproduces the design rationale behind the paper's RECTANGLE choice:
    both ciphers are 64-bit/80-bit, but PRESENT's 31 rounds need a deeper
    unroll to sustain the fetch stream, which costs clock frequency.
    """
    choices = []
    for hw in CIPHER_PROFILES.values():
        unroll = hw.min_sustaining_unroll()
        profile = ProtectionProfile(cipher=hw.name.lower())
        choices.append(CipherChoice(
            cipher=hw.name, unroll=unroll,
            datapath_slices=hw.datapath_slices(unroll),
            clock_mhz=_sofia_totals(profile, unroll)[1]))
    return sorted(choices, key=lambda c: -c.clock_mhz)

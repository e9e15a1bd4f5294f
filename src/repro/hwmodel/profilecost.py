"""Profile-driven hardware costing: ``ProtectionProfile`` -> area/clock.

This module is the bridge between the E17 design space
(:class:`~repro.transform.profile.ProtectionProfile`) and the Table I
component model (:mod:`repro.hwmodel.components`): every protection
profile, paired with a cipher-datapath unroll factor, maps to one
synthesizable design point with an area total, a critical path, and a
clock estimate — pure arithmetic, no simulation, byte-deterministic.

**Design space.**  The cipher axis selects the unrollable datapath
(RECTANGLE-80 or PRESENT-80, per the single-cycle study the paper cites,
[36] Maene & Verbauwhede); the unroll factor trades area for clock
(`unroll` combinational rounds per cycle).  The seal width scales the
CBC-MAC compare/control block (wider seals need wider comparators and
one more state word), and the block geometry sizes the fetch-stage word
counter.  All constants are calibrated so the paper's design point —
``rectangle-80/mac64/sequential`` at ``unroll=13`` — reproduces Table I
exactly (7,551 slices, 50.1 MHz).

**Minimum legal unroll.**  The fetch stream needs one 64-bit cipher
operation per :data:`CYCLES_BUDGET` cycles — the CTR keystream word-pair
and the CBC absorb alternate, one operation every other cycle (paper
§III).  That generalizes the paper's ``ceil(26 / unroll) <= 2`` to
``ceil(rounds / unroll) <= CYCLES_BUDGET`` per cipher: RECTANGLE's 26
rounds force ``unroll >= 13`` (the paper's point), PRESENT's 31 rounds
force ``unroll >= 16``.  Shallower unrolls would stall fetch — the cycle
simulator models a never-stalling decrypt path, so those points are
outside the legal design space and :func:`profile_cost` rejects them.

**Objectives.**  For the unified E17+hardware Pareto the scalar hardware
cost is the area-delay product (total slices x critical-path ns), the
standard figure of merit the cited study ranks lightweight ciphers by:
it folds both exported axes (``slices``, ``clock_mhz``) into one
monotone cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

from ..errors import HardwareModelError
from ..transform.profile import ProtectionProfile
from .components import (CIPHER_PROFILES, CYCLES_BUDGET, CipherProfile,
                         Component, leon3_components)

#: CBC-MAC compare/control calibration: ``base + per_word * mac_words``
#: reproduces Table I's 182 slices at the paper's 2-word seal
_MAC_COMPARE_BASE_SLICES = 150
_MAC_COMPARE_SLICES_PER_WORD = 16
_MAC_COMPARE_BASE_NS = 5.30
_MAC_COMPARE_NS_PER_WORD = 0.30

#: fetch-stage block word counter: 4 slices per counter bit beyond the
#: paper's 3-bit (8-word) geometry, folded into the next-PC logic
_NEXT_PC_BASE_SLICES = 88
_BLOCK_COUNTER_SLICES_PER_BIT = 4

#: an unroll spec token: an explicit factor or "min" (per-profile
#: minimum legal unroll)
UnrollSpec = Union[int, str]


def cipher_hw_profile(profile: ProtectionProfile) -> CipherProfile:
    """The unrollable-datapath cost profile of this profile's cipher."""
    for hw in CIPHER_PROFILES.values():
        if hw.name.lower() == profile.cipher.lower():
            return hw
    raise HardwareModelError(
        f"no hardware cost profile for cipher {profile.cipher!r} "
        f"(known: {sorted(p.name for p in CIPHER_PROFILES.values())})")


def min_legal_unroll(profile: ProtectionProfile) -> int:
    """Smallest fetch-sustaining unroll for this profile's cipher.

    ``ceil(rounds / unroll) <= CYCLES_BUDGET`` — the paper's
    ``unroll >= 13`` for RECTANGLE, ``unroll >= 16`` for PRESENT.
    """
    return cipher_hw_profile(profile).min_sustaining_unroll()


def legal_unrolls(profile: ProtectionProfile) -> range:
    """Every fetch-sustaining unroll factor for this profile's cipher."""
    hw = cipher_hw_profile(profile)
    return range(hw.min_sustaining_unroll(), hw.rounds + 1)


def resolve_unrolls(profile: ProtectionProfile,
                    specs: Sequence[UnrollSpec] = ("min",)) -> List[int]:
    """The legal subset of requested unroll factors, ascending.

    ``"min"`` resolves to :func:`min_legal_unroll`; explicit factors
    outside this profile's legal range are dropped (a mixed-cipher grid
    may request ``13,16`` where 13 is legal for RECTANGLE only).  The
    sweep driver raises when a factor is legal for *no* profile.
    """
    legal = legal_unrolls(profile)
    resolved = set()
    for spec in specs:
        if spec == "min":
            resolved.add(legal.start)
        elif isinstance(spec, int) and spec in legal:
            resolved.add(spec)
    return sorted(resolved)


def sofia_profile_components(profile: ProtectionProfile,
                             unroll: int) -> List[Component]:
    """SOFIA additions for this profile at this unroll factor.

    The one component list of the SOFIA hardware: at the default profile
    and ``unroll=13`` it is Table I's calibration (+1,662 slices, the
    13x-unrolled RECTANGLE datapath on the critical path).  Any unroll in
    ``1..rounds`` is accepted, so the unroll ablation can also cost the
    shallower, fetch-stalling points :func:`profile_cost` rejects.
    """
    hw = cipher_hw_profile(profile)
    compare_slices = (_MAC_COMPARE_BASE_SLICES
                     + _MAC_COMPARE_SLICES_PER_WORD * profile.mac_words)
    compare_ns = round(_MAC_COMPARE_BASE_NS
                       + _MAC_COMPARE_NS_PER_WORD * profile.mac_words, 2)
    counter_bits = max(3, (profile.block_words - 1).bit_length())
    next_pc_slices = (_NEXT_PC_BASE_SLICES
                      + _BLOCK_COUNTER_SLICES_PER_BIT * (counter_bits - 3))
    return [
        Component(f"{hw.name} datapath ({unroll}x unrolled)",
                  hw.datapath_slices(unroll), hw.path_ns(unroll)),
        Component("key storage + schedule", 221, 6.50),
        Component(f"CBC-MAC compare + control ({profile.mac_bits}-bit)",
                  compare_slices, compare_ns),
        Component("next-PC / mux-path logic", next_pc_slices, 4.80),
        Component("reset + pipeline integration", 53, 3.10),
    ]


@dataclass(frozen=True)
class ProfileHardware:
    """One profile's synthesized design point at one unroll factor."""

    profile_label: str
    cipher: str
    unroll: int
    min_unroll: int
    cipher_cycles: int
    datapath_slices: int
    sofia_slices: int        # SOFIA additions only
    slices: int              # LEON3 + SOFIA additions
    critical_path_ns: float
    clock_mhz: float

    @property
    def label(self) -> str:
        """``<profile label>@u<unroll>``, e.g. ``...sequential@u13``."""
        return f"{self.profile_label}@u{self.unroll}"

    @property
    def area_delay(self) -> float:
        """Slices x critical-path ns: the scalar hardware-cost objective."""
        return self.slices * self.critical_path_ns

    def __str__(self) -> str:
        return (f"{self.label:<42s} {self.slices:>6d} slices  "
                f"{self.clock_mhz:5.1f} MHz  {self.cipher_cycles}c/op")


def profile_cost(profile: ProtectionProfile,
                 unroll: "int | None" = None) -> ProfileHardware:
    """Area/clock estimate of one profile at one unroll factor.

    ``unroll=None`` picks the profile's minimum legal (fetch-sustaining)
    unroll; an explicit unroll outside :func:`legal_unrolls` raises
    :class:`~repro.errors.HardwareModelError`.  Pure arithmetic on the
    profile — deterministic, simulation-free, safe to recompute on every
    export.
    """
    hw = cipher_hw_profile(profile)
    minimum = hw.min_sustaining_unroll()
    if unroll is None:
        unroll = minimum
    if not isinstance(unroll, int) or unroll not in legal_unrolls(profile):
        raise HardwareModelError(
            f"{profile.label}: unroll must be in {minimum}.."
            f"{hw.rounds} (ceil({hw.rounds}/unroll) <= {CYCLES_BUDGET} "
            f"keeps fetch fed; {hw.rounds} rounds total), got {unroll!r}")
    components = leon3_components() + sofia_profile_components(profile,
                                                               unroll)
    base_slices = sum(c.slices for c in leon3_components())
    total = sum(c.slices for c in components)
    path = max(c.path_ns for c in components)
    return ProfileHardware(
        profile_label=profile.label, cipher=profile.cipher, unroll=unroll,
        min_unroll=minimum, cipher_cycles=hw.cycles_per_op(unroll),
        datapath_slices=hw.datapath_slices(unroll),
        sofia_slices=total - base_slices, slices=total,
        critical_path_ns=path, clock_mhz=1000.0 / path)


def parse_unroll_specs(text: str) -> Tuple[UnrollSpec, ...]:
    """Parse a CLI unroll list: comma-separated factors and/or ``min``.

    Factors must be positive integers; legality against each cipher's
    round count is per-profile (see :func:`resolve_unrolls`).
    """
    specs: List[UnrollSpec] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if token == "min":
            specs.append("min")
            continue
        try:
            unroll = int(token)
        except ValueError:
            raise ValueError(
                f"bad unroll {token!r}: expected a positive integer "
                f"or 'min'")
        if unroll < 1:
            raise ValueError(f"unroll must be positive, got {unroll}")
        specs.append(unroll)
    if not specs:
        raise ValueError("empty unroll list")
    return tuple(specs)

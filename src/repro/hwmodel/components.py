"""Component-level FPGA cost model (substitute for Virtex-6 synthesis).

Table I of the paper reports only two totals per design (slices and clock),
so the per-component constants below are *calibrated*: they are plausible
LEON3-minimal/Virtex-6 figures whose sums and maxima reproduce the paper's
totals, while the *structure* is predictive — the cipher-unroll scaling
laws come from the paper's description (§III): a single RECTANGLE
instance unrolled 13x placed in the critical path.  The SOFIA adder list
(key storage for three 80-bit keys, the CBC-MAC compare, the modified
next-PC logic, the reset line) is built per protection profile by
:func:`repro.hwmodel.profilecost.sofia_profile_components`.

The model supports the unroll-factor ablation: fewer unrolled rounds
shorten the critical path (faster clock) but increase the cycles per cipher
operation; the paper needs a 64-bit operation every 2 cycles to keep the
fetch stream moving, which forces ``ceil(26 / unroll) <= 2`` i.e.
``unroll >= 13`` — exactly the paper's design point.  The profile-aware
form of that constraint (PRESENT's 31 rounds force ``unroll >= 16``),
and the one function that prices a design point, live in
:mod:`repro.hwmodel.profilecost`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..errors import HardwareModelError

#: RECTANGLE's published latency in cycles (iterated implementation).
CIPHER_ROUNDS = 26

#: paper design point: 13 rounds per cycle -> 2 cycles per operation
PAPER_UNROLL = 13

#: fetch-sustaining budget: one 64-bit cipher operation per two cycles
#: (CTR and CBC alternate; paper §III)
CYCLES_BUDGET = 2

#: calibrated datapath constants (RECTANGLE)
SLICES_PER_ROUND = 86.0
ROUND_DELAY_NS = 1.40
CIPHER_OVERHEAD_NS = 1.76   # key mux, CTR/CBC alternation mux, routing


@dataclass(frozen=True)
class CipherProfile:
    """Unrollable-datapath cost profile of a 64-bit lightweight cipher.

    Profiles follow the single-cycle-implementation study the paper cites
    ([36], Maene & Verbauwhede): RECTANGLE's bit-slice rounds are a bit
    larger but barely slower than PRESENT's, while PRESENT needs 31 rounds
    — so at the fetch-sustaining design point (one operation per two
    cycles) RECTANGLE clocks higher, which is why SOFIA picked it.

    Every unroll-taking method validates against *this cipher's* round
    count (PRESENT accepts 27..31 where RECTANGLE does not) and raises
    :class:`~repro.errors.HardwareModelError` out of range.
    """

    name: str
    rounds: int
    slices_per_round: float
    round_ns: float
    overhead_ns: float = CIPHER_OVERHEAD_NS

    def _check_unroll(self, unroll: int) -> None:
        if not isinstance(unroll, int) or not 1 <= unroll <= self.rounds:
            raise HardwareModelError(
                f"{self.name}: unroll must be an integer in "
                f"1..{self.rounds} (its round count), got {unroll!r}")

    def datapath_slices(self, unroll: int) -> int:
        self._check_unroll(unroll)
        return round(self.slices_per_round * unroll)

    def path_ns(self, unroll: int) -> float:
        self._check_unroll(unroll)
        return unroll * self.round_ns + self.overhead_ns

    def cycles_per_op(self, unroll: int) -> int:
        """Cycles for one 64-bit operation at ``unroll`` rounds/cycle."""
        self._check_unroll(unroll)
        return -(-self.rounds // unroll)


RECTANGLE_PROFILE = CipherProfile("RECTANGLE-80", CIPHER_ROUNDS,
                                  SLICES_PER_ROUND, ROUND_DELAY_NS)
PRESENT_PROFILE = CipherProfile("PRESENT-80", 31, 74.0, 1.28)

CIPHER_PROFILES = {p.name: p for p in (RECTANGLE_PROFILE, PRESENT_PROFILE)}


@dataclass(frozen=True)
class Component:
    """One synthesized block: its area and its contribution to the path."""

    name: str
    slices: int
    path_ns: float   # delay of this component's longest internal path

    def __str__(self) -> str:
        return f"{self.name:<28s} {self.slices:>6d} slices  {self.path_ns:5.2f} ns"


def leon3_components() -> List[Component]:
    """Minimal LEON3 configuration (calibrated to 5,889 slices, 92.3 MHz)."""
    return [
        Component("integer pipeline (7-stage)", 2601, 10.83),
        Component("register file", 452, 6.10),
        Component("mul/div unit", 903, 10.20),
        Component("i-cache controller", 702, 8.40),
        Component("d-cache / bus interface", 799, 9.70),
        Component("AHB + peripherals", 432, 7.90),
    ]

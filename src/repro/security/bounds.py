"""Closed-form security bounds (paper §IV-A).

SI: forging an (instructions, MAC) pair for an n-bit MAC takes an expected
``2^(n-1)`` online verification attempts [32]; each attempt costs at least
8 cycles on the target (fetch + verify of one block).  CFI additionally
requires the control-flow diversion itself (another 8 cycles), doubling
the attack time.

The paper evaluates both at a 50 MHz clock: 46,795 years (SI) and
93,590 years (CFI).
"""

from __future__ import annotations

from dataclasses import dataclass

SECONDS_PER_YEAR = 365 * 24 * 3600  # the paper's convention (non-leap years)

#: paper parameters
PAPER_MAC_BITS = 64
PAPER_VERIFY_CYCLES = 8
PAPER_DIVERSION_CYCLES = 8
PAPER_CLOCK_HZ = 50e6


def expected_forgery_attempts(mac_bits: int) -> int:
    """Average online trials before a random forgery is accepted."""
    if mac_bits < 1:
        raise ValueError("MAC width must be positive")
    return 1 << (mac_bits - 1)


def attack_seconds(attempts: int, cycles_per_attempt: int,
                   clock_hz: float) -> float:
    """Wall-clock time of an online attack on the target device."""
    if clock_hz <= 0:
        raise ValueError("clock must be positive")
    return attempts * cycles_per_attempt / clock_hz


def attack_years(attempts: int, cycles_per_attempt: int,
                 clock_hz: float) -> float:
    return attack_seconds(attempts, cycles_per_attempt, clock_hz) / SECONDS_PER_YEAR


def si_forgery_years(mac_bits: int = PAPER_MAC_BITS) -> float:
    """§IV-A.1: expected years to forge an instruction/MAC pair online."""
    return attack_years(expected_forgery_attempts(mac_bits),
                        PAPER_VERIFY_CYCLES, PAPER_CLOCK_HZ)


def cfi_attack_years(mac_bits: int = PAPER_MAC_BITS) -> float:
    """§IV-A.2: expected years to deviate control flow and forge the MAC."""
    return attack_years(expected_forgery_attempts(mac_bits),
                        PAPER_DIVERSION_CYCLES + PAPER_VERIFY_CYCLES,
                        PAPER_CLOCK_HZ)


def expected_undetected(attempts: int, mac_bits: int = PAPER_MAC_BITS) -> float:
    """Expected number of undetected forgeries among ``attempts`` tries.

    Every SI/CFI-violating attack instance is one online forgery attempt:
    it survives only if the tampered block's run-time MAC collides with
    the decrypted MAC words, which happens with probability ``2^-n``.
    """
    if attempts < 0:
        raise ValueError("attempts must be non-negative")
    return attempts * 2.0 ** (-mac_bits)


@dataclass(frozen=True)
class EmpiricalCheck:
    """An empirical detection sweep held against the analytic bound."""

    attempts: int
    undetected: int
    mac_bits: int
    expected: float

    @property
    def consistent(self) -> bool:
        """Is the observed miss count plausible under the 2^-n model?

        Misses are Poisson with mean ``expected``; we accept anything up
        to three standard deviations above it.  For any sweep this
        reproduction can run (``attempts`` ≪ 2^64) the tolerance rounds
        to zero — a single undetected forgery already falsifies the
        bound, which is exactly the cross-check the campaign wants.
        """
        return self.undetected <= int(self.expected
                                      + 3 * self.expected ** 0.5)

    def render(self) -> str:
        verdict = "consistent" if self.consistent else "INCONSISTENT"
        return (f"{self.undetected}/{self.attempts} forgeries undetected "
                f"(analytic expectation {self.expected:.3g} at "
                f"{self.mac_bits}-bit MACs) — {verdict}")


def empirical_check(attempts: int, undetected: int,
                    mac_bits: int = PAPER_MAC_BITS) -> EmpiricalCheck:
    """Cross-check an observed detection rate against §IV-A's model."""
    return EmpiricalCheck(attempts=attempts, undetected=undetected,
                          mac_bits=mac_bits,
                          expected=expected_undetected(attempts, mac_bits))


@dataclass(frozen=True)
class SecurityReport:
    """Both paper bounds plus the parameters that produced them."""

    mac_bits: int
    clock_hz: float
    si_years: float
    cfi_years: float

    def render(self) -> str:
        return "\n".join([
            "Security evaluation (paper §IV-A)",
            f"MAC width: {self.mac_bits} bits, clock: "
            f"{self.clock_hz / 1e6:.1f} MHz",
            f"SI  online forgery: {self.si_years:,.0f} years "
            f"(paper: 46,795)",
            f"CFI online attack:  {self.cfi_years:,.0f} years "
            f"(paper: 93,590)",
        ])


def security_report() -> SecurityReport:
    return SecurityReport(mac_bits=PAPER_MAC_BITS, clock_hz=PAPER_CLOCK_HZ,
                          si_years=si_forgery_years(),
                          cfi_years=cfi_attack_years())

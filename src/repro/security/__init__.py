"""Security analysis: closed-form bounds + Monte-Carlo experiments."""

from .._lazy import lazy_facade

lazy_facade(__name__, {
    "bounds": ("EmpiricalCheck", "PAPER_CLOCK_HZ", "PAPER_MAC_BITS",
               "SecurityReport", "attack_seconds", "attack_years",
               "cfi_attack_years", "empirical_check",
               "expected_forgery_attempts", "expected_undetected",
               "security_report", "si_forgery_years"),
    "montecarlo": ("ForgeryScaling", "TamperEscape", "forgery_scaling",
                   "forgery_trials", "tamper_detection", "truncated_mac"),
})

"""Baseline defenses for the attack-coverage comparison (experiment E8)."""

from .._lazy import lazy_facade

lazy_facade(__name__, {
    "isr": ("EcbIsrMachine", "XorIsrMachine", "ecb_encrypt_words",
            "xor_encrypt_words"),
})

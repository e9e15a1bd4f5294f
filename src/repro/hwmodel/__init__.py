"""FPGA area/timing model (Table I substitute + profile-driven costing)."""

from .._lazy import lazy_facade

lazy_facade(__name__, {
    "components": ("CIPHER_PROFILES", "CIPHER_ROUNDS", "CYCLES_BUDGET",
                   "CipherProfile", "PAPER_UNROLL", "PRESENT_PROFILE",
                   "RECTANGLE_PROFILE", "Component", "leon3_components"),
    "profilecost": ("ProfileHardware", "Table1", "cipher_ablation",
                    "cipher_hw_profile", "legal_unrolls",
                    "parse_unroll_specs", "profile_cost", "resolve_unrolls",
                    "sofia_profile_components", "table1",
                    "unroll_ablation"),
})

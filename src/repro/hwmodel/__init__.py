"""FPGA area/timing model (Table I substitute + profile-driven costing)."""

from .._lazy import lazy_facade

lazy_facade(__name__, {
    "components": ("CIPHER_PROFILES", "CIPHER_ROUNDS", "CYCLES_BUDGET",
                   "CipherProfile", "PAPER_UNROLL", "PRESENT_PROFILE",
                   "RECTANGLE_PROFILE", "Component", "leon3_components"),
    "design": ("CipherChoice", "Table1", "Table1Row", "UnrollPoint",
               "cipher_ablation", "table1", "unroll_ablation"),
    "profilecost": ("ProfileHardware", "cipher_hw_profile", "hw_point_label",
                    "legal_unrolls", "min_legal_unroll", "parse_unroll_specs",
                    "profile_cost", "profile_costs", "resolve_unrolls",
                    "sofia_profile_components"),
})

__all__ = [
    "Component", "leon3_components", "CIPHER_ROUNDS", "PAPER_UNROLL",
    "CipherProfile", "CIPHER_PROFILES", "RECTANGLE_PROFILE",
    "PRESENT_PROFILE", "CipherChoice", "cipher_ablation",
    "Table1", "Table1Row", "table1", "UnrollPoint", "unroll_ablation",
    "CYCLES_BUDGET", "ProfileHardware", "cipher_hw_profile",
    "hw_point_label", "legal_unrolls", "min_legal_unroll",
    "parse_unroll_specs", "profile_cost", "profile_costs",
    "resolve_unrolls", "sofia_profile_components",
]

"""Attack framework: victim, defenses, attack catalogue, campaign."""

from .._lazy import lazy_facade

lazy_facade(__name__, {
    "actions": ("ATTACKS", "Attack", "gadget_instructions", "gadget_words"),
    "harness": ("AttackResult", "Outcome", "campaign_matrix", "classify",
                "format_matrix", "run_attack", "run_campaign",
                "verify_benign"),
    "systems": ("Target", "build_targets"),
    "victim": ("BENIGN_OUTPUT", "BUFFER_WORDS", "RA_SLOT", "UNLOCK_VALUE",
               "VICTIM_ASM", "victim_program"),
})

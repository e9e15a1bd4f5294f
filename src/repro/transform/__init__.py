"""SOFIA binary transformation toolchain."""

from .._lazy import lazy_facade

lazy_facade(__name__, {
    "blocks": ("Block", "BlockKind", "EntryAssignment"),
    "encrypt": ("block_plain_words", "chain_prev_pcs", "reseal_block", "seal",
                "seal_block", "unseal_block", "word_prev_pcs"),
    "image": ("BlockRecord", "SofiaImage"),
    "layout": ("Layout", "LayoutStats", "build_layout"),
    "profile": ("DEFAULT_PROFILE", "ProtectionProfile", "profile_grid",
                "store_forbidden_slots"),
    "renonce": ("reencrypt", "rotate_nonce"),
    "transformer": ("canonicalize_returns", "prepare",
                    "rewrite_indirect_returns", "transform"),
    "verify": ("Finding", "ImageVerifier", "verify_image"),
})

"""SOFIA binary transformation toolchain."""

from .blocks import Block, BlockKind, EntryAssignment
from .encrypt import (block_plain_words, chain_prev_pcs, reseal_block,
                      seal, seal_block, unseal_block, word_prev_pcs)
from .image import BlockRecord, SofiaImage
from .layout import Layout, LayoutStats, build_layout
from .profile import (DEFAULT_PROFILE, ProtectionProfile, profile_grid,
                      store_forbidden_slots)
from .transformer import (canonicalize_returns, prepare,
                          rewrite_indirect_returns, transform)
from .renonce import reencrypt, rotate_nonce
from .verify import Finding, ImageVerifier, verify_image

__all__ = [
    "Block", "BlockKind", "EntryAssignment",
    "ProtectionProfile", "DEFAULT_PROFILE", "profile_grid",
    "store_forbidden_slots",
    "Layout", "LayoutStats", "build_layout",
    "SofiaImage", "BlockRecord",
    "seal", "block_plain_words", "word_prev_pcs",
    "chain_prev_pcs", "reseal_block",
    "seal_block", "unseal_block",
    "transform", "prepare", "canonicalize_returns",
    "rewrite_indirect_returns",
    "verify_image", "ImageVerifier", "Finding",
    "reencrypt", "rotate_nonce",
]

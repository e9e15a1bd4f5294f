"""Cryptographic substrate: cipher registry, CTR keystream, CBC-MAC, keys."""

from .._lazy import lazy_facade

lazy_facade(__name__, {
    "bitslice": ("WIDTH", "batch_mac_stream", "bitsliced_for", "encrypt_batch",
                 "pack_planes", "transpose_bits", "unpack_planes"),
    "cbcmac": ("cbc_mac", "mac_stream", "mac_words", "verify"),
    "ctr": ("EdgeKeystream", "pack_counter"),
    "keys": ("DeviceKeys", "derive_key"),
    "present": ("Present80",),
    "rectangle": ("Rectangle80",),
    "registry": ("CIPHERS", "DEFAULT_CIPHER", "cipher_code",
                 "cipher_from_code", "cipher_names", "get_cipher"),
})

"""Device key material.

Every SOFIA device is provisioned with three 80-bit keys known only to the
software provider and accessible only to the on-chip cipher:

* ``k1`` — CTR-mode instruction encryption,
* ``k2`` — CBC-MAC of execution blocks,
* ``k3`` — CBC-MAC of multiplexor blocks.

Using distinct MAC keys per block type is the paper's fix for CBC-MAC's
variable-length weakness (one key per message length).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Tuple

from .rectangle import KEY_BITS, Rectangle80

_KEY_MASK = (1 << KEY_BITS) - 1

#: one keyed cipher per (implementation, key) in the process, like the
#: batch evaluators of :mod:`repro.crypto.bitslice`: a keyed cipher is a
#: pure function of the two, so every key set holding them shares it
_CIPHERS: Dict[Tuple[type, int], object] = {}

#: the seed of the campaigns' and the overhead sweeps' default key set
DEFAULT_KEY_SEED = 0x50F1A


def derive_key(seed: int, label: str) -> int:
    """Deterministically derive an 80-bit key from a seed and a label.

    This is a provisioning convenience for tests and examples, not a KDF
    with security claims; production devices would be injected with random
    keys at manufacturing time.
    """
    material = f"{seed}:{label}".encode()
    value = 0xCAFEBABE
    for byte in material:
        value = (value * 0x100000001B3 + byte) & ((1 << 128) - 1)
        value ^= value >> 29
    return value & _KEY_MASK


@dataclass(frozen=True)
class DeviceKeys:
    """The three per-device keys and their cipher instances.

    ``cipher_factory`` selects the block-cipher implementation shared by
    CTR decryption and the CBC-MACs; the default is RECTANGLE-80 (the
    paper's choice), and :class:`repro.crypto.present.Present80` is the
    drop-in alternative for the cipher-agility study.  Equal keys under
    the same factory share one cipher object process-wide, so a key set
    re-derived or re-bound (:meth:`for_profile`) pays no key schedule.
    """

    k1: int
    k2: int
    k3: int
    cipher_factory: type = Rectangle80

    def __post_init__(self) -> None:
        for name in ("k1", "k2", "k3"):
            key = getattr(self, name)
            if key < 0 or key >> KEY_BITS:
                raise ValueError(f"{name} must be an unsigned {KEY_BITS}-bit integer")

    @classmethod
    def from_seed(cls, seed: int) -> "DeviceKeys":
        """Derive a full key set from one integer seed (tests/examples);
        :meth:`for_profile` binds it to another cipher."""
        return cls(
            k1=derive_key(seed, "sofia-ctr-encryption"),
            k2=derive_key(seed, "sofia-cbcmac-execution"),
            k3=derive_key(seed, "sofia-cbcmac-multiplexor"),
        )

    def for_profile(self, profile) -> "DeviceKeys":
        """This key set re-bound to ``profile``'s cipher.

        The provisioned secrets are cipher-agnostic 80-bit values; the
        profile (any object with a ``cipher_factory`` attribute, see
        :class:`repro.transform.profile.ProtectionProfile`) selects which
        datapath consumes them.  Returns ``self`` when the factory
        already matches.
        """
        factory = profile.cipher_factory
        if factory is self.cipher_factory:
            return self
        return DeviceKeys(k1=self.k1, k2=self.k2, k3=self.k3,
                          cipher_factory=factory)

    def _cipher(self, key: int):
        table_key = (self.cipher_factory, key)
        cipher = _CIPHERS.get(table_key)
        if cipher is None:
            cipher = _CIPHERS[table_key] = self.cipher_factory(key)
        return cipher

    @property
    def encryption_cipher(self) -> Rectangle80:
        """Cipher instance keyed with k1 (CTR instruction encryption)."""
        return self._cipher(self.k1)

    @property
    def exec_mac_cipher(self) -> Rectangle80:
        """Cipher instance keyed with k2 (execution-block CBC-MAC)."""
        return self._cipher(self.k2)

    @property
    def mux_mac_cipher(self) -> Rectangle80:
        """Cipher instance keyed with k3 (multiplexor-block CBC-MAC)."""
        return self._cipher(self.k3)

    def __iter__(self) -> Iterator[int]:
        return iter((self.k1, self.k2, self.k3))

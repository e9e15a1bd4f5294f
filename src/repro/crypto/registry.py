"""Cipher registry: the design-space axis for cipher agility.

SOFIA's hardware datapath is cipher-agnostic — it needs a single-cycle
64-bit PRP with an 80-bit key (the companion work, Maene & Verbauwhede
[36], evaluates exactly RECTANGLE and PRESENT as SOFIA-class datapaths).
The registry names each implementation so a
:class:`~repro.transform.profile.ProtectionProfile` can select the
cipher by a stable string, and images can embed the choice as a small
integer code (see ``ProtectionProfile.to_code``).

Codes are part of the on-disk image format: once assigned, a cipher's
code must never change.  Code 0 is RECTANGLE-80, the paper's cipher, so
a zeroed header field decodes to the paper's design point.
"""

from __future__ import annotations

from typing import Dict, List

from .present import Present80
from .rectangle import Rectangle80

#: name -> cipher class (the constructor takes the 80-bit key)
CIPHERS: Dict[str, type] = {
    "rectangle-80": Rectangle80,
    "present-80": Present80,
}

#: name -> stable serialization code (part of the image format)
CIPHER_CODES: Dict[str, int] = {
    "rectangle-80": 0,
    "present-80": 1,
}

#: the paper's cipher
DEFAULT_CIPHER = "rectangle-80"


def cipher_names() -> List[str]:
    """Registered cipher names, in registration order."""
    return list(CIPHERS)


def get_cipher(name: str) -> type:
    """The cipher class registered under ``name``."""
    try:
        return CIPHERS[name]
    except KeyError:
        raise ValueError(
            f"unknown cipher {name!r}; known: {cipher_names()}") from None


def cipher_code(name: str) -> int:
    """The stable serialization code of a registered cipher."""
    get_cipher(name)  # validates the name
    return CIPHER_CODES[name]


def cipher_from_code(code: int) -> str:
    """The cipher name for a serialization code (inverse of cipher_code)."""
    for name, value in CIPHER_CODES.items():
        if value == code:
            return name
    raise ValueError(f"unknown cipher code {code}")

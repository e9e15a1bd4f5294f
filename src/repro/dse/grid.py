"""Profile-grid construction and CLI spec parsing for the E17 sweep.

Two spec languages, both tiny and both round-tripping through
``ProtectionProfile.label``:

* **profile spec** — one design point, parsed by
  :func:`repro.transform.profile.parse_profile_spec`; commas separate
  profiles in a ``--profiles`` list.
* **grid spec** — cartesian axes separated by ``:``, values by ``,``:
  ``<ciphers>:<mac_bits>:<renonce>[:<block_words>]``, e.g.
  ``rectangle-80,present-80:32,64:sequential,fixed``.

Numeric fields are validated at parse time, with messages that name
the offending token, before they reach
:class:`~repro.transform.profile.ProtectionProfile` (which refuses them
too, with constructor-level messages).
"""

from __future__ import annotations

from typing import List, Optional

from ..transform.profile import (ProtectionProfile, check_block_words,
                                 parse_mac_bits, parse_profile_spec,
                                 profile_grid)


def parse_profiles(specs: str) -> List[ProtectionProfile]:
    """Parse a comma-separated list of profile specs.

    Commas separate *profiles* here; within one profile the tokens are
    colon- or slash-separated (labels use slashes).
    """
    profiles = [parse_profile_spec(part) for part in specs.split(",")
                if part.strip()]
    if not profiles:
        raise ValueError("empty profile list")
    return profiles


def parse_grid(spec: str) -> List[ProtectionProfile]:
    """Parse a cartesian grid spec into its profile list."""
    axes = [axis.strip() for axis in spec.split(":")]
    if len(axes) < 3 or len(axes) > 4:
        raise ValueError(
            f"grid spec needs 3 or 4 axes "
            f"(ciphers:mac_bits:renonce[:block_words]), got {len(axes)}")
    ciphers = [c.strip() for c in axes[0].split(",") if c.strip()]
    mac_bits = [32 * parse_mac_bits(int(b))
                for b in axes[1].split(",") if b.strip()]
    renonce = [r.strip() for r in axes[2].split(",") if r.strip()]
    block_words = ([check_block_words(int(b))
                    for b in axes[3].split(",") if b.strip()]
                   if len(axes) == 4 else [8])
    return profile_grid(ciphers=ciphers, mac_bits=mac_bits,
                        renonce=renonce, block_words=block_words)


def default_grid() -> List[ProtectionProfile]:
    """The E17 grid: 2 ciphers x {32,64,96}-bit seals x both policies."""
    return profile_grid()


def resolve_profiles(profiles: Optional[str] = None,
                     grid: Optional[str] = None
                     ) -> List[ProtectionProfile]:
    """CLI argument resolution: explicit points, a grid, or the default."""
    if profiles and grid:
        raise ValueError("--profiles and --grid are mutually exclusive")
    if profiles:
        return parse_profiles(profiles)
    if grid:
        return parse_grid(grid)
    return default_grid()

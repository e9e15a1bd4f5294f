"""Per-process build cache for protected images.

Compiling a workload, assembling it, and transforming + MAC'ing +
encrypting it into a :class:`~repro.transform.image.SofiaImage` costs
orders of magnitude more than a single fault or timing task, and the
whole pipeline is deterministic: the same (workload, scale, key seed,
nonce, :class:`~repro.transform.profile.ProtectionProfile`) always yields
the same image, so a :class:`BuildSpec` names one build and nothing else
does.  The cache memoizes each stage so a campaign builds every distinct
image exactly once **per process** — once overall in a serial run, once
per worker in a parallel run (workers forked after a parent-side build
inherit the parent's cache copy-on-write and build nothing at all).

The cache is deliberately process-global rather than passed around:
worker functions must be picklable module-level functions, and the memo
is exactly the state that must *not* travel through pickles.  Tests can
inspect hit/miss counters via :func:`build_cache` and reset the memo
with :func:`clear_build_cache`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from ..crypto.keys import DeviceKeys
from ..isa.assembler import assemble
from ..isa.program import Executable
from ..transform.image import SofiaImage
from ..transform.profile import DEFAULT_PROFILE, ProtectionProfile
from ..transform.transformer import transform
from ..workloads.base import Workload, make_workload

#: key seed shared with :mod:`repro.eval.overhead`'s default keys
DEFAULT_KEY_SEED = 0x50F1A


@dataclass(frozen=True)
class BuildSpec:
    """Everything that determines one protected build of one workload."""

    workload: str
    scale: str = "small"
    key_seed: int = DEFAULT_KEY_SEED
    nonce: int = 0x2016
    profile: ProtectionProfile = DEFAULT_PROFILE


@dataclass
class CacheStats:
    """Hit/miss counters, split by pipeline stage."""

    compile_hits: int = 0
    compile_misses: int = 0
    image_hits: int = 0
    image_misses: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {"compile_hits": self.compile_hits,
                "compile_misses": self.compile_misses,
                "image_hits": self.image_hits,
                "image_misses": self.image_misses}


@dataclass
class BuildCache:
    """Memo of compiled workloads and protected images (one per process)."""

    stats: CacheStats = field(default_factory=CacheStats)
    _compiled: Dict[Tuple[str, str], Tuple[Workload, Executable]] = \
        field(default_factory=dict)
    _images: Dict[BuildSpec, SofiaImage] = field(default_factory=dict)
    _keys: Dict[int, DeviceKeys] = field(default_factory=dict)

    def keys_for(self, key_seed: int) -> DeviceKeys:
        keys = self._keys.get(key_seed)
        if keys is None:
            keys = DeviceKeys.from_seed(key_seed)
            self._keys[key_seed] = keys
        return keys

    def compiled(self, workload: str, scale: str) -> Tuple[Workload,
                                                           Executable]:
        """The instantiated workload and its linked vanilla executable."""
        key = (workload, scale)
        entry = self._compiled.get(key)
        if entry is None:
            self.stats.compile_misses += 1
            instance = make_workload(workload, scale)
            entry = (instance, assemble(instance.compile().program))
            self._compiled[key] = entry
        else:
            self.stats.compile_hits += 1
        return entry

    def protected(self, spec: BuildSpec) -> Tuple[Workload, Executable,
                                                  SofiaImage, DeviceKeys]:
        """The fully protected build for ``spec`` (memoized per stage).

        The returned keys are provisioned for the spec profile's cipher.
        """
        instance, exe = self.compiled(spec.workload, spec.scale)
        keys = self.keys_for(spec.key_seed).for_profile(spec.profile)
        image = self._images.get(spec)
        if image is None:
            self.stats.image_misses += 1
            image = transform(instance.compile().program, keys,
                              nonce=spec.nonce, profile=spec.profile)
            self._images[spec] = image
        else:
            self.stats.image_hits += 1
        return instance, exe, image, keys

    def clear(self) -> None:
        self._compiled.clear()
        self._images.clear()
        self._keys.clear()
        self.stats = CacheStats()


_CACHE = BuildCache()


def build_cache() -> BuildCache:
    """This process's build cache."""
    return _CACHE


def clear_build_cache() -> None:
    """Reset the memo and counters (test isolation)."""
    _CACHE.clear()

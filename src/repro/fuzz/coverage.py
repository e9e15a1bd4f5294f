"""Coverage map steering the fuzzer (ISSUE 3 feature families).

A specimen's *features* are short string keys drawn from four families,
chosen so that "new coverage" means "a transform/simulator code path the
corpus has not yet pinned":

``bi:<m1>><m2>``   mnemonic bigrams over the program's instruction
                   stream (plus ``mn:<m>`` unigrams) — ALU/memory/CTI
                   semantics and the fast engine's semantics table
``bk:...``         block-geometry classes from the protected image:
                   block kind x entry-path count, forwarder blocks,
                   multiplexor-tree size buckets, block-count buckets
``lr:<runs>x<max>`` I-cache line-run shapes: each block's fetch
                   addresses collapsed into same-line runs (the exact
                   structure the predecoded engine's fetch loop walks)
``oc:...``         outcome classes: per-core status, detection
                   verdicts, violation kinds, trap classes, and
                   cycle-overhead buckets from the differential runs

The map counts how often each key has been observed; a specimen is
*interesting* (kept in the corpus) when it contributes at least one new
key, and mutation is steered toward corpus entries that exhibit the
rarest keys.  Counting (not just set membership) is what makes the
rarest-first scheduling deterministic and cheap.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

from ..runner.export import atomic_write

#: feature-family prefixes, in render order
FAMILIES: Tuple[str, ...] = ("bi", "mn", "bk", "lr", "oc")


def _bucket(value: int) -> int:
    """Logarithmic bucket: 0, 1, 2, 4, 8, ... (order-of-magnitude class)."""
    if value <= 0:
        return 0
    return 1 << (value.bit_length() - 1)


def program_features(instructions) -> List[str]:
    """Mnemonic unigrams and bigrams over the instruction stream."""
    features = []
    prev = None
    for instr in instructions:
        name = instr.mnemonic
        features.append(f"mn:{name}")
        if prev is not None:
            features.append(f"bi:{prev}>{name}")
        prev = name
    return features


def image_features(image, line_words: int = 8) -> List[str]:
    """Block-geometry and line-run shape classes of a protected image.

    ``line_words`` is the I-cache line geometry the specimen runs under
    (``TimingParams.icache_line_words``); the oracle passes its timing's
    value so the ``lr:`` shapes match what the predecoded fetch loop
    actually walks.
    """
    features = [f"bk:words{image.block_words}",
                f"bk:nblocks{_bucket(image.num_blocks)}"]
    stats = image.stats
    if stats is not None:
        features.append(f"bk:mux{_bucket(stats.mux_blocks)}")
        features.append(f"bk:tree{_bucket(stats.tree_nodes)}")
    for block in image.blocks:
        paths = len(block.entry_prev_pcs)
        features.append(f"bk:{block.kind}:paths{paths}")
        if block.is_forwarder:
            features.append("bk:forwarder")
        # same-line runs of the block's fetch window (offset-0 entry):
        # the shape is (number of runs) x (longest run) — the structure
        # engine.compile_fetch_runs hands the predecoded fetch loop
        run_lengths = []
        previous_line = None
        for index in range(image.block_words):
            line = (block.base + 4 * index) // (4 * line_words)
            if line == previous_line:
                run_lengths[-1] += 1
            else:
                run_lengths.append(1)
                previous_line = line
        features.append(f"lr:{len(run_lengths)}x{max(run_lengths)}")
    return features


def outcome_features(axis: str, result) -> List[str]:
    """Status/verdict classes of one machine's run."""
    features = [f"oc:{axis}:{result.status.value}"]
    if result.violation is not None:
        features.append(f"oc:{axis}:violation:{result.violation.kind}")
    if result.trap_reason:
        features.append(f"oc:{axis}:trap:{result.trap_reason.split(':')[0]}")
    return features


def overhead_feature(vanilla_cycles: int, sofia_cycles: int) -> str:
    """Cycle-overhead bucket (percent, order-of-magnitude classes)."""
    if vanilla_cycles <= 0:
        return "oc:ovh:na"
    percent = int(100 * (sofia_cycles / vanilla_cycles - 1.0))
    return f"oc:ovh:{_bucket(max(0, percent))}"


class CoverageMap:
    """Counted feature keys with new-key detection and JSON round-trip."""

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._counts)

    def __contains__(self, key: str) -> bool:
        return key in self._counts

    @property
    def counts(self) -> Dict[str, int]:
        return dict(self._counts)

    def observe(self, features: Iterable[str]) -> List[str]:
        """Count every feature; return the keys seen for the first time."""
        new_keys = []
        counts = self._counts
        for key in features:
            seen = counts.get(key)
            if seen is None:
                counts[key] = 1
                new_keys.append(key)
            else:
                counts[key] = seen + 1
        return new_keys

    def rarest(self, limit: int) -> List[str]:
        """The ``limit`` least-observed keys (count, then key — stable)."""
        ordered = sorted(self._counts.items(), key=lambda kv: (kv[1], kv[0]))
        return [key for key, _ in ordered[:limit]]

    def family_sizes(self) -> Dict[str, int]:
        sizes = {family: 0 for family in FAMILIES}
        for key in self._counts:
            family = key.split(":", 1)[0]
            sizes[family] = sizes.get(family, 0) + 1
        return sizes

    def summary(self) -> Dict[str, object]:
        """Stable JSON-ready digest (identical across identical runs)."""
        return {"total_keys": len(self._counts),
                "families": self.family_sizes(),
                "keys": sorted(self._counts)}

    def render(self) -> str:
        sizes = self.family_sizes()
        parts = [f"{family}={sizes.get(family, 0)}" for family in FAMILIES]
        return f"coverage: {len(self._counts)} keys ({', '.join(parts)})"

    # -- persistence -----------------------------------------------------

    def to_json(self) -> str:
        return json.dumps({"counts": dict(sorted(self._counts.items()))},
                          indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "CoverageMap":
        instance = cls()
        instance._counts = dict(json.loads(text)["counts"])
        return instance

    def save(self, path) -> Path:
        return atomic_write(path, self.to_json())

    @classmethod
    def load(cls, path) -> "CoverageMap":
        return cls.from_json(Path(path).read_text())

"""Deterministic multi-host sharding of campaign task lists.

A sharded campaign splits one deterministic task list across ``n``
independent invocations (typically on ``n`` hosts): shard ``i`` of ``n``
executes exactly the tasks at positions ``j`` with ``j % n == i - 1``
and records their results in its own persistent
:class:`~repro.runner.store.ResultStore`.  The partition depends only on
the submission order and the shard spec — never on worker count,
scheduling, timing, or which results already sit in a store — so the
union of the ``n`` shard stores contains precisely the results a serial
run would have produced, result for result.

``merge_stores`` performs that union (``repro merge`` on the CLI); a
final ``--resume`` pass over the merged store then replays every task
from cache and emits the campaign artifact, byte-identical to an
uninterrupted serial run — the ``--jobs`` determinism invariant extended
across hosts.

Round-robin (rather than contiguous-range) assignment keeps shards
balanced under heterogeneous task costs: campaign task lists are
typically sorted by generation order, which correlates with size.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

_SHARD_RE = re.compile(r"^(\d+)/(\d+)$")


@dataclass(frozen=True)
class ShardSpec:
    """Shard ``index`` (1-based) of ``count`` total shards."""

    index: int
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(
                f"shard count must be >= 1, got {self.count}")
        if not 1 <= self.index <= self.count:
            raise ValueError(
                f"shard index must be in 1..{self.count}, got {self.index}")

    def owns(self, task_index: int) -> bool:
        """Does this shard execute the task at 0-based ``task_index``?"""
        return task_index % self.count == self.index - 1

    @property
    def label(self) -> str:
        return f"{self.index}/{self.count}"


def parse_shard(text: str) -> ShardSpec:
    """Parse a CLI ``i/n`` shard spec (1-based, e.g. ``2/3``)."""
    match = _SHARD_RE.match(text.strip())
    if match is None:
        raise ValueError(
            f"shard spec must look like i/n (e.g. 2/3), got {text!r}")
    return ShardSpec(index=int(match.group(1)), count=int(match.group(2)))


def merge_stores(dest, sources) -> "tuple[int, int]":
    """Union the source stores into ``dest``; returns (copied, present).

    Conflicting entries — the same key bound to a different result —
    raise: for deterministic campaigns they can only mean the shards ran
    different code versions or corrupted stores, and silently preferring
    one side would void the shard-union == serial-run proof.  A source
    path without an ``objects/`` directory is not a store and raises
    before anything is written.
    """
    from .store import ResultStore

    sources = list(sources)
    for source in sources:
        if (not isinstance(source, ResultStore)
                and not (Path(source) / "objects").is_dir()):
            raise ValueError(f"not a result store: {source}")
    dest_store = dest if isinstance(dest, ResultStore) else \
        ResultStore(dest)
    copied = present = 0
    for source in sources:
        source_store = source if isinstance(source, ResultStore) else \
            ResultStore(source)
        added, kept = dest_store.absorb(source_store)
        copied += added
        present += kept
    return copied, present

"""Deterministic batch planning for width-grouped campaign tasks.

The fault campaign runs its specimens in lockstep groups of up to
:data:`~repro.sim.batch.BATCH_WIDTH` (:mod:`repro.sim.batch`).  To
keep every campaign's byte-identical-at-any-``--jobs`` invariant, the
partition of a specimen list into groups must depend **only** on the
submission order and the batch width — never on worker count, scheduling
or timing.  This helper is the single home of that rule: campaigns batch
here, then fan the groups out through :func:`~repro.runner.pool.run_tasks`
(which already preserves submission order), so flattening the per-group
result lists reproduces the scalar result order exactly.
"""

from __future__ import annotations

from typing import List, Sequence, TypeVar

T = TypeVar("T")


def make_batches(items: Sequence[T], width: int) -> List[List[T]]:
    """Partition ``items`` into submission-order groups of ``width``.

    The final group holds the remainder; a width of 1 degenerates to one
    group per item (the scalar-equivalence test case W=1 == scalar).
    """
    if width < 1:
        raise ValueError(f"batch width must be >= 1, got {width}")
    items = list(items)
    return [items[start:start + width]
            for start in range(0, len(items), width)]

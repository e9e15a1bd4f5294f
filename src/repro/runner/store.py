"""Persistent, content-addressed result store for campaign tasks.

Every campaign in this reproduction is an ordered list of *pure*,
deterministic tasks: a result is fully determined by (the code that
computed it, the shared worker context, the task payload).  That is
exactly the property that makes results safely cacheable — so this
module gives each task a content address

    ``sha256(campaign, code_version, context, task)``

and persists its pickled result under that key in a directory store::

    <root>/objects/<key[:2]>/<key>.pkl

``run_tasks_stored`` is the campaign-facing seam: given the task list
and its keys it loads every cached result, dispatches only the missing
tasks (optionally restricted to one :class:`~repro.runner.shard.ShardSpec`
of the list), stores each result as it streams back from the pool, and
returns the results in submission order.  Campaigns gain ``--resume``
(kill a sweep, rerun it, only the unfinished tasks execute; the merged
artifact is byte-identical to a cold serial run) and ``--shard i/n``
(independent hosts each fill their slice of one store; ``repro merge``
unions the stores and a final ``--resume`` pass emits the
serial-identical artifact) without changing how their workers or
exports behave.

Keys embed :func:`code_version` — a digest of every ``repro/*.py``
source file — so any change to the code that could change a result
invalidates the whole store at once.  That policy is deliberately
coarse: stale results silently surviving a refactor would break the
byte-identical merge proof, while over-invalidation merely costs a warm
rerun.  ``REPRO_CODE_VERSION`` overrides the digest (pin it across a
heterogeneous fleet, or version a store by release tag).

Writes are atomic (temp file + ``os.replace``): a campaign killed
mid-``put`` leaves either a complete entry or none, never a truncated
pickle, so ``--resume`` can always trust what it finds — and a campaign
killed mid-task keeps every unit that finished before it.  Entries that
fail to load (foreign files, partial copies) are treated as missing and
recomputed.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path
from typing import (Any, Callable, Iterator, List, Optional, Sequence,
                    TypeVar)

from ..obs.telemetry import current
from .export import atomic_write, to_jsonable
from .pool import check_interrupt, run_tasks
from .shard import ShardSpec

T = TypeVar("T")

_CODE_VERSION: Optional[str] = None

#: sentinel distinguishing "absent" from a stored ``None``
_MISSING = object()


def code_version() -> str:
    """Digest of the repro package sources (the store invalidation key).

    Hashes every ``*.py`` file under ``src/repro/`` by relative path and
    content, memoized per process.  The ``REPRO_CODE_VERSION``
    environment variable overrides the computed digest.
    """
    override = os.environ.get("REPRO_CODE_VERSION")
    if override:
        return override
    global _CODE_VERSION
    if _CODE_VERSION is None:
        package_root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            digest.update(path.relative_to(package_root).as_posix()
                          .encode("utf-8"))
            digest.update(b"\x00")
            digest.update(path.read_bytes())
            digest.update(b"\x00")
        _CODE_VERSION = digest.hexdigest()[:16]
    return _CODE_VERSION


def canonical_json(value: Any) -> str:
    """The canonical (sorted-keys, minimal) JSON form of ``value``.

    Built on :func:`~repro.runner.export.to_jsonable`, which orders sets
    canonically — the same digest on every interpreter and host.
    """
    return json.dumps(to_jsonable(value), sort_keys=True,
                      separators=(",", ":"))


def task_key(campaign: str, context: Any, task: Any) -> str:
    """The content address of one task's result.

    ``context`` is everything the worker context contributes to the
    result (build inputs, key material identity, budgets); ``task`` is
    the per-task payload.  Both must reduce to primitives under
    :func:`~repro.runner.export.to_jsonable` — pass explicit dicts of
    primitives, never objects whose ``str()`` embeds memory addresses.
    """
    material = {
        "campaign": campaign,
        "code": code_version(),
        "context": to_jsonable(context),
        "task": to_jsonable(task),
    }
    return hashlib.sha256(
        json.dumps(material, sort_keys=True, separators=(",", ":"))
        .encode("utf-8")).hexdigest()


def task_keys(campaign: str, context: Any,
              tasks: Sequence[Any]) -> List[str]:
    """:func:`task_key` of every task in ``tasks``, in order.

    A campaign's keys share everything but the task, so the canonical
    JSON up to the task (the material's keys sort as campaign, code,
    context, task) is serialized and hashed once, and each key resumes
    a copy of that digest.  The keys are byte-identical to
    :func:`task_key`'s.
    """
    head = hashlib.sha256(
        ('{"campaign":%s,"code":%s,"context":%s,"task":' % (
            canonical_json(campaign),
            canonical_json(code_version()),
            canonical_json(context))).encode("utf-8"))
    keys = []
    for task in tasks:
        digest = head.copy()
        digest.update((canonical_json(task) + "}").encode("utf-8"))
        keys.append(digest.hexdigest())
    return keys


class ResultStore:
    """A directory of content-addressed pickled task results."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self._objects = self.root / "objects"
        self._objects.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self._objects / key[:2] / f"{key}.pkl"

    def __contains__(self, key: str) -> bool:
        return self._path(key).is_file()

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def keys(self) -> Iterator[str]:
        """Every stored key, in deterministic (sorted) order."""
        for path in sorted(self._objects.glob("*/*.pkl")):
            yield path.stem

    def get(self, key: str, default: Any = None) -> Any:
        """The stored result for ``key``, or ``default`` when absent.

        Unreadable entries (foreign files, torn copies from a non-atomic
        transport) count as absent: the task simply reruns and the entry
        is rewritten.
        """
        try:
            payload = self._path(key).read_bytes()
            value = pickle.loads(payload)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError):
            return default
        return value

    def put(self, key: str, value: Any) -> None:
        """Persist ``value`` under ``key`` atomically."""
        self._write(key, pickle.dumps(value, protocol=4))

    def _write(self, key: str, payload: bytes) -> None:
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write(path, payload)

    def absorb(self, source: "ResultStore") -> "tuple[int, int]":
        """Copy every entry of ``source`` absent here; (copied, present).

        The same key holding a different payload raises — for
        deterministic tasks that means mismatched code versions or a
        corrupted store, and the merge proof forbids guessing.
        """
        copied = present = 0
        for key in source.keys():
            payload = source._path(key).read_bytes()
            path = self._path(key)
            if path.is_file():
                if path.read_bytes() != payload:
                    raise ValueError(
                        f"conflicting results for key {key}: the shard "
                        f"stores disagree (mixed code versions?)")
                present += 1
                continue
            self._write(key, payload)
            copied += 1
        return copied, present


@dataclass
class StoredRun:
    """What :func:`run_tasks_stored` did: results + provenance counters."""

    #: result per task in submission order; ``None`` marks a task this
    #: invocation neither found cached nor owned (shard mode only)
    results: List[Any]
    hits: int = 0
    executed: int = 0
    skipped: int = 0

    @property
    def complete(self) -> bool:
        """Is every task's result present (loaded or computed)?"""
        return self.skipped == 0


def run_tasks_stored(fn: Callable, tasks: Sequence[T],
                     keys: Optional[Sequence[str]] = None, *,
                     width: Optional[int] = None,
                     jobs: Optional[int] = 1,
                     context: Optional[Callable[[], Any]] = None,
                     store: Optional[ResultStore] = None,
                     shard: Optional[ShardSpec] = None) -> StoredRun:
    """Run ``fn`` over ``tasks`` with store-backed memoization.

    Cached results are loaded first; the missing tasks — with a
    ``shard``, only the missing tasks it *owns* — are dispatched through
    :func:`~repro.runner.pool.run_tasks` (``jobs`` and ``context`` as
    there), and each result is persisted the moment it arrives, so a
    campaign killed mid-run keeps every finished unit.  The ``context``
    factory runs only when at least one unit is dispatched: a warm store,
    or a shard that owns no missing task, builds no worker context.
    Results always come back in submission order, so a complete run is
    indistinguishable from ``[fn(context(), task) for task in tasks]``.
    Without a ``store`` the same dispatch runs and nothing is persisted.

    A *unit* is what one dispatched call runs.  By default it is one
    task and ``fn`` maps it to its result; with ``width`` the owned
    missing tasks are grouped, in order, into lists of up to ``width``
    and ``fn`` maps each list to the list of its results.  The grouping
    depends only on which tasks are missing, never on ``jobs``.

    The telemetry of the open campaign (:func:`repro.obs.campaign`)
    records the dispatch plan, store hits, shard/resume decisions, and
    each unit as scheduled, completed or failed, labelled with its first
    task's index — purely observationally; it never changes which tasks
    run or what is stored.  A unit that raises is reported as failed and
    its exception propagates unchanged.  A Ctrl-C that a finalizer
    swallowed (:func:`~repro.runner.pool.recording_interrupts`) raises
    :class:`KeyboardInterrupt` after the unit it landed in is stored.
    """
    telemetry = current()
    task_list = list(tasks)
    if shard is not None and store is None:
        raise ValueError("sharding requires a result store "
                         "(--shard without --resume loses the results)")
    if width is not None and width < 1:
        raise ValueError(f"unit width must be >= 1, got {width}")
    results: List[Any] = [None] * len(task_list)
    missing = list(range(len(task_list)))
    cached: List[int] = []
    if store is not None:
        key_list = list(keys or ())
        if len(key_list) != len(task_list):
            raise ValueError(f"{len(task_list)} tasks need exactly that "
                             f"many keys, got {len(key_list)}")
        missing = []
        for index, key in enumerate(key_list):
            value = store.get(key, _MISSING)
            if value is _MISSING:
                missing.append(index)
            else:
                results[index] = value
                cached.append(index)
    owned = [i for i in missing if shard is None or shard.owns(i)]
    skipped = len(missing) - len(owned)
    telemetry.plan(len(task_list), cached=len(cached), skipped=skipped)
    if store is not None:
        telemetry.resume(store.root, hits=len(cached), missing=len(missing))
        if shard is not None:
            telemetry.shard_decision(shard.label, owned=len(owned),
                                     skipped=skipped)
        for index in cached:
            telemetry.store_hit(index)
        telemetry.count("store.misses", len(missing))
    step = width or 1
    units = [owned[start:start + step]
             for start in range(0, len(owned), step)]
    stream = run_tasks(
        fn, [[task_list[i] for i in unit] if width else task_list[unit[0]]
             for unit in units],
        jobs=jobs, context=context, metrics=telemetry.enabled)
    check_interrupt()
    with closing(stream):
        for unit in units:
            telemetry.task_scheduled(unit[0])
            try:
                out, span = next(stream)
            except Exception as exc:
                telemetry.task_failed(
                    unit[0], exc,
                    key_list[unit[0]] if store is not None else None)
                raise
            values = out if width else [out]
            if len(values) != len(unit):
                raise ValueError(f"a unit of {len(unit)} tasks returned "
                                 f"{len(values)} results")
            for index, value in zip(unit, values):
                results[index] = value
            if store is not None:
                for index in unit:
                    store.put(key_list[index], results[index])
                telemetry.count("store.puts", len(unit))
            telemetry.task_completed(span, unit[0], len(unit))
            check_interrupt()
    return StoredRun(results=results, hits=len(cached),
                     executed=len(owned), skipped=skipped)

"""Parallel campaign orchestration (see DESIGN.md, "Campaign runner").

Every evaluation surface of the reproduction — fault-injection campaigns
(E11), the attack matrix (E8), Monte-Carlo security experiments (E9), and
workload x profile overhead sweeps (E2/E6/E10/E14) — is embarrassingly
parallel: a campaign is an ordered list of independent, deterministic
tasks.  This package is the one seam through which all of them fan out
across CPU cores:

:mod:`repro.runner.pool`
    ``run_tasks`` — stream an ordered task list through a process pool
    (or in-process, bit-identically, with ``jobs=1``) as ordered
    ``(result, span)`` pairs, with chunked dispatch; each task is called
    as ``fn(context, task)`` with the value of the dispatch's lazily
    called ``context`` factory.

:mod:`repro.runner.seeding`
    ``task_seed`` / ``task_rng`` — deterministic per-task seed derivation
    so randomized campaigns are reproducible independent of worker count
    and scheduling order.

:mod:`repro.runner.cache`
    ``build_cache`` — a per-process memo of compiled workloads and
    protected :class:`~repro.transform.image.SofiaImage` builds, so each
    image is compiled/transformed/encrypted once per (workload, profile,
    nonce) per process instead of once per specimen.

:mod:`repro.runner.export`
    ``campaign_record`` / ``write_campaign`` — structured JSON export of
    any campaign's parameters and per-task results (atomic writes,
    canonically ordered sets).

:mod:`repro.runner.store`
    ``ResultStore`` / ``task_key`` / ``task_keys`` /
    ``run_tasks_stored`` — a
    persistent, content-addressed result cache keyed by
    (code version, context digest, task digest), and the one dispatch
    path every campaign takes: cached results load, missing tasks
    stream through ``run_tasks`` and are stored, reported and counted
    as they arrive, making every campaign incremental and resumable
    (``--resume``).

:mod:`repro.runner.shard`
    ``ShardSpec`` / ``parse_shard`` / ``merge_stores`` — deterministic
    ``i/n`` partitioning of a campaign's task list across hosts, plus
    the store union behind ``repro merge``.

Design contract (every caller relies on these):

* **Determinism** — tasks must be pure functions of their payload plus
  the dispatch's context; given the same task list, serial and parallel
  execution return identical result lists.
* **Ordering** — results are returned in task-submission order, never in
  completion order.
* **Graceful degradation** — on a single-core host (or ``jobs=1``) the
  runner degrades to the serial path with zero multiprocessing overhead.
* **Durability** — store and export writes are atomic, and each result
  is stored as it arrives; a campaign killed at any instant leaves a
  store a ``--resume`` run can trust, holding every unit finished before
  the kill, and resumed/merged artifacts are byte-identical to a cold
  serial run.
"""

from .cache import (DEFAULT_KEY_SEED, BuildCache, BuildSpec, CacheStats,
                    build_cache, clear_build_cache)
from .export import (atomic_write, campaign_record, check_writable,
                     to_jsonable, write_campaign)
from .pool import available_cpus, default_chunksize, resolve_jobs, run_tasks
from .seeding import task_rng, task_seed
from .shard import ShardSpec, merge_stores, parse_shard, shard_partition
from .store import (ResultStore, StoredRun, StoreStats, code_version,
                    run_tasks_stored, stable_digest, task_key, task_keys)

__all__ = [
    "run_tasks", "resolve_jobs", "available_cpus", "default_chunksize",
    "task_seed", "task_rng",
    "BuildCache", "BuildSpec", "CacheStats", "build_cache",
    "clear_build_cache", "DEFAULT_KEY_SEED",
    "campaign_record", "write_campaign", "to_jsonable",
    "atomic_write", "check_writable",
    "ResultStore", "StoredRun", "StoreStats", "code_version",
    "run_tasks_stored", "stable_digest", "task_key", "task_keys",
    "ShardSpec", "parse_shard", "shard_partition", "merge_stores",
]

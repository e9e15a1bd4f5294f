"""Process-pool task dispatch with a bit-identical serial fallback.

``run_tasks`` turns a picklable worker function and an ordered list of
picklable payloads into an ordered stream of ``(result, span)`` pairs,
one per payload.  Serial and parallel dispatch differ only in which
``map`` produces the stream: one worker (``jobs=1``, or a single task)
maps in-process after calling the initializer, more use
``ProcessPoolExecutor.map`` with chunked dispatch.  Either way the
stream arrives in submission order, so a consumer can act on each
result — store it, report it — the moment it and all its predecessors
are done.

Every task runs under one worker-side wrapper that times it and
returns the worker's span (pid, timing, counter deltas; see
:mod:`repro.obs.worker`) beside the result.  The per-worker metrics
registry behind the deltas is installed only with ``metrics=True``;
without it the simulator hook stays unset and the deltas are empty.

Workers that need expensive shared context (a protected image, a target
matrix) receive it through ``initializer``/``initargs``: the context is
pickled once per worker process, not once per task, and module-global
state installed by the initializer plays the role of the shared build
cache.  On POSIX the pool uses the ``fork`` start method, so large
read-only context is additionally shared copy-on-write.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from functools import partial
from typing import (Callable, Iterable, Iterator, Optional, Tuple,
                    TypeVar)

from ..obs import worker as obs_worker

T = TypeVar("T")
R = TypeVar("R")


def available_cpus() -> int:
    """CPUs actually usable by this process, and at least one.

    ``os.cpu_count()`` reports the machine's core count even inside a
    cgroup/affinity-limited container (CI runners routinely pin a 64-core
    host down to 2), so prefer the scheduler affinity mask where the
    platform provides it.
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux platforms
        return max(1, os.cpu_count() or 1)


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: ``None`` means one per available CPU, at least one."""
    if jobs is None:
        return available_cpus()
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


def default_chunksize(num_tasks: int, jobs: int) -> int:
    """Tasks per pickle round-trip: ~4 chunks per worker.

    Small enough to load-balance tasks of uneven duration (fault runs
    range from a few hundred to millions of simulated instructions),
    large enough to amortize IPC for sub-millisecond tasks.
    """
    if num_tasks <= 0:
        return 1
    return max(1, num_tasks // (4 * jobs))


def _fork_context():
    """Prefer ``fork`` (cheap context sharing); fall back to the default."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def _init_worker(metrics: bool, initializer: Optional[Callable],
                 initargs: Tuple) -> None:
    """Set up one worker (or the parent, serially): the metrics
    registry when asked for, then the campaign's own initializer."""
    if metrics:
        obs_worker.install()
    if initializer is not None:
        initializer(*initargs)


def _timed(fn: Callable[[T], R], task: T) -> Tuple[R, obs_worker.Span]:
    """The worker-side wrapper: run one task and close its span."""
    start = time.perf_counter()
    result = fn(task)
    return result, obs_worker.span(start, time.perf_counter())


@contextmanager
def _mapper(workers: int, num_tasks: int, metrics: bool,
            initializer: Optional[Callable], initargs: Tuple):
    """The ``map`` one dispatch runs: in-process after the initializer
    for one worker, else a fork pool's chunked ``map``."""
    setup = (metrics, initializer, initargs)
    if workers <= 1:
        _init_worker(*setup)
        try:
            yield map
        finally:
            if metrics:
                obs_worker.uninstall()
        return
    with ProcessPoolExecutor(max_workers=workers,
                             mp_context=_fork_context(),
                             initializer=_init_worker,
                             initargs=setup) as pool:
        yield partial(pool.map,
                      chunksize=default_chunksize(num_tasks, workers))


def run_tasks(fn: Callable[[T], R], tasks: Iterable[T], *,
              jobs: Optional[int] = 1,
              initializer: Optional[Callable] = None,
              initargs: Tuple = (),
              metrics: bool = False
              ) -> Iterator[Tuple[R, obs_worker.Span]]:
    """Stream ``(fn(task), span)`` for every task, in task order.

    ``jobs`` is the worker count: ``1`` (the default) runs in-process,
    ``None`` means one worker per available CPU, and a single task never
    pays for a pool.  ``ProcessPoolExecutor.map`` yields in submission
    order regardless of which worker finishes first, so the stream is
    the same at any worker count.  Nothing runs — not even the
    initializer — until the stream is first advanced; a task that raises
    ends the stream with its exception, after every earlier result.

    ``metrics=True`` installs a process-local metrics registry in each
    worker (the parent, serially), so spans carry the simulator counter
    deltas of their task; otherwise no simulator sink is installed.
    """
    task_list = list(tasks)
    workers = min(resolve_jobs(jobs), len(task_list))
    with _mapper(workers, len(task_list), metrics, initializer,
                 initargs) as mapper:
        yield from mapper(partial(_timed, fn), task_list)

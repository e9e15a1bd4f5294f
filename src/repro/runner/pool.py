"""Process-pool task dispatch with a bit-identical serial fallback.

``run_tasks`` turns a picklable worker function and an ordered list of
picklable payloads into an ordered stream of ``(result, span)`` pairs,
one per payload.  Serial and parallel dispatch differ only in which
``map`` produces the stream: one worker (``jobs=1``, or a single task)
maps in-process, more use ``ProcessPoolExecutor.map`` with chunked
dispatch.  Either way the stream arrives in submission order, so a
consumer can act on each result — store it, report it — the moment it
and all its predecessors are done.

Every task runs under one worker-side wrapper that times it and
returns the worker's span (pid, timing, counter deltas; see
:mod:`repro.obs.worker`) beside the result.  The per-worker metrics
registry behind the deltas is installed only with ``metrics=True``;
without it the simulator hook stays unset and the deltas are empty.

Every task is called as ``fn(context, task)``.  A campaign's shared
context (a protected image and its golden trace, a target table, device
keys) comes from one zero-argument factory per dispatch, called lazily
in the dispatching process when the first task is about to run, so a
dispatch with nothing to run builds nothing.  The serial path passes
the value to each task; pool workers receive it once per process as
they start.  On POSIX the pool uses the ``fork`` start method, so the
value is inherited copy-on-write, never pickled.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from functools import partial
from typing import (Any, Callable, Iterable, Iterator, Optional, Tuple,
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


#: the dispatch's context in a pool worker, set once per process as the
#: pool starts it (the serial path hands it to each task directly)
_POOL_CONTEXT: Any = None


def _init_worker(metrics: bool, context: Any) -> None:
    """Set up one pool worker: SIGINT ignored, the metrics registry when
    asked for, and the dispatch's context, inherited through the fork.

    Ctrl-C reaches the whole process group, and the dispatching process
    alone acts on it: its ``map`` stops, unstarted chunks are cancelled
    and the running ones finish.  A worker that took the interrupt too
    would die idle with a traceback of its own."""
    global _POOL_CONTEXT
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    if metrics:
        obs_worker.install()
    _POOL_CONTEXT = context


def _timed(fn: Callable[[Any, T], R], context: Any,
           task: T) -> Tuple[R, obs_worker.Span]:
    """The worker-side wrapper: run one task and close its span."""
    start = time.perf_counter()
    result = fn(context, task)
    return result, obs_worker.span(start, time.perf_counter())


def _pooled(fn: Callable[[Any, T], R], task: T) -> Tuple[R, obs_worker.Span]:
    """:func:`_timed` with the context this pool worker was started with."""
    return _timed(fn, _POOL_CONTEXT, task)


@contextmanager
def _mapper(workers: int, num_tasks: int, metrics: bool, context: Any):
    """The ``map`` one dispatch runs over ``(result, span)`` wrappers:
    in-process with the context bound for one worker, else a fork
    pool's chunked ``map``."""
    if workers <= 1:
        if metrics:
            obs_worker.install()
        try:
            yield lambda fn, tasks: map(partial(_timed, fn, context), tasks)
        finally:
            if metrics:
                obs_worker.uninstall()
        return
    # each worker runs _init_worker once as it starts; a fork-started
    # worker inherits its arguments, the context included, unpickled
    with ProcessPoolExecutor(workers, _fork_context(), _init_worker,
                             (metrics, context)) as pool:
        yield lambda fn, tasks: pool.map(
            partial(_pooled, fn), tasks,
            chunksize=default_chunksize(num_tasks, workers))


def run_tasks(fn: Callable[[Any, T], R], tasks: Iterable[T], *,
              jobs: Optional[int] = 1,
              context: Optional[Callable[[], Any]] = None,
              metrics: bool = False
              ) -> Iterator[Tuple[R, obs_worker.Span]]:
    """Stream ``(fn(context, task), span)`` for every task, in task order.

    ``jobs`` is the worker count: ``1`` (the default) runs in-process,
    ``None`` means one worker per available CPU, and a single task never
    pays for a pool.  ``ProcessPoolExecutor.map`` yields in submission
    order regardless of which worker finishes first, so the stream is
    the same at any worker count.  A task that raises ends the stream
    with its exception, after every earlier result.

    ``context`` is a zero-argument factory for what every task shares (a
    protected image, a target table, device keys); each task receives
    its value as ``fn``'s first argument, ``None`` without a factory.
    Nothing runs until the stream is first advanced: the factory is then
    called once, in this process, and never for an empty task list.
    Pool workers inherit the value through the fork, once per process;
    the serial path passes it straight to each task.  The stream keeps
    no reference to it once it ends.

    ``metrics=True`` installs a process-local metrics registry in each
    worker (the parent, serially), so spans carry the simulator counter
    deltas of their task; otherwise no simulator sink is installed.
    """
    task_list = list(tasks)
    workers = min(resolve_jobs(jobs), len(task_list))
    if not task_list:
        return
    value = context() if context is not None else None
    with _mapper(workers, len(task_list), metrics, value) as mapper:
        yield from mapper(fn, task_list)

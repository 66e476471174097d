"""Process-pool fallback reporting shared by the parallel fan-outs.

Both parallel generators (traffic residences, observatory vantage
points) fall back to their sequential path when the host cannot run a
:class:`~concurrent.futures.ProcessPoolExecutor` (sandboxes denying
fork or semaphores, fd/memory exhaustion).  The fallback used to be
silent, so ``parallel=4`` on a sandboxed host *looked* honoured while
quietly running inline; :func:`warn_pool_fallback` makes it a one-time
:class:`RuntimeWarning` instead.

One warning per **process**, not per fan-out: a host that cannot fork
for traffic generation cannot fork for the observatory or a whatif
sweep either, and three copies of the same diagnosis are noise.  The
first fallback names its context and says the degradation applies to
every later fan-out; the rest are recorded (:func:`fallback_contexts`)
but silent.

A pool that *breaks mid-map* (one worker crashed: OOM-killed, killed by
a signal, or an injected :class:`~repro.resilience.faults.
InjectedWorkerCrash`) is different from a pool that never existed --
the surviving shards already computed their results.  ``map_in_pool``
therefore collects per-shard futures and **resubmits only the lost
shards sequentially** in the parent; every task draws from its own
seeded RNG substream, so a resubmitted shard is bit-identical to the
one the crashed worker would have returned, and parallel ≡ sequential
determinism survives the crash.  Resubmissions are recorded in
:func:`resubmitted_shards` and warned about once per process.
"""

from __future__ import annotations

import errno
import math
import os
import pickle
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Iterable, Sequence

from repro.telemetry import registry as _metrics_registry

_POOL_FALLBACKS = _metrics_registry().counter(
    "pool_fallbacks_total",
    "fan-outs that degraded to the sequential path, per context",
    ("context",),
)
_POOL_RESUBMISSIONS = _metrics_registry().counter(
    "pool_resubmitted_shards_total",
    "shards lost to a mid-map pool crash and re-run in the parent, per context",
    ("context",),
)

#: OSError errnos that mean "this environment cannot run a process pool"
#: (fork/semaphore denied or resources exhausted) rather than a bug in
#: the parallelized code itself.
POOL_UNAVAILABLE_ERRNOS = frozenset(
    {
        errno.EPERM,
        errno.EACCES,
        errno.ENOSYS,
        errno.EAGAIN,
        errno.ENOMEM,
        errno.EMFILE,
        errno.ENFILE,
    }
)

#: Contexts that have fallen back in this process, in order; only the
#: first emitted the warning.
_FELL_BACK: list[str] = []

#: ``(context, shard_count)`` of every mid-map crash recovery, in order;
#: only the first emitted a warning.
_RESUBMITTED: list[tuple[str, int]] = []


def warn_pool_fallback(context: str, reason: BaseException | str) -> None:
    """Emit a one-time-per-process warning that a pool fell back inline.

    Pool unavailability is a property of the *host*, not of one
    fan-out: whichever subsystem (traffic generation, observatory probe
    rounds, a whatif sweep) hits it first warns -- once, for all of
    them -- and later fallbacks only register in
    :func:`fallback_contexts`.

    Args:
        context: which fan-out degraded (``"traffic generation"``).
        reason: the triggering exception (or a description).
    """
    first = not _FELL_BACK
    if context not in _FELL_BACK:
        _FELL_BACK.append(context)
    _POOL_FALLBACKS.inc(context=context)
    if not first:
        return
    warnings.warn(
        f"{context}: process pool unavailable ({reason!s} "
        f"[{type(reason).__name__ if isinstance(reason, BaseException) else 'info'}]); "
        "falling back to the sequential path -- results are identical, "
        "but the requested parallelism is not in effect (this warning is "
        "emitted once per process; every later fan-out degrades the same "
        "way, silently)",
        RuntimeWarning,
        stacklevel=3,
    )


def fallback_contexts() -> tuple[str, ...]:
    """The contexts that degraded to the sequential path, in order."""
    return tuple(_FELL_BACK)


def resubmitted_shards() -> tuple[tuple[str, int], ...]:
    """``(context, lost_shard_count)`` per mid-map crash recovery, in order."""
    return tuple(_RESUBMITTED)


def warn_shard_resubmission(context: str, lost: int) -> None:
    """Record (and once per process, warn about) a mid-map crash recovery."""
    first = not _RESUBMITTED
    _RESUBMITTED.append((context, lost))
    _POOL_RESUBMISSIONS.inc(lost, context=context)
    if not first:
        return
    warnings.warn(
        f"{context}: a pool worker crashed mid-map; re-running {lost} lost "
        "shard(s) sequentially in the parent -- results are bit-identical "
        "(every shard draws from its own seeded substream), but part of the "
        "fan-out ran inline (warned once per process; later recoveries are "
        "recorded in resubmitted_shards() silently)",
        RuntimeWarning,
        stacklevel=3,
    )


def reset_pool_fallback_warnings() -> None:
    """Forget the fallbacks and resubmissions seen so far (test hook)."""
    _FELL_BACK.clear()
    _RESUBMITTED.clear()


#: The cgroup v2 CPU bandwidth limit of this process's cgroup:
#: ``"<quota> <period>"`` in microseconds, or ``"max <period>"``.
CGROUP_CPU_MAX = "/sys/fs/cgroup/cpu.max"


def read_cgroup_cpu_max() -> str | None:
    """The text of :data:`CGROUP_CPU_MAX`, or ``None`` if unreadable."""
    try:
        with open(CGROUP_CPU_MAX) as handle:
            return handle.read()
    except OSError:
        return None


def cgroup_cpu_limit() -> int | None:
    """CPUs a cgroup v2 quota allows (``ceil(quota / period)``), or
    ``None`` when there is no numeric quota to honour."""
    text = read_cgroup_cpu_max()
    fields = text.split() if text else []
    try:
        quota, period = int(fields[0]), int(fields[1])
    except (IndexError, ValueError):  # "max", a missing or garbled file
        return None
    if quota <= 0 or period <= 0:
        return None
    return math.ceil(quota / period)


def resolve_worker_count(parallel: bool | int | None, num_tasks: int) -> int:
    """Worker-process count for a fan-out of ``num_tasks`` independent tasks.

    ``None`` auto-detects (processes only when more than one CPU is
    usable), ``True`` uses every usable CPU, ``False``/``0``/``1`` force
    the sequential path, and an ``int`` pins the count; never more
    workers than tasks.  Usable CPUs are this process's affinity mask
    (which cpuset cgroups and ``taskset`` narrow) where the platform
    has one, else ``os.cpu_count()``, capped by a cgroup v2 CPU quota
    (:func:`cgroup_cpu_limit`) when one is set.
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    limit = cgroup_cpu_limit()
    if limit is not None:
        cpus = min(cpus, limit)
    if parallel is None:
        wanted = cpus if cpus > 1 else 1
    elif parallel is True:
        wanted = cpus
    elif parallel is False:
        wanted = 1
    else:
        wanted = int(parallel)
    return max(1, min(wanted, num_tasks))


def _metered_call(fn: Callable[[Any], Any], task: Any) -> tuple[Any, dict]:
    """Run one shard in a worker, shipping its metric deltas alongside.

    The worker's registry is reset first: a forked child inherits every
    sample the parent had at fork time (and a reused worker still holds
    the previous task's already-shipped delta), so what survives the
    reset and the call is exactly this task's contribution.  The parent
    merges the snapshot out of the map result -- counters that lived
    only in worker processes would otherwise vanish with them.
    """
    worker_registry = _metrics_registry()
    worker_registry.reset()
    result = fn(task)
    return result, worker_registry.snapshot()


def map_in_pool(
    fn: Callable[[Any], Any],
    tasks: Sequence[Any],
    workers: int,
    context: str,
    initializer: Callable[..., None] | None = None,
    initargs: Iterable[Any] = (),
) -> list[Any] | None:
    """Pool-map ``fn`` over ``tasks`` with the shared degradation contract.

    Returns the results in task order, or ``None`` when this environment
    cannot run a process pool at all (pool creation or dispatch failed)
    -- after emitting the one-time :func:`warn_pool_fallback` warning --
    so the caller runs its sequential path instead.  An :class:`OSError`
    whose errno is *not* in :data:`POOL_UNAVAILABLE_ERRNOS` is a bug in
    the parallelized code itself and propagates.

    A pool that breaks *mid-map* does not discard the surviving shards:
    each task is submitted as its own future, and only the shards lost
    to the crash (:class:`BrokenProcessPool` on their result) re-run
    sequentially in the parent -- after re-running ``initializer`` here,
    since the worker state it built died with the pool.  Each task is a
    pure function of its arguments (per-shard RNG substreams), so the
    recovered map is bit-identical to an undisturbed one.

    ``initializer``/``initargs`` follow the executor's semantics: use
    them to ship large shared state once per worker instead of once per
    task.
    """
    if workers <= 1 or not tasks:
        return None
    # Imported here, not at module top: faults sits on top of util.rng,
    # so a module-level import would cycle through the util package init.
    from repro.resilience.faults import fault_hook

    initargs = tuple(initargs)
    try:
        pool = ProcessPoolExecutor(
            max_workers=workers, initializer=initializer, initargs=initargs
        )
    except (BrokenProcessPool, pickle.PicklingError) as exc:
        warn_pool_fallback(context, exc)
        return None
    except OSError as exc:
        if exc.errno not in POOL_UNAVAILABLE_ERRNOS:
            raise
        warn_pool_fallback(context, exc)
        return None
    results: list[Any] = [None] * len(tasks)
    lost: list[int] = []
    try:
        with pool:
            futures: list[Any] = []
            for task in tasks:
                try:
                    futures.append(pool.submit(_metered_call, fn, task))
                except BrokenProcessPool:
                    # The pool died while we were still feeding it; the
                    # unsubmitted tail is lost the same way a crashed
                    # shard is.
                    futures.append(None)
            for index, future in enumerate(futures):
                try:
                    fault_hook("worker-crash", f"{context}: shard {index}")
                    if future is None:
                        raise BrokenProcessPool(
                            f"shard {index} was never submitted (pool broke)"
                        )
                    shard_result, shipped = future.result()
                    _metrics_registry().merge(shipped)
                    results[index] = shard_result
                except BrokenProcessPool:
                    lost.append(index)
    except pickle.PicklingError as exc:
        # Tasks or results this pool cannot ship at all: per-shard
        # recovery cannot help, degrade to the caller's sequential path.
        warn_pool_fallback(context, exc)
        return None
    except OSError as exc:
        if exc.errno not in POOL_UNAVAILABLE_ERRNOS:
            raise
        warn_pool_fallback(context, exc)
        return None
    if lost:
        warn_shard_resubmission(context, len(lost))
        if initializer is not None:
            initializer(*initargs)
        for index in lost:
            results[index] = fn(tasks[index])
    return results

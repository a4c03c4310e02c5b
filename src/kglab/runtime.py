"""Worker policy.

A map runs on min(KGLAB_THREADS, items, CPU count) workers.  Results are
always reduced in submission order, so outputs are byte-identical for every
setting; parallelism exists only across independent work items.

Workers are threads, or with ``fork=True`` processes made by POSIX
``os.fork``: for work that holds the GIL for long stretches, such as a
propagator slice formatting its CSV inside one ``str.join``, threads run
those stretches one after another.  The calling thread forks ``workers - 1``
children before it runs any item, with no pool threads alive; child ``j``
runs the stripe ``work[j::workers]`` up to its first failure, pipes back
only its pickled outcomes and leaves with ``os._exit``, and the parent runs
stripe 0 itself.  Without ``os.fork`` the items run serially.
"""

from __future__ import annotations

import os
import pickle
import signal
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

from .spectral import PreconditionError

__all__ = ["parallel_map", "worker_cap"]

T = TypeVar("T")
R = TypeVar("R")


def worker_cap() -> int:
    """min(KGLAB_THREADS, CPU count), at least 1 (the CPU count when unset);
    a value that is not an integer fails rule ``KGLAB_THREADS``."""
    raw = os.environ.get("KGLAB_THREADS", "")
    cpus = os.cpu_count() or 1
    try:
        return max(1, min(int(raw), cpus)) if raw else cpus
    except ValueError as exc:
        raise PreconditionError("KGLAB_THREADS", f"KGLAB_THREADS must be an integer, got {raw!r}") from exc


def parallel_map(fn: Callable[[T], R], items: Iterable[T], *, fork: bool = False) -> list[R]:
    """``[fn(item) for item in items]`` over ``min(worker_cap(), items)``
    workers; the exception of the earliest failing item is raised."""
    work: Sequence[T] = list(items)
    workers = min(worker_cap(), len(work))
    if workers <= 1 or fork and not hasattr(os, "fork"):
        return [fn(item) for item in work]
    if fork:
        return _forked_map(fn, work, workers)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, work))


def _stripe(fn: Callable[[T], R], work: Sequence[T], j: int, workers: int) -> list[tuple[int, bool, object]]:
    """``(index, raised, result or exception)`` for ``work[j::workers]``,
    up to and including its first failure."""
    outcomes = []
    for i in range(j, len(work), workers):
        try:
            outcomes.append((i, False, fn(work[i])))
        except Exception as exc:  # raised again by the parent, in item order
            outcomes.append((i, True, exc))
            break
    return outcomes


def _forked_map(fn: Callable[[T], R], work: Sequence[T], workers: int) -> list[R]:
    children: list[tuple[int, int, int]] = []  # (first index, pid, read end), not yet reaped
    try:
        for j in range(1, workers):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError as exc:
                os.close(read_end)
                os.close(write_end)
                raise MemoryError(f"cannot start a worker process: {exc}") from exc
            if pid == 0:
                code = 1
                try:
                    for end in (read_end, *(sibling for _, _, sibling in children)):
                        os.close(end)
                    with os.fdopen(write_end, "wb") as pipe:
                        pickle.dump(_stripe(fn, work, j, workers), pipe)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write_end)
            children.append((j, pid, read_end))
        outcomes = _stripe(fn, work, 0, workers)
        while children:
            j, pid, read_end = children.pop(0)
            try:
                with os.fdopen(read_end, "rb") as pipe:
                    data = pipe.read()
            finally:
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if code == 0:
                outcomes += pickle.loads(data)
            else:
                how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
                outcomes.append((j, True, MemoryError(f"a worker process ended without a result ({how})")))
    finally:
        for _, pid, read_end in children:
            os.close(read_end)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    outcomes.sort(key=lambda outcome: outcome[0])
    for _, raised, value in outcomes:
        if raised:
            raise value
    return [value for _, _, value in outcomes]

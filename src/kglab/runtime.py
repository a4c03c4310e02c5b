"""Worker policy.

KGLAB_THREADS caps the workers (default: machine CPU count).  Results are
always reduced in submission order, so outputs are byte-identical for every
setting; parallelism exists only across independent work items.

Workers are threads, or with ``fork=True`` processes made by POSIX
``os.fork``: for work that holds the GIL for long stretches, such as a
propagator slice formatting its CSV inside one ``str.join``, threads run
those stretches one after another.  The calling thread forks
``workers - 1`` children before it runs any item, with no pool threads
alive; child ``j`` runs the stripe ``work[j::workers]`` up to its first
failure, pipes back only its pickled outcomes and leaves with ``os._exit``,
and the parent runs stripe 0 itself.  Forked workers are also capped by the
CPU count.  Without ``os.fork`` the items run serially.
"""

from __future__ import annotations

import os
import pickle
import signal
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

from .spectral import PreconditionError

__all__ = ["parallel_map"]

T = TypeVar("T")
R = TypeVar("R")


def parallel_map(fn: Callable[[T], R], items: Iterable[T], *, fork: bool = False) -> list[R]:
    """``[fn(item) for item in items]`` over the worker pool; the exception
    of the earliest failing item is raised."""
    work: Sequence[T] = list(items)
    raw = os.environ.get("KGLAB_THREADS", "")
    try:
        cap = max(1, int(raw)) if raw else os.cpu_count() or 1
    except ValueError as exc:
        raise PreconditionError("KGLAB_THREADS", f"KGLAB_THREADS must be an integer, got {raw!r}") from exc
    workers = min(cap, len(work)) or 1
    if fork:
        workers = min(workers, os.cpu_count() or 1) if hasattr(os, "fork") else 1
    if workers == 1:
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

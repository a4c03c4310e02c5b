"""Worker-thread policy.

KGLAB_THREADS caps the worker pool (default: machine CPU count).  Results
are always reduced in submission order, so outputs are byte-identical for
every thread-count setting; parallelism exists only across independent
work items.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

from .spectral import PreconditionError

__all__ = ["worker_count", "parallel_map"]

T = TypeVar("T")
R = TypeVar("R")


def worker_count() -> int:
    raw = os.environ.get("KGLAB_THREADS", "")
    if raw:
        try:
            return max(1, int(raw))
        except ValueError as exc:
            raise PreconditionError("KGLAB_THREADS", f"KGLAB_THREADS must be an integer, got {raw!r}") from exc
    return os.cpu_count() or 1


def parallel_map(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    work: Sequence[T] = list(items)
    workers = min(worker_count(), len(work)) or 1
    if workers == 1:
        return [fn(item) for item in work]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, work))

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

__all__ = ["parallel_map"]

T = TypeVar("T")
R = TypeVar("R")


def parallel_map(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    work: Sequence[T] = list(items)
    raw = os.environ.get("KGLAB_THREADS", "")
    try:
        cap = max(1, int(raw)) if raw else os.cpu_count() or 1
    except ValueError as exc:
        raise PreconditionError("KGLAB_THREADS", f"KGLAB_THREADS must be an integer, got {raw!r}") from exc
    workers = min(cap, len(work)) or 1
    if workers == 1:
        return [fn(item) for item in work]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, work))

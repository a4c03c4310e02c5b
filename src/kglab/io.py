"""Deterministic formatting, writers only: CSV cells and strict JSON.  The
runner, ``kglab.cli``, declares what each output file holds.

Floats are written with repr (shortest round-trip form), so identical
inputs produce byte-identical files, and a column read back with
``json.load`` or ``float`` per cell rebuilds it bit for bit.

Bulk writers format whole columns at once.  Every +0.0 cell shares one
``"0.0"`` (a -0.0 still writes ``-0.0``): a column is cut into runs of
+0.0 cells and runs of other cells, and each run of other cells is
converted to Python floats by one ``ndarray.tolist()`` and formatted by
``repr``, so a mostly-zero leapfrog snapshot formats only its support.
Rows are joined in C and written in one call.  A ``UniformGrid`` given as a CSV
column writes the grid's ``x`` cells, formatted once and reused by every
file written on that grid, until a file on another grid replaces them.
``write_json`` joins the same cells for each top-level value that is a
1-D float array: ``json.dump`` formats a float with ``float.__repr__``
too.  The bytes are exactly those of a row-at-a-time ``csv.writer`` over
``repr(float(cell))`` and of ``json.dump(..., indent=2, sort_keys=True,
allow_nan=False)`` with each array passed as a list; ``tests/test_io.py``
checks this against such reference writers.
"""

from __future__ import annotations

import functools
import itertools
import json
from pathlib import Path
from typing import Sequence

import numpy as np

from .spectral import UniformGrid

__all__ = ["write_csv", "write_json"]


def _cells(column):
    """The repr of each cell, lazily; every +0.0 cell shares one ``"0.0"``.

    The column is cut into runs of +0.0 cells and runs of other cells: a
    zero run repeats the shared string, and only the other runs go
    through ``repr``, one run at a time as the cells are consumed.
    """
    values = np.asarray(column, dtype=float)
    zero = (values == 0) & ~np.signbit(values)
    starts = np.flatnonzero(np.diff(zero, prepend=~zero[:1])).tolist()
    return itertools.chain.from_iterable(
        itertools.repeat("0.0", hi - lo) if zero[lo] else map(repr, values[lo:hi].tolist())
        for lo, hi in itertools.pairwise([*starts, values.size])
    )


@functools.lru_cache(maxsize=1)
def _x_cells(grid: UniformGrid) -> tuple[str, ...]:
    return tuple(_cells(grid.x))


def write_csv(path: Path, header: Sequence[str], columns: Sequence) -> None:
    """Write equal-length numeric columns under a header, one cell per float
    repr; a column that is a ``UniformGrid`` writes the grid's ``x``."""
    cells = [_x_cells(col) if isinstance(col, UniformGrid) else _cells(col) for col in columns]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join([",".join(header), *map(",".join, zip(*cells, strict=True))]))
        fh.write("\n")


def _json_pieces(value) -> list[str]:
    """One top-level value as ``json.dump`` indents it under its key; a 1-D
    float array is formatted a whole column at a time."""
    if not (isinstance(value, np.ndarray) and value.ndim == 1 and value.dtype.kind == "f"):
        return [json.dumps(value, indent=2, sort_keys=True, allow_nan=False).replace("\n", "\n  ")]
    finite = np.isfinite(value)
    if not finite.all():
        json.dumps(float(value[~finite][0]), allow_nan=False)  # raises json's own ValueError
    return ["[\n    ", ",\n    ".join(_cells(value)), "\n  ]"] if value.size else ["[]"]


def write_json(path: Path, payload: dict[str, object]) -> None:
    """Write ``payload`` as ``json.dump(payload, indent=2, sort_keys=True,
    allow_nan=False)`` plus a newline; each top-level 1-D float array is
    written as the list of its cells."""
    items = sorted(payload.items())
    with open(path, "w") as fh:
        fh.write("{" if items else "{}")
        for i, (key, value) in enumerate(items):
            fh.writelines([",\n  " if i else "\n  ", json.dumps(key), ": ", *_json_pieces(value)])
        fh.write("\n}\n" if items else "\n")

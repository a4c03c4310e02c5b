"""Deterministic serialization, writers only: CSV for bulk series, JSON
envelopes for exact reconstruction and reports.

Floats are written with repr (shortest round-trip form), so identical
inputs produce byte-identical files, and a field's envelope or CSV file
read back with ``json.load`` or ``float`` per cell rebuilds it bit for bit.

Bulk writers format whole columns at once: each column is converted to
Python floats by one ``ndarray.tolist()`` and formatted by one pass of
``repr`` over its cells other than +0.0, which all share one ``"0.0"``
(a -0.0 still writes ``-0.0``); rows are joined in C and written in one
call.  A grid's ``x`` column is formatted once and reused by every field
or slice written on that grid, until a file on another grid replaces it.
The field envelope joins the same cells for its ``re``/``im`` arrays:
``json.dump`` formats a float with ``float.__repr__`` too.  The bytes are
exactly those of a row-at-a-time ``csv.writer`` over
``repr(float(cell))`` and of ``json.dump(..., indent=2, sort_keys=True)``;
``tests/test_io.py`` checks this against such reference writers.
"""

from __future__ import annotations

import functools
import itertools
import json
from pathlib import Path
from typing import Sequence

import numpy as np

from .spectral import Field, UniformGrid

__all__ = [
    "FIELD_SCHEMA",
    "write_csv",
    "write_json",
    "field_to_csv",
    "field_to_json",
    "propagator_slice_to_csv",
]

FIELD_SCHEMA = "kglab.field/1"


def _cells(column):
    """The repr of each cell, lazily; every +0.0 cell shares one ``"0.0"``.

    A column with such zeros pulls each cell's string from one of two
    streams, the shared zero or the reprs of the other cells in order, so
    only the other cells go through ``repr`` and no Python loop runs per cell.
    """
    values = np.asarray(column, dtype=float)
    zero = (values == 0) & ~np.signbit(values)
    if not zero.any():
        return map(repr, values.tolist())
    streams = np.where(zero, itertools.repeat("0.0"), map(repr, values[~zero].tolist()))
    return map(next, streams.tolist())


@functools.lru_cache(maxsize=1)
def _x_cells(grid: UniformGrid) -> tuple[str, ...]:
    return tuple(_cells(grid.x))


def _write_cells(path: Path, header: Sequence[str], cells: Sequence) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("\n".join([",".join(header), *map(",".join, zip(*cells, strict=True))]))
        fh.write("\n")


def write_csv(path: Path, header: Sequence[str], columns: Sequence) -> None:
    """Write equal-length numeric columns under a header, one cell per float repr."""
    _write_cells(path, header, [_cells(col) for col in columns])


def write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def field_to_csv(f: Field, path: Path) -> None:
    _write_cells(path, ["x", "re", "im"], [_x_cells(f.grid), _cells(f.values.real), _cells(f.values.imag)])


def field_to_json(f: Field, path: Path) -> None:
    """The envelope ``{"grid", "im", "re", "schema"}`` as ``write_json`` lays it out."""
    grid = {"n": f.grid.n, "dx": f.grid.dx, "L": f.grid.L}
    with open(path, "w") as fh:
        fh.write('{\n  "grid": ')
        fh.write(json.dumps(grid, indent=2, sort_keys=True).replace("\n", "\n  "))
        for key, column in (("im", f.values.imag), ("re", f.values.real)):
            fh.write(f',\n  "{key}": [\n    ')
            fh.write(",\n    ".join(_cells(column)))
            fh.write("\n  ]")
        fh.write(f',\n  "schema": {json.dumps(FIELD_SCHEMA)}\n}}\n')


def propagator_slice_to_csv(sample, path: Path) -> None:
    """Slice columns (x, re D, im D, re Dp, im Dp)."""
    delta = sample.delta.values
    plus = sample.delta_plus.values
    _write_cells(
        path,
        ["x", "re_delta", "im_delta", "re_delta_plus", "im_delta_plus"],
        [_x_cells(sample.grid), *map(_cells, (delta.real, delta.imag, plus.real, plus.imag))],
    )

"""Deterministic serialization: CSV for bulk series, JSON envelopes for
exact reconstruction and reports.

Floats are written with repr (shortest round-trip form), so identical
inputs produce byte-identical files and JSON envelopes reconstruct fields
bit-exactly.

Bulk writers format whole columns at once: each column is converted to
Python floats by one ``ndarray.tolist()`` and formatted by one pass of
``repr``; rows are joined in C and written in one call.  The field
envelope encodes its ``re``/``im`` arrays with the C JSON encoder.  The
bytes are exactly those of a row-at-a-time ``csv.writer`` over
``repr(float(cell))`` and of ``json.dump(..., indent=2, sort_keys=True)``;
``tests/test_io.py`` checks this against such reference writers.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

import numpy as np

from .spectral import Field, PreconditionError, UniformGrid

__all__ = [
    "FIELD_SCHEMA",
    "write_csv",
    "write_json",
    "field_to_csv",
    "field_to_json",
    "field_from_json",
    "propagator_slice_to_csv",
]

FIELD_SCHEMA = "kglab.field/1"

# one array element per line at the envelope's nesting depth, as json.dump
# with indent=2 lays out a list under a top-level key
_ELEMENTS = json.JSONEncoder(separators=(",\n    ", ": "), allow_nan=False)


def write_csv(path: Path, header: Sequence[str], columns: Sequence) -> None:
    """Write equal-length numeric columns under a header, one cell per float repr."""
    text = [map(repr, np.asarray(col, dtype=float).tolist()) for col in columns]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join([",".join(header), *map(",".join, zip(*text, strict=True))]))
        fh.write("\n")


def write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def field_to_csv(f: Field, path: Path) -> None:
    write_csv(path, ["x", "re", "im"], [f.grid.x, f.values.real, f.values.imag])


def field_to_json(f: Field, path: Path) -> None:
    """The envelope ``{"grid", "im", "re", "schema"}`` as ``write_json`` lays it out."""
    grid = {"n": f.grid.n, "dx": f.grid.dx, "L": f.grid.L}
    with open(path, "w") as fh:
        fh.write('{\n  "grid": ')
        fh.write(json.dumps(grid, indent=2, sort_keys=True).replace("\n", "\n  "))
        for key, column in (("im", f.values.imag), ("re", f.values.real)):
            fh.write(f',\n  "{key}": [\n    ')
            fh.write(_ELEMENTS.encode(column.tolist())[1:-1])
            fh.write("\n  ]")
        fh.write(f',\n  "schema": {json.dumps(FIELD_SCHEMA)}\n}}\n')


def field_from_json(path: Path) -> Field:
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("schema") != FIELD_SCHEMA:
        raise PreconditionError("field.schema", f"not a field envelope: {path}")
    grid = UniformGrid(n=int(payload["grid"]["n"]), dx=float(payload["grid"]["dx"]))
    values = np.asarray(payload["re"], dtype=float) + 1j * np.asarray(payload["im"], dtype=float)
    return Field(grid, values)


def propagator_slice_to_csv(sample, path: Path) -> None:
    """Slice columns (x, re D, im D, re Dp, im Dp); Dp columns are zero when absent."""
    grid = sample.grid
    delta = sample.delta.values
    if sample.delta_plus is not None:
        plus = sample.delta_plus.values
    else:
        plus = np.zeros(grid.n, dtype=np.complex128)
    write_csv(
        path,
        ["x", "re_delta", "im_delta", "re_delta_plus", "im_delta_plus"],
        [grid.x, delta.real, delta.imag, plus.real, plus.imag],
    )

"""Deterministic serialization: CSV for bulk series, JSON envelopes for
exact reconstruction and reports.

Floats are written with repr (shortest round-trip form), so identical
inputs produce byte-identical files and JSON envelopes reconstruct fields
bit-exactly.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .spectral import Field, PreconditionError, UniformGrid

__all__ = [
    "FIELD_SCHEMA",
    "fmt",
    "write_csv",
    "write_json",
    "field_to_csv",
    "field_to_json",
    "field_from_json",
    "propagator_slice_to_csv",
]

FIELD_SCHEMA = "kglab.field/1"


def fmt(value) -> str:
    return repr(float(value))


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([cell if isinstance(cell, str) else fmt(cell) for cell in row])


def write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def field_to_csv(f: Field, path: Path) -> None:
    rows = zip(f.grid.x, f.values.real, f.values.imag)
    write_csv(path, ["x", "re", "im"], rows)


def field_to_json(f: Field, path: Path) -> None:
    payload = {
        "schema": FIELD_SCHEMA,
        "grid": {"n": f.grid.n, "dx": f.grid.dx, "L": f.grid.L},
        "re": [float(v) for v in f.values.real],
        "im": [float(v) for v in f.values.imag],
    }
    write_json(path, payload)


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
    rows = zip(grid.x, delta.real, delta.imag, plus.real, plus.imag)
    write_csv(path, ["x", "re_delta", "im_delta", "re_delta_plus", "im_delta_plus"], rows)

"""Output checks for one benchmark operation.

An operation fails on a nonzero exit, on any verdict not passed, on an
output that differs from the committed reference (seed 0 only), or on
output bytes that differ from the run's first operation.

The reference holds, per output file, only what later changes must keep:
each report verdict's ``value`` and ``passed``, and each CSV column (and
the ``re``/``im`` arrays of field envelopes).  A column matches when every
cell is within ``COLUMN_RTOL`` times its scale.  The scale of a real column
is its largest |reference|; the ``re``/``im`` columns of one file describe
one complex quantity family and share the largest |reference| among them,
so an imaginary part at the rounding floor (~1e-17) may become exactly 0.
Columns are stored quantised to ``QUANTUM`` times their scale, one tenth of
the tolerance, and delta-coded so that the reference stays small.
"""

from __future__ import annotations

import csv
import hashlib
import json
import lzma
import math
from pathlib import Path

COLUMN_RTOL = 1e-9
QUANTUM = 1e-10
#: verdict values match within VALUE_RTOL relative plus VALUE_ATOL absolute;
#: report values are normalised quantities of order one or below, and the
#: absolute part lets a value at the rounding floor (e.g. a zero-slice
#: maximum of 7e-16) become exactly 0
VALUE_RTOL = 1e-9
VALUE_ATOL = 1e-13
FIELD_SCHEMA = "kglab.field/1"


def _sha256(path: Path) -> str:
    # small reads: a buffer above the allocator's mmap threshold would, once
    # freed, raise that threshold for the program running in this process
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def output_digest(out: Path) -> dict[str, str]:
    """SHA-256 of every file under ``out``, keyed by relative path."""
    return {p.relative_to(out).as_posix(): _sha256(p) for p in sorted(out.rglob("*")) if p.is_file()}


def failed_verdicts(out: Path) -> list[str]:
    """Names of verdicts not passed in any ``report.json`` under ``out``."""
    bad = []
    for path in sorted(out.rglob("report.json")):
        for name, entry in json.loads(path.read_text()).get("verdicts", {}).items():
            if entry.get("passed") is not True:
                bad.append(f"{path.relative_to(out).as_posix()}:{name}")
    return bad


def _columns(path: Path) -> dict[str, list[float]] | None:
    if path.suffix == ".csv":
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        return {name: [float(row[j]) for row in body] for j, name in enumerate(header)}
    if path.suffix == ".json":
        payload = json.loads(path.read_text())
        if isinstance(payload, dict) and payload.get("schema") == FIELD_SCHEMA:
            return {"re": payload["re"], "im": payload["im"]}
    return None


def _is_complex_part(name: str) -> bool:
    return name in ("re", "im") or name.startswith(("re_", "im_"))


def _scales(columns: dict[str, list[float]]) -> dict[str, float]:
    peak = {name: max((abs(v) for v in values), default=0.0) for name, values in columns.items()}
    shared = max((s for name, s in peak.items() if _is_complex_part(name)), default=0.0)
    return {name: shared if _is_complex_part(name) else s for name, s in peak.items()}


def capture(out: Path) -> dict:
    """Reference record of the outputs under ``out``."""
    files = {}
    for path in sorted(out.rglob("*")):
        rel = path.relative_to(out).as_posix()
        if path.name == "report.json":
            verdicts = json.loads(path.read_text())["verdicts"]
            files[rel] = {
                "verdicts": {k: {"value": v["value"], "passed": v["passed"]} for k, v in verdicts.items()}
            }
            continue
        columns = _columns(path) if path.is_file() else None
        if columns is None:
            continue
        record = {}
        for name, scale in _scales(columns).items():
            step = QUANTUM * scale
            q = [round(v / step) if step else 0 for v in columns[name]]
            record[name] = {"scale": scale, "dq": [q[0]] + [b - a for a, b in zip(q, q[1:])] if q else []}
        files[rel] = {"columns": record}
    return {"files": files}


def save(reference: dict, path: Path) -> None:
    path.write_bytes(lzma.compress(json.dumps(reference, sort_keys=True).encode()))


def load(path: Path) -> dict:
    return json.loads(lzma.decompress(path.read_bytes()))


def _value_matches(got, ref) -> bool:
    if isinstance(ref, bool) or isinstance(got, bool):
        return got is ref
    if isinstance(ref, (int, float)):
        return (
            isinstance(got, (int, float))
            and math.isfinite(got)
            and abs(got - ref) <= VALUE_RTOL * abs(ref) + VALUE_ATOL
        )
    if isinstance(ref, list):
        return isinstance(got, list) and len(got) == len(ref) and all(map(_value_matches, got, ref))
    return got == ref


def _column_mismatch(values: list[float], scale: float, dq: list[int]) -> str | None:
    if len(values) != len(dq):
        return f"{len(values)} rows, reference has {len(dq)}"
    step = QUANTUM * scale
    tol = COLUMN_RTOL * scale
    q = 0
    for i, (v, d) in enumerate(zip(values, dq)):
        q += d
        if not abs(v - q * step) <= tol:
            return f"row {i}: {v!r} vs reference {q * step!r} (tolerance {tol:.3g})"
    return None


def compare(out: Path, reference: dict) -> list[str]:
    """Mismatches between the outputs under ``out`` and the reference."""
    problems = []
    for rel, record in sorted(reference["files"].items()):
        path = out / rel
        if not path.is_file():
            problems.append(f"{rel}: missing")
            continue
        if "verdicts" in record:
            verdicts = json.loads(path.read_text()).get("verdicts", {})
            for name, ref in sorted(record["verdicts"].items()):
                got = verdicts.get(name)
                if not isinstance(got, dict):
                    problems.append(f"{rel}:{name}: missing")
                    continue
                for key in ("value", "passed"):
                    if not _value_matches(got.get(key), ref[key]):
                        problems.append(f"{rel}:{name}.{key}: {got.get(key)!r} vs reference {ref[key]!r}")
            continue
        columns = _columns(path) or {}
        for name, ref in sorted(record["columns"].items()):
            if name not in columns:
                problems.append(f"{rel}:{name}: missing column")
                continue
            bad = _column_mismatch(columns[name], ref["scale"], ref["dq"])
            if bad:
                problems.append(f"{rel}:{name}: {bad}")
    return problems


if __name__ == "__main__":
    # python3 checks.py OUT REFERENCE: print mismatches, one per line; exit 1 if any
    import sys

    found = compare(Path(sys.argv[1]), load(Path(sys.argv[2])))
    for line in found:
        print(line)
    sys.exit(1 if found else 0)

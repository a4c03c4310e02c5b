"""Span tracer for the traced benchmark run, installed from outside kglab.

It wraps each layer's public functions (``LAYERS``) and rebinds every
name that a kglab module bound to the original, so ``kglab.cli.write_csv``
and the ``delta_plus`` that ``pauli_jordan`` calls are traced too.  A span
records name, layer, start, end, parent, operation id and thread.  Work
items of ``runtime.parallel_map`` get an item span (CLI code, so layer
``cli``) whose parent is the map's span, on whichever thread runs them.
A layer's self time is its spans' duration minus the union of their child
spans.  Names missing from the program are recorded in ``absent`` and
their metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import math
import os
import resource
import statistics
import sys
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path

#: traced functions per layer (kglab module); dispersion.omega costs
#: microseconds and stays in its callers' self time
LAYERS = {
    "spectral": ("forward_transform", "inverse_transform", "make_bump"),
    "evolution": (
        "evolve_spectral", "evolve_local_fd", "local_fd_steps",
        "energy", "leapfrog_energy", "joint_support_radius",
    ),
    "posfreq": ("evolve_positive", "positivity_tail_witness", "project_positive", "recombine"),
    "propagator": ("delta_plus", "pauli_jordan", "spacelike_suppression_scan", "bridge_identity_error"),
    "diagnostics": ("cone_leakage", "fit_exponential_tail", "support_radius", "boundary_floor", "support_report"),
    "io": ("write_csv", "write_json", "field_to_csv", "field_to_json", "propagator_slice_to_csv"),
    "config": ("load_config",),
    "runtime": ("parallel_map",),
    "cli": ("main",),
}

#: per-layer metrics and units, in report order
METRICS = {
    "spectral.transform_calls": "count",
    "spectral.transform_points": "count",
    "spectral.transform_s": "s",
    "evolution.local_fd_steps": "count",
    "evolution.local_fd_s": "s",
    "evolution.local_fd_step_us": "us",
    "evolution.minor_faults_per_step": "count",
    "evolution.spectral_s": "s",
    "evolution.energy_s": "s",
    "posfreq.calls": "count",
    "posfreq.evolve_positive_s": "s",
    "propagator.delta_plus_calls": "count",
    "propagator.pauli_jordan_calls": "count",
    "propagator.quad_nodes": "count",
    "propagator.delta_plus_s": "s",
    "propagator.scan_s": "s",
    "propagator.bridge_s": "s",
    "diagnostics.calls": "count",
    "diagnostics.s": "s",
    "diagnostics.tail_fit_s": "s",
    "io.files": "count",
    "io.csv_bytes": "B",
    "io.csv_s": "s",
    "io.csv_mb_per_s": "MB/s",
    "io.json_bytes": "B",
    "io.json_s": "s",
    "config.load_s": "s",
    "runtime.map_s": "s",
    "runtime.overlap": "ratio",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

_TRANSFORMS = ("forward_transform", "inverse_transform")
_RUSAGE_THREAD = getattr(resource, "RUSAGE_THREAD", None)


def _minor_faults() -> int:
    if _RUSAGE_THREAD is None:
        return 0
    return resource.getrusage(_RUSAGE_THREAD).ru_minflt


def _points(args, kwargs) -> dict:
    return {"points": args[0].grid.n} if args else {}


def _path(args, kwargs) -> dict:
    for value in (*args, *kwargs.values()):
        if isinstance(value, os.PathLike):
            return {"path": os.fspath(value)}
    return {}


def _argv(args, kwargs) -> dict:
    argv = args[0] if args else kwargs.get("argv")
    return {"argv": list(argv)} if argv is not None else {}


#: what a span keeps of its call's arguments
_INFO = {
    "forward_transform": _points,
    "inverse_transform": _points,
    "write_csv": _path,
    "write_json": _path,
    "field_to_csv": _path,
    "field_to_json": _path,
    "propagator_slice_to_csv": _path,
    "main": _argv,
}


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    parent: int | None
    op: int
    thread: int
    end: float = 0.0
    info: dict = field(default_factory=dict)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.op = 0
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new(self, layer: str, name: str, parent: Span | None, info: dict | None = None) -> Span:
        return Span(
            id=next(self._ids), name=name, layer=layer, start=time.perf_counter(),
            parent=parent.id if parent else None, op=self.op,
            thread=threading.get_ident(), info=info or {},
        )

    def _open(self, layer: str, name: str, info: dict | None = None, parent: Span | None = None) -> Span:
        stack = self._stack()
        span = self._new(layer, name, parent or (stack[-1] if stack else None), info)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    # -- wrappers --------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        if name == "parallel_map":
            return self._wrap_map(fn)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_steps(layer, name, fn)
        extract = _INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(layer, name, extract(args, kwargs) if extract else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return traced

    def _wrap_steps(self, layer: str, name: str, fn):
        """Leaf span over a stepping generator, from call to exhaustion.

        Records the last step index yielded and the calling thread's minor
        page faults over the span.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = self._new(layer, name, stack[-1] if stack else None)
            faults = _minor_faults()
            steps = 0
            try:
                for item in fn(*args, **kwargs):
                    steps = item[0]
                    yield item
            finally:
                span.end = time.perf_counter()
                span.info = {"steps": steps, "minor_faults": _minor_faults() - faults}
                self.spans.append(span)

        return traced

    def _wrap_map(self, fn):
        @functools.wraps(fn)
        def traced(work, items, *args, **kwargs):
            span = self._open("runtime", "parallel_map")

            def item(x):
                inner = self._open("cli", "parallel_map.item", parent=span)
                try:
                    return work(x)
                finally:
                    self._close(inner)

            try:
                return fn(item, items, *args, **kwargs)
            finally:
                self._close(span)

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if m is not None and (n == "kglab" or n.startswith("kglab."))]
        for layer, names in LAYERS.items():
            try:
                module = importlib.import_module(f"kglab.{layer}")
            except ModuleNotFoundError:
                self.absent.extend(f"{layer}.{n}" for n in names)
                continue
            for name in names:
                original = getattr(module, name, None)
                if not callable(original):
                    self.absent.append(f"{layer}.{name}")
                    continue
                wrapper = self._wrap(layer, name, original)
                for mod in modules + [module]:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span), sort_keys=True) + "\n")


def _union(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its child spans."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    return {
        s.id: (s.end - s.start)
        - _union([(max(c.start, s.start), min(c.end, s.end)) for c in children[s.id] if c.end > s.start and c.start < s.end])
        for s in spans
    }


def _quad_nodes(spans: list[Span]) -> int:
    """delta_plus calls x rungs x lattice size, per propagator command,
    with rungs, cutoff and domain length read from the command's output."""
    by_id = {s.id: s for s in spans}

    def command(s: Span) -> Span | None:
        while s.parent is not None:
            s = by_id[s.parent]
        return s if s.name == "main" else None

    calls = defaultdict(int)
    for s in spans:
        if s.name == "delta_plus":
            root = command(s)
            if root is not None:
                calls[root.id] += 1
    nodes = 0
    for root_id, count in calls.items():
        argv = by_id[root_id].info["argv"]
        out = Path(argv[argv.index("--out") + 1])
        quad = json.loads((out / "slice_000.meta.json").read_text())["quadrature"]
        length = json.loads((out / "report.json").read_text())["grid"]["L"]
        lattice = 2 * math.ceil(quad["cutoff"] / (2.0 * math.pi / length)) + 1
        nodes += count * len(quad["eps_ladder"]) * lattice
    return nodes


def op_metrics(spans: list[Span], wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced operation (its spans and wall time).

    Reads output file sizes and slice metadata, so call it before the
    operation's outputs are removed.
    """
    own = self_times(spans)

    def pick(*names: str, layer: str | None = None) -> list[Span]:
        return [s for s in spans if (s.name in names or not names) and (layer is None or s.layer == layer)]

    def self_s(found: list[Span]) -> float:
        return sum(own[s.id] for s in found)

    def dur(found: list[Span]) -> float:
        return sum(s.end - s.start for s in found)

    transforms = pick(*_TRANSFORMS, layer="spectral")
    steps = pick("local_fd_steps")
    n_steps = sum(s.info["steps"] for s in steps)
    io_spans = pick(layer="io")
    by_id = {s.id: s for s in spans}
    writers = [s for s in io_spans if s.parent is None or by_id[s.parent].layer != "io"]
    csv_w = [s for s in writers if s.info.get("path", "").endswith(".csv")]
    json_w = [s for s in writers if s.info.get("path", "").endswith(".json")]
    csv_bytes = sum(os.path.getsize(s.info["path"]) for s in csv_w)
    json_bytes = sum(os.path.getsize(s.info["path"]) for s in json_w)
    csv_s = dur(csv_w)
    maps = pick("parallel_map", layer="runtime")
    map_s = dur(maps)
    return {
        "spectral.transform_calls": len(transforms),
        "spectral.transform_points": sum(s.info["points"] for s in transforms),
        "spectral.transform_s": self_s(transforms),
        "evolution.local_fd_steps": n_steps,
        "evolution.local_fd_s": dur(steps),
        "evolution.local_fd_step_us": 1e6 * dur(steps) / n_steps if n_steps else 0.0,
        "evolution.minor_faults_per_step": sum(s.info["minor_faults"] for s in steps) / n_steps if n_steps else 0.0,
        "evolution.spectral_s": self_s(pick("evolve_spectral")),
        "evolution.energy_s": self_s(pick("energy", "leapfrog_energy")),
        "posfreq.calls": len(pick(layer="posfreq")),
        "posfreq.evolve_positive_s": self_s(pick("evolve_positive")),
        "propagator.delta_plus_calls": len(pick("delta_plus")),
        "propagator.pauli_jordan_calls": len(pick("pauli_jordan")),
        "propagator.quad_nodes": _quad_nodes(spans),
        "propagator.delta_plus_s": self_s(pick("delta_plus")),
        "propagator.scan_s": dur(pick("spacelike_suppression_scan")),
        "propagator.bridge_s": dur(pick("bridge_identity_error")),
        "diagnostics.calls": len(pick(layer="diagnostics")),
        "diagnostics.s": self_s(pick(layer="diagnostics")),
        "diagnostics.tail_fit_s": self_s(pick("fit_exponential_tail")),
        "io.files": len({s.info["path"] for s in writers if "path" in s.info}),
        "io.csv_bytes": csv_bytes,
        "io.csv_s": csv_s,
        "io.csv_mb_per_s": csv_bytes / 1e6 / csv_s if csv_s else 0.0,
        "io.json_bytes": json_bytes,
        "io.json_s": dur(json_w),
        "config.load_s": self_s(pick("load_config")),
        "runtime.map_s": map_s,
        "runtime.overlap": dur(pick("parallel_map.item")) / map_s if map_s else 0.0,
        "cli.self_s": self_s(pick(layer="cli")),
        "trace.wall_s": wall,
    }


def summarize(per_op: list[dict[str, float]], untraced_wall: float) -> dict[str, float]:
    """Median of each metric over the traced operations, plus the overhead."""
    out = {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}
    out["trace.overhead_s"] = out["trace.wall_s"] - untraced_wall
    return out

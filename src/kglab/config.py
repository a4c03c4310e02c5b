"""Experiment configuration: one human-editable JSON file per run.

Every module precondition that a run would hit is validated here before
any computation starts; the first failing rule is named in the raised
:class:`ConfigError` so a bad config is rejected with a machine-readable
reason.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .propagator import CUTOFF_FACTOR
from .spectral import Field, UniformGrid, make_bump

__all__ = [
    "CONE_MARGIN_CELLS",
    "ConfigError",
    "GridSection",
    "StateSection",
    "QuadratureSection",
    "EvolveConfig",
    "HegerfeldtConfig",
    "PropagatorConfig",
    "load_config",
]

#: geometric slack, in grid cells, added to every light-cone check to
#: absorb threshold and discretization fuzz
CONE_MARGIN_CELLS = 5


class ConfigError(Exception):
    """Invalid configuration; ``rule`` names the first failing check."""

    def __init__(self, rule: str, message: str):
        super().__init__(f"{rule}: {message}")
        self.rule = rule
        self.message = message


def _require(condition: bool, rule: str, message: str) -> None:
    if not condition:
        raise ConfigError(rule, message)


def _get(tree: dict, key: str, rule: str):
    _require(key in tree, rule, f"missing required key {key!r}")
    return tree[key]


def _is_number(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _optional_number(tree: dict, key: str, rule: str) -> float | None:
    """A finite number, or None where the key is absent or null."""
    return None if tree.get(key) is None else _number(tree, key, 0.0, rule)


def _number(tree: dict, key: str, default: float, rule: str) -> float:
    value = tree.get(key, default)
    _require(_is_number(value), rule, f"{key} must be a finite number, got {value!r}")
    return float(value)


def _section(tree: dict, key: str) -> dict:
    section = tree.get(key, {})
    _require(isinstance(section, dict), key, f"{key} section must be an object")
    return section


def _cone_margin_cells(tree: dict) -> int:
    cells = tree.get("cone_margin_cells", CONE_MARGIN_CELLS)
    _require(
        isinstance(cells, int) and not isinstance(cells, bool) and cells >= 0,
        "cone_margin_cells",
        f"margin cells must be a non-negative integer, got {cells!r}",
    )
    return cells


@dataclass(frozen=True)
class GridSection:
    n: int
    dx: float

    def build(self) -> UniformGrid:
        try:
            return UniformGrid(n=self.n, dx=self.dx)
        except ValueError as exc:
            raise ConfigError("grid", str(exc)) from exc


@dataclass(frozen=True)
class StateSection:
    factory: str
    center: float
    radius: float
    amplitude: float
    pi: str = "zero"

    def build_phi(self, grid: UniformGrid) -> Field:
        try:
            return make_bump(grid, self.center, self.radius, self.amplitude)
        except ValueError as exc:
            raise ConfigError("initial_state", str(exc)) from exc

    def build_pi(self, grid: UniformGrid) -> Field:
        if self.pi == "zero":
            return Field(grid, np.zeros(grid.n, dtype=np.complex128))
        # right mover: Pi = -Phi' with the closed-form bump derivative
        u = (grid.x - self.center) / self.radius
        vals = np.zeros(grid.n, dtype=np.complex128)
        inside = np.abs(u) < 1.0
        ui = u[inside]
        prof = self.amplitude * np.exp(1.0 - 1.0 / (1.0 - ui**2))
        vals[inside] = -prof * (-2.0 * ui / (1.0 - ui**2) ** 2) / self.radius
        return Field(grid, vals)


@dataclass(frozen=True)
class QuadratureSection:
    cutoff: float | None = None
    eps_base: float | None = None
    rungs: int = 4
    residual_tol: float = 1e-6
    band_fraction: float = 0.5


@dataclass(frozen=True)
class EvolveConfig:
    grid: GridSection
    mass: float
    state: StateSection
    method: str
    dt: float | None
    times: tuple[float, ...]
    snapshot_times: tuple[float, ...]
    support_threshold: float
    leakage_ceiling: float
    cone_margin_cells: int
    out_format: str


@dataclass(frozen=True)
class HegerfeldtConfig:
    grid: GridSection
    mass: float
    state: StateSection
    times: tuple[float, ...]
    leakage_floor: float
    contrast_ceiling: float
    support_threshold: float
    cone_margin_cells: int
    window: tuple[float, float]
    snapshot_time: float
    rate_band: float
    min_r2: float
    grid_doubling_check: bool
    doubling_tolerance: float
    out_format: str


@dataclass(frozen=True)
class PropagatorConfig:
    grid: GridSection
    mass: float
    times: tuple[float, ...]
    margin: float
    quadrature: QuadratureSection
    ratio_ceiling: float
    multiplier_error_ceiling: float
    zero_slice_ceiling: float
    out_format: str


def _parse_grid(tree: dict) -> GridSection:
    g = _get(tree, "grid", "grid")
    _require(isinstance(g, dict), "grid", "grid section must be an object")
    n = _get(g, "n", "grid.n")
    dx = _get(g, "dx", "grid.dx")
    _require(isinstance(n, int) and n >= 16 and not (n & (n - 1)), "grid.n", f"n must be a power of two >= 16, got {n}")
    _require(_is_number(dx) and dx > 0, "grid.dx", f"dx must be finite and positive, got {dx}")
    return GridSection(n=n, dx=float(dx))


def _parse_mass(tree: dict, positive: bool) -> float:
    m = _get(tree, "mass", "mass")
    _require(_is_number(m), "mass", f"mass must be a finite number, got {m}")
    if positive:
        _require(m > 0, "mass.positive", f"this command needs m > 0 (1/omega is singular at m = 0), got {m}")
    else:
        _require(m >= 0, "mass", f"mass must be non-negative, got {m}")
    return float(m)


def _parse_state(tree: dict, grid: GridSection, allow_pi: bool) -> StateSection:
    s = _get(tree, "initial_state", "initial_state")
    _require(isinstance(s, dict), "initial_state", "initial_state must be an object")
    factory = _get(s, "factory", "initial_state.factory")
    _require(factory == "bump", "initial_state.factory", f"unknown factory {factory!r}; available: bump")
    center = _number(s, "center", 0.0, "initial_state.center")
    radius = _get(s, "radius", "initial_state.radius")
    amplitude = _number(s, "amplitude", 1.0, "initial_state.amplitude")
    _require(
        _is_number(radius) and radius > 4.0 * grid.dx,
        "initial_state.radius",
        f"radius {radius} must exceed 4*dx = {4.0 * grid.dx}",
    )
    L = grid.n * grid.dx
    _require(
        center - radius >= -L / 2 + L / 8 and center + radius <= L / 2 - L / 8,
        "initial_state.margin",
        f"support [{center - radius}, {center + radius}] leaves less than L/8 of edge clearance",
    )
    pi = s.get("pi", "zero")
    allowed = ("zero", "right-mover") if allow_pi else ("zero",)
    _require(pi in allowed, "initial_state.pi", f"pi must be one of {allowed}, got {pi!r}")
    return StateSection(factory=factory, center=center, radius=float(radius), amplitude=amplitude, pi=pi)


def _parse_times(tree: dict, grid: GridSection, key: str = "times") -> tuple[float, ...]:
    times = _get(tree, key, key)
    _require(isinstance(times, list) and times, key, "need a non-empty list of times")
    L = grid.n * grid.dx
    out = []
    for t in times:
        _require(_is_number(t), key, f"times must be finite numbers, got {t!r}")
        _require(abs(t) <= L / 4, f"{key}.margin", f"|t| = {abs(t)} exceeds the periodic safety margin L/4 = {L / 4}")
        out.append(float(t))
    return tuple(out)


def _parse_format(tree: dict) -> str:
    out = tree.get("output", {})
    _require(isinstance(out, dict), "output", "output section must be an object")
    fmt = out.get("format", "csv")
    _require(fmt in ("csv", "json"), "output.format", f"format must be csv or json, got {fmt!r}")
    return fmt


def _check_keys(tree: dict, allowed: set[str]) -> None:
    for key in tree:
        _require(key in allowed, "unknown-key", f"unrecognized config key {key!r}")


def _parse_evolve(tree: dict) -> EvolveConfig:
    _check_keys(tree, {"command", "grid", "mass", "initial_state", "method", "dt", "times", "snapshot_times", "thresholds", "cone_margin_cells", "output"})
    grid = _parse_grid(tree)
    mass = _parse_mass(tree, positive=False)
    state = _parse_state(tree, grid, allow_pi=True)
    times = _parse_times(tree, grid)
    method = tree.get("method", "spectral-exact")
    _require(method in ("spectral-exact", "local-fd"), "method", f"method must be spectral-exact or local-fd, got {method!r}")
    dt = tree.get("dt")
    if method == "local-fd":
        _require(isinstance(dt, (int, float)) and dt > 0, "dt", "local-fd needs a positive dt")
        _require(dt / grid.dx <= 1.0, "dt.courant", f"courant dt/dx = {dt / grid.dx} exceeds 1")
        for t in times:
            steps = round(t / dt)
            _require(steps >= 1 and abs(steps * dt - t) <= 1e-9 * max(t, dt), "times.dt-multiple", f"t = {t} is not a positive integer multiple of dt = {dt}")
    else:
        dt = None
    snapshot_times = tree.get("snapshot_times", [])
    _require(isinstance(snapshot_times, list), "snapshot_times", "snapshot_times must be a list of times")
    for t in snapshot_times:
        _require(_is_number(t) and t in times, "snapshot_times", f"snapshot time {t!r} is not in the time ladder")
    thresholds = _section(tree, "thresholds")
    support = _number(thresholds, "support", 1e-12, "thresholds.support")
    leakage = _number(thresholds, "cone_leakage", 1e-8, "thresholds.cone_leakage")
    _require(support > 0, "thresholds.support", "support threshold must be positive")
    _require(leakage > 0, "thresholds.cone_leakage", "leakage ceiling must be positive")
    cells = _cone_margin_cells(tree)
    return EvolveConfig(
        grid=grid, mass=mass, state=state, method=method,
        dt=None if dt is None else float(dt),
        times=times, snapshot_times=tuple(float(t) for t in snapshot_times),
        support_threshold=support, leakage_ceiling=leakage,
        cone_margin_cells=cells, out_format=_parse_format(tree),
    )


def _parse_hegerfeldt(tree: dict) -> HegerfeldtConfig:
    _check_keys(tree, {"command", "grid", "mass", "initial_state", "times", "leakage_floor", "contrast_ceiling", "thresholds", "cone_margin_cells", "tail_fit", "grid_doubling_check", "doubling_tolerance", "output"})
    grid = _parse_grid(tree)
    mass = _parse_mass(tree, positive=True)
    state = _parse_state(tree, grid, allow_pi=False)
    times = _parse_times(tree, grid)
    for t in times:
        _require(t > 0, "times.positive", f"leakage times must be positive, got {t}")
    thresholds = _section(tree, "thresholds")
    support = _number(thresholds, "support", 1e-12, "thresholds.support")
    _require(support > 0, "thresholds.support", "support threshold must be positive")
    floor = _number(tree, "leakage_floor", 1e-10, "leakage_floor")
    ceiling = _number(tree, "contrast_ceiling", 1e-8, "contrast_ceiling")
    _require(floor > 0 and ceiling > 0, "leakage_floor", "leakage bounds must be positive")
    tail = _section(tree, "tail_fit")
    window = tail.get("window")
    _require(
        isinstance(window, list) and len(window) == 2 and all(map(_is_number, window)) and 0 < window[0] < window[1],
        "tail_fit.window",
        f"window must be [lo, hi] with 0 < lo < hi, got {window}",
    )
    L = grid.n * grid.dx
    compton = 1.0 / mass
    _require(
        window[0] >= state.center + state.radius + 3.0 * compton,
        "tail_fit.window.near-field",
        f"window must start >= 3 Compton lengths beyond the support edge {state.center + state.radius}",
    )
    _require(
        window[1] <= L / 2 - L / 16 - 2.0 * compton,
        "tail_fit.window.wrap",
        "window must end >= 2 Compton lengths before the boundary-floor strip",
    )
    snapshot_time = _number(tail, "snapshot_time", times[-1], "tail_fit.snapshot_time")
    _require(snapshot_time in times, "tail_fit.snapshot_time", f"snapshot time {snapshot_time} is not in the time ladder")
    rate_band = _number(tail, "rate_band", 0.15, "tail_fit.rate_band")
    _require(rate_band > 0, "tail_fit.rate_band", f"rate band must be positive, got {rate_band}")
    min_r2 = _number(tail, "min_r2", 0.99, "tail_fit.min_r2")
    doubling_tolerance = _number(tree, "doubling_tolerance", 0.1, "doubling_tolerance")
    _require(doubling_tolerance > 0, "doubling_tolerance", "doubling tolerance must be positive")
    doubling_check = tree.get("grid_doubling_check", True)
    _require(isinstance(doubling_check, bool), "grid_doubling_check", f"grid_doubling_check must be true or false, got {doubling_check!r}")
    cells = _cone_margin_cells(tree)
    return HegerfeldtConfig(
        grid=grid, mass=mass, state=state, times=times,
        leakage_floor=floor, contrast_ceiling=ceiling,
        support_threshold=support, cone_margin_cells=cells,
        window=(float(window[0]), float(window[1])),
        snapshot_time=snapshot_time, rate_band=rate_band, min_r2=min_r2,
        grid_doubling_check=doubling_check,
        doubling_tolerance=doubling_tolerance,
        out_format=_parse_format(tree),
    )


def _parse_propagator(tree: dict) -> PropagatorConfig:
    _check_keys(tree, {"command", "grid", "mass", "times", "margin", "quadrature", "ratio_ceiling", "multiplier_error_ceiling", "zero_slice_ceiling", "output"})
    grid = _parse_grid(tree)
    mass = _parse_mass(tree, positive=True)
    times = _parse_times(tree, grid)
    margin = _number(tree, "margin", 0.2, "margin")
    _require(margin >= 3.0 * grid.dx, "margin", f"margin {margin} below 3*dx = {3.0 * grid.dx}")
    L = grid.n * grid.dx
    for t in times:
        _require(abs(t) + margin < L / 2, "times.scan-region", f"|t| + margin = {abs(t) + margin} reaches the boundary L/2 = {L / 2}")
    q = _section(tree, "quadrature")
    _check_keys(q, {"cutoff", "eps_base", "rungs", "residual_tol", "band_fraction"})
    cutoff = _optional_number(q, "cutoff", "quadrature.cutoff")
    if cutoff is not None:
        floor = CUTOFF_FACTOR * max(mass, 1.0 / grid.dx)
        _require(cutoff >= floor, "quadrature.cutoff", f"cutoff {cutoff} below the required floor {floor}")
    eps_base = _optional_number(q, "eps_base", "quadrature.eps_base")
    _require(eps_base is None or eps_base > 0, "quadrature.eps_base", f"damping must be positive, got {eps_base}")
    rungs = q.get("rungs", 4)
    _require(
        isinstance(rungs, int) and not isinstance(rungs, bool) and rungs >= 2,
        "quadrature.rungs",
        f"need an integer number of extrapolation rungs >= 2, got {rungs!r}",
    )
    residual_tol = _number(q, "residual_tol", 1e-6, "quadrature.residual_tol")
    _require(residual_tol > 0, "quadrature.residual_tol", f"residual tolerance must be positive, got {residual_tol}")
    band_fraction = _number(q, "band_fraction", 0.5, "quadrature.band_fraction")
    _require(0.0 < band_fraction <= 1.0, "quadrature.band_fraction", f"band_fraction must lie in (0, 1], got {band_fraction}")
    quad = QuadratureSection(
        cutoff=cutoff, eps_base=eps_base, rungs=rungs,
        residual_tol=residual_tol, band_fraction=band_fraction,
    )
    return PropagatorConfig(
        grid=grid, mass=mass, times=times, margin=margin, quadrature=quad,
        ratio_ceiling=_number(tree, "ratio_ceiling", 1e-4, "ratio_ceiling"),
        multiplier_error_ceiling=_number(tree, "multiplier_error_ceiling", 1e-3, "multiplier_error_ceiling"),
        zero_slice_ceiling=_number(tree, "zero_slice_ceiling", 1e-10, "zero_slice_ceiling"),
        out_format=_parse_format(tree),
    )


_PARSERS = {
    "evolve": _parse_evolve,
    "hegerfeldt": _parse_hegerfeldt,
    "propagator": _parse_propagator,
}


def load_config(path: Path, command: str):
    """Parse and fully validate a config file for the given command."""
    try:
        with open(path) as fh:
            tree = json.load(fh)
    except OSError as exc:
        raise ConfigError("config.path", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("config.json", f"invalid JSON in {path}: {exc}") from exc
    _require(isinstance(tree, dict), "config", "top level must be an object")
    declared = tree.get("command")
    if declared is not None:
        _require(declared == command, "command", f"config declares command {declared!r}, invoked as {command!r}")
    return _PARSERS[command](tree)

"""Experiment configuration: one human-editable JSON file per run.

This layer parses JSON types, unknown keys and command policy, then
delegates: every range or geometry rule lives in the domain value it
protects, so the config builds those values (grid, mass and quadrature
settings) or calls their checks, and a bad config fails at
load time.  Either way :class:`ConfigError`, the package's one
rule-carrying :class:`~kglab.spectral.PreconditionError`, names the rule.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .diagnostics import check_threshold, check_window
from .dispersion import Mass
from .evolution import check_margin, ladder_steps
from .propagator import SUPPRESSION_RATIO, QuadratureSpec, check_scan
from .spectral import Field, PreconditionError, UniformGrid, bump_right_mover, check_bump, make_bump

__all__ = [
    "CONE_MARGIN_CELLS",
    "ConfigError",
    "StateSection",
    "EvolveConfig",
    "HegerfeldtConfig",
    "PropagatorConfig",
    "load_config",
]

#: geometric slack, in grid cells, added to every light-cone check to
#: absorb threshold and discretization fuzz
CONE_MARGIN_CELLS = 5

#: evolution methods of the evolve command; local-fd also needs a dt
_METHODS = ("spectral-exact", "local-fd")

#: invalid configuration; ``rule`` names the first failing check
ConfigError = PreconditionError


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


def _number(tree: dict, key: str, default: float | None, rule: str) -> float:
    """A finite number; a default of None makes the key required."""
    value = tree.get(key, default)
    _require(_is_number(value), rule, f"{key} must be a finite number, got {value!r}")
    return float(value)


def _bound(tree: dict, key: str, default: float, rule: str) -> float:
    """A finite, positive number: a verdict bound or tolerance."""
    value = _number(tree, key, default, rule)
    _require(value > 0, rule, f"{key} must be positive, got {value}")
    return value


def _check_keys(tree: dict, allowed: set[str]) -> None:
    for key in tree:
        _require(key in allowed, "unknown-key", f"unrecognized config key {key!r}")


def _section(tree: dict, key: str, keys: set[str], required: bool = False) -> dict:
    """The object under ``key``, holding no key outside ``keys``; an absent
    optional section reads as empty."""
    section = _get(tree, key, key) if required else tree.get(key, {})
    _require(isinstance(section, dict), key, f"{key} section must be an object")
    _check_keys(section, keys)
    return section


def _cone_margin_cells(tree: dict) -> int:
    cells = tree.get("cone_margin_cells", CONE_MARGIN_CELLS)
    _require(
        _is_number(cells) and isinstance(cells, int) and cells >= 0,
        "cone_margin_cells",
        f"margin cells must be a non-negative integer, got {cells!r}",
    )
    return cells


@dataclass(frozen=True)
class StateSection:
    """A bump Phi and its time derivative Pi: zero or the right mover."""

    center: float
    radius: float
    amplitude: float
    pi: str = "zero"

    def build_phi(self, grid: UniformGrid) -> Field:
        return make_bump(grid, self.center, self.radius, self.amplitude)

    def build_pi(self, grid: UniformGrid) -> Field:
        if self.pi == "zero":
            return Field(grid, np.zeros(grid.n, dtype=np.complex128))
        return bump_right_mover(grid, self.center, self.radius, self.amplitude)


@dataclass(frozen=True)
class EvolveConfig:
    grid: UniformGrid
    mass: Mass
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
    grid: UniformGrid
    mass: Mass
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


@dataclass(frozen=True)
class PropagatorConfig:
    grid: UniformGrid
    mass: Mass
    times: tuple[float, ...]
    margin: float
    quadrature: QuadratureSpec
    ratio_ceiling: float
    multiplier_error_ceiling: float
    zero_slice_ceiling: float


def _parse_grid(tree: dict) -> UniformGrid:
    g = _section(tree, "grid", {"n", "dx"}, required=True)
    n = _get(g, "n", "grid.n")
    _require(isinstance(n, int), "grid.n", f"n must be an integer, got {n!r}")
    return UniformGrid(n=n, dx=_number(g, "dx", None, "grid.dx"))


def _parse_mass(tree: dict, positive: bool) -> Mass:
    mass = Mass(_number(tree, "mass", None, "mass"))
    if positive:
        mass.require_positive("this command (1/omega is singular at m = 0)")
    return mass


def _parse_state(tree: dict, grid: UniformGrid, allow_pi: bool) -> StateSection:
    s = _section(tree, "initial_state", {"factory", "center", "radius", "amplitude", "pi"}, required=True)
    factory = _get(s, "factory", "initial_state.factory")
    _require(factory == "bump", "initial_state.factory", f"unknown factory {factory!r}; available: bump")
    center = _number(s, "center", 0.0, "initial_state.center")
    radius = _number(s, "radius", None, "initial_state.radius")
    amplitude = _number(s, "amplitude", 1.0, "initial_state.amplitude")
    check_bump(grid, center, radius)
    pi = s.get("pi", "zero")
    allowed = ("zero", "right-mover") if allow_pi else ("zero",)
    _require(pi in allowed, "initial_state.pi", f"pi must be one of {allowed}, got {pi!r}")
    return StateSection(center=center, radius=radius, amplitude=amplitude, pi=pi)


def _parse_times(tree: dict, grid: UniformGrid) -> tuple[float, ...]:
    times = _get(tree, "times", "times")
    _require(isinstance(times, list) and times, "times", "need a non-empty list of times")
    for t in times:
        _require(_is_number(t), "times", f"times must be finite numbers, got {t!r}")
        check_margin(grid, t)
    return tuple(float(t) for t in times)


def _parse_format(tree: dict, formats: tuple[str, ...]) -> str:
    fmt = _section(tree, "output", {"format"}).get("format", "csv")
    _require(fmt in formats, "output.format", f"format must be one of {formats}, got {fmt!r}")
    return fmt


def _parse_evolve(tree: dict) -> EvolveConfig:
    _check_keys(tree, {"command", "grid", "mass", "initial_state", "method", "dt", "times", "snapshot_times", "thresholds", "cone_margin_cells", "output"})
    grid = _parse_grid(tree)
    mass = _parse_mass(tree, positive=False)
    state = _parse_state(tree, grid, allow_pi=True)
    times = _parse_times(tree, grid)
    dt = _optional_number(tree, "dt", "dt")
    method = tree.get("method", "spectral-exact")
    _require(method in _METHODS, "method", f"unknown method {method!r}; allowed: {_METHODS}")
    if method == "local-fd":
        _require(dt is not None, "dt", "local-fd needs a time step dt")
        ladder_steps(grid, times, dt)
    snapshot_times = tree.get("snapshot_times", [])
    _require(isinstance(snapshot_times, list), "snapshot_times", "snapshot_times must be a list of times")
    for t in snapshot_times:
        _require(_is_number(t) and t in times, "snapshot_times", f"snapshot time {t!r} is not in the time ladder")
    thresholds = _section(tree, "thresholds", {"support", "cone_leakage"})
    support = _number(thresholds, "support", 1e-12, "thresholds.support")
    check_threshold(support)
    leakage = _bound(thresholds, "cone_leakage", 1e-8, "thresholds.cone_leakage")
    return EvolveConfig(
        grid=grid, mass=mass, state=state, method=method, dt=dt,
        times=times, snapshot_times=tuple(float(t) for t in snapshot_times),
        support_threshold=support, leakage_ceiling=leakage,
        cone_margin_cells=_cone_margin_cells(tree), out_format=_parse_format(tree, ("csv", "json")),
    )


def _parse_hegerfeldt(tree: dict) -> HegerfeldtConfig:
    _check_keys(tree, {"command", "grid", "mass", "initial_state", "times", "leakage_floor", "contrast_ceiling", "thresholds", "cone_margin_cells", "tail_fit", "grid_doubling_check", "doubling_tolerance", "output"})
    grid = _parse_grid(tree)
    mass = _parse_mass(tree, positive=True)
    state = _parse_state(tree, grid, allow_pi=False)
    times = _parse_times(tree, grid)
    for t in times:
        _require(t > 0, "times.positive", f"leakage times must be positive, got {t}")
    _require(
        all(a < b for a, b in zip(times, times[1:])),
        "times.increasing",
        f"leakage times must increase strictly, got {list(times)}",
    )
    thresholds = _section(tree, "thresholds", {"support"})
    support = _number(thresholds, "support", 1e-12, "thresholds.support")
    check_threshold(support)
    floor = _bound(tree, "leakage_floor", 1e-10, "leakage_floor")
    ceiling = _bound(tree, "contrast_ceiling", 1e-8, "contrast_ceiling")
    tail = _section(tree, "tail_fit", {"window", "snapshot_time", "rate_band", "min_r2"})
    window = tail.get("window")
    _require(
        isinstance(window, list) and len(window) == 2 and all(map(_is_number, window)),
        "tail_fit.window",
        f"window must be a list [lo, hi] of two finite numbers, got {window!r}",
    )
    check_window(window)
    compton = mass.compton_wavelength
    _require(
        window[0] >= state.center + state.radius + 3.0 * compton,
        "tail_fit.window.near-field",
        f"window must start >= 3 Compton lengths beyond the support edge {state.center + state.radius}",
    )
    _require(
        window[1] <= grid.L / 2 - grid.L / 16 - 2.0 * compton,
        "tail_fit.window.wrap",
        "window must end >= 2 Compton lengths before the boundary-floor strip",
    )
    snapshot_time = _number(tail, "snapshot_time", times[-1], "tail_fit.snapshot_time")
    _require(snapshot_time in times, "tail_fit.snapshot_time", f"snapshot time {snapshot_time} is not in the time ladder")
    rate_band = _bound(tail, "rate_band", 0.15, "tail_fit.rate_band")
    min_r2 = _number(tail, "min_r2", 0.99, "tail_fit.min_r2")
    doubling_tolerance = _bound(tree, "doubling_tolerance", 0.1, "doubling_tolerance")
    doubling_check = tree.get("grid_doubling_check", True)
    _require(isinstance(doubling_check, bool), "grid_doubling_check", f"grid_doubling_check must be true or false, got {doubling_check!r}")
    _parse_format(tree, ("csv",))  # the command writes CSV only
    return HegerfeldtConfig(
        grid=grid, mass=mass, state=state, times=times,
        leakage_floor=floor, contrast_ceiling=ceiling,
        support_threshold=support, cone_margin_cells=_cone_margin_cells(tree),
        window=(float(window[0]), float(window[1])),
        snapshot_time=snapshot_time, rate_band=rate_band, min_r2=min_r2,
        grid_doubling_check=doubling_check,
        doubling_tolerance=doubling_tolerance,
    )


def _parse_propagator(tree: dict) -> PropagatorConfig:
    _check_keys(tree, {"command", "grid", "mass", "times", "margin", "quadrature", "ratio_ceiling", "multiplier_error_ceiling", "zero_slice_ceiling", "output"})
    grid = _parse_grid(tree)
    mass = _parse_mass(tree, positive=True)
    times = _parse_times(tree, grid)
    margin = _number(tree, "margin", 0.2, "margin")
    for t in times:
        check_scan(grid, t, margin)
    q = _section(tree, "quadrature", {"cutoff", "rungs", "residual_tol", "band_fraction"})
    cutoff = _optional_number(q, "cutoff", "quadrature.cutoff")
    rungs = q.get("rungs", QuadratureSpec.rungs)
    _require(
        isinstance(rungs, int) and not isinstance(rungs, bool), "quadrature.rungs", f"rungs must be an integer, got {rungs!r}"
    )
    quad = QuadratureSpec(
        cutoff=cutoff, rungs=rungs,
        residual_tol=_number(q, "residual_tol", QuadratureSpec.residual_tol, "quadrature.residual_tol"),
        band_fraction=_number(q, "band_fraction", QuadratureSpec.band_fraction, "quadrature.band_fraction"),
    )
    quad.resolve(grid, mass)
    _parse_format(tree, ("csv",))  # the command writes CSV only
    return PropagatorConfig(
        grid=grid, mass=mass, times=times, margin=margin, quadrature=quad,
        ratio_ceiling=_bound(tree, "ratio_ceiling", SUPPRESSION_RATIO, "ratio_ceiling"),
        multiplier_error_ceiling=_bound(tree, "multiplier_error_ceiling", 1e-3, "multiplier_error_ceiling"),
        zero_slice_ceiling=_bound(tree, "zero_slice_ceiling", 1e-10, "zero_slice_ceiling"),
    )


_PARSERS = {
    "evolve": _parse_evolve,
    "hegerfeldt": _parse_hegerfeldt,
    "propagator": _parse_propagator,
}


def load_config(path: Path, command: str):
    """Parse a config file for the given command and build its domain values."""
    try:
        with open(path, encoding="utf-8") as fh:
            tree = json.load(fh)
    except OSError as exc:
        raise ConfigError("config.path", f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError("config.json", f"invalid JSON in {path}: {exc}") from exc
    _require(isinstance(tree, dict), "config", "top level must be an object")
    declared = tree.get("command")
    if declared is not None:
        _require(declared == command, "command", f"config declares command {declared!r}, invoked as {command!r}")
    return _PARSERS[command](tree)

"""Experiment configuration: one human-editable JSON file per run.

Each command declares its keys once, in one table of :data:`KEYS` that
mirrors the JSON tree: an entry ``key: (default, kind)`` reads one value,
and a nested dict is a section.  One reader walks the table.  It refuses
unknown keys in every section, fills in the defaults and checks each
value's kind, under a rule named by the key's dotted path.  The
command's parser then builds the domain values (grid, mass and
quadrature settings) and runs the domain checks (the datum, the times),
which own every range and geometry rule, and checks the command's
cross-key policy.  Every datum is checked, and built on each grid a
runner asks for, through one table, :data:`INITIAL_STATE`.  So a bad
config fails at load time, and :class:`~kglab.spectral.PreconditionError`,
the package's one rule-carrying exception, names the rule.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .diagnostics import check_threshold, check_window
from .dispersion import Mass
from .evolution import check_margin, ladder_steps
from .propagator import QuadratureSpec, check_scan
from .spectral import Field, PreconditionError, UniformGrid, bump_right_mover, check_bump, make_bump

__all__ = ["INITIAL_STATE", "KEYS", "REQUIRED", "load_config"]

#: the default of a key that every config must set
REQUIRED = "required"


def _require(condition: bool, rule: str, message: str) -> None:
    if not condition:
        raise PreconditionError(rule, message)


def _is_number(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _floats(value) -> tuple[float, ...]:
    return tuple(map(float, value))


# A kind reads one JSON value: (what it must be, test, conversion).
_NUMBER = ("a finite number", _is_number, float)
_BOUND = ("a finite, positive number", lambda v: _is_number(v) and v > 0, float)
_INTEGER = ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool), int)
_CELLS = ("a non-negative integer", lambda v: _is_number(v) and isinstance(v, int) and v >= 0, int)
_FLAG = ("true or false", lambda v: isinstance(v, bool), bool)
_TIMES = ("a list of finite numbers", lambda v: isinstance(v, list) and all(map(_is_number, v)), _floats)
_LADDER = ("a non-empty list of finite numbers", lambda v: isinstance(v, list) and len(v) > 0 and all(map(_is_number, v)), _floats)
# the rate verdicts pass |rate/m - 1| < rate_band and r2 > min_r2: a band of
# 1 or more passes a tail that does not decay, and a fit's r2 lies in [0, 1]
_RATE_BAND = ("a number in (0, 1)", lambda v: _is_number(v) and 0 < v < 1, float)
_MIN_R2 = ("a number in [0, 1)", lambda v: _is_number(v) and 0 <= v < 1, float)
_PAIR = (
    "a list [lo, hi] of two finite numbers",
    lambda v: isinstance(v, list) and len(v) == 2 and all(map(_is_number, v)),
    _floats,
)


def _one_of(*choices):
    return (f"one of {choices}", choices.__contains__, lambda v: v)


def _keys(**entries) -> dict:
    """A command's table: the entries every command shares, then its own."""
    return {
        "grid": {"n": (REQUIRED, _INTEGER), "dx": (REQUIRED, _NUMBER)},
        "mass": (REQUIRED, _NUMBER),
        **entries,
    }


def _output(*formats: str) -> dict:
    """The output section; CSV unless ``formats`` allows more."""
    return {"format": ("csv", _one_of("csv", *formats))}


#: every datum a config can name: initial_state.factory -> (its check, returning the reach, its
#: Phi builder), evolve's initial_state.pi -> its Pi builder (the first the default).  Each takes
#: (grid, center, radius, amplitude) and looks its function up per call, so a patched name runs.
INITIAL_STATE = {
    "factory": {"bump": (lambda *bump: check_bump(*bump), lambda *bump: make_bump(*bump))},
    "pi": {"zero": lambda grid, *_: Field(grid, np.zeros(grid.n, complex)), "right-mover": lambda *bump: bump_right_mover(*bump)},
}
#: the initial_state section: a factory's Phi; evolve adds its Pi
_STATE = {
    "factory": (REQUIRED, _one_of(*INITIAL_STATE["factory"])),
    "center": (0.0, _NUMBER),
    "radius": (REQUIRED, _NUMBER),
    "amplitude": (1.0, _NUMBER),
}
_TIME_LADDER = (REQUIRED, _LADDER)
_SUPPORT = {"support": (1e-12, _NUMBER)}
#: geometric slack, in grid cells, added to every light-cone check to
#: absorb threshold and discretization fuzz
_CONE_MARGIN = (5, _CELLS)

#: every key of every command: ``key: (default, kind)``, a dict for a section
KEYS = {
    "evolve": _keys(
        initial_state={**_STATE, "pi": (next(iter(INITIAL_STATE["pi"])), _one_of(*INITIAL_STATE["pi"]))},
        times=_TIME_LADDER,
        dt=(None, _NUMBER),
        method=("spectral-exact", _one_of("spectral-exact", "local-fd")),
        snapshot_times=([], _TIMES),
        thresholds={**_SUPPORT, "cone_leakage": (1e-8, _BOUND)},
        cone_margin_cells=_CONE_MARGIN,
        output=_output("json"),
    ),
    "hegerfeldt": _keys(
        initial_state=_STATE,
        times=_TIME_LADDER,
        thresholds=_SUPPORT,
        leakage_floor=(1e-10, _BOUND),
        contrast_ceiling=(1e-8, _BOUND),
        tail_fit={
            "window": (REQUIRED, _PAIR),
            "snapshot_time": (None, _NUMBER),  # absent or null: the last time
            "rate_band": (0.15, _RATE_BAND),
            "min_r2": (0.99, _MIN_R2),
        },
        doubling_tolerance=(0.1, _BOUND),
        grid_doubling_check=(True, _FLAG),
        cone_margin_cells=_CONE_MARGIN,
        output=_output(),
    ),
    "propagator": _keys(
        times=_TIME_LADDER,
        margin=(0.2, _NUMBER),
        quadrature={
            "cutoff": (QuadratureSpec.cutoff, _NUMBER),
            "rungs": (QuadratureSpec.rungs, _INTEGER),
            "residual_tol": (QuadratureSpec.residual_tol, _NUMBER),
            "band_fraction": (QuadratureSpec.band_fraction, _NUMBER),
        },
        output=_output(),
        ratio_ceiling=(1e-4, _BOUND),
        multiplier_error_ceiling=(1e-3, _BOUND),
        zero_slice_ceiling=(1e-10, _BOUND),
    ),
}


def _read(tree: dict, table: dict, values: dict, path: str = "") -> dict:
    """Check ``tree`` against ``table`` and gather its leaves into ``values``
    by leaf name, defaults filled in; a section holding a required key is
    required itself, and an absent optional one reads as empty."""
    for key in tree:
        _require(key in table, "unknown-key", f"unrecognized config key {path + key!r}")
    for key, entry in table.items():
        rule = path + key
        if isinstance(entry, dict):
            required = any(leaf[0] == REQUIRED for leaf in entry.values())
            _require(key in tree or not required, rule, f"missing required key {rule!r}")
            section = tree.get(key, {})
            _require(isinstance(section, dict), rule, f"{rule} section must be an object")
            _read(section, entry, values, rule + ".")
            continue
        default, (what, test, convert) = entry
        if key in tree and not (tree[key] is None and default is None):  # null reads as a None default
            _require(test(tree[key]), rule, f"{rule} must be {what}, got {tree[key]!r}")
        else:
            _require(default != REQUIRED, rule, f"missing required key {rule!r}")
        value = tree.get(key, default)
        values[key] = None if value is None else convert(value)
    return values


def _build(values: dict, positive_mass: bool) -> SimpleNamespace:
    """The config with its grid and mass built, its datum (if any) checked and bound through
    :data:`INITIAL_STATE` as ``reach``, ``phi`` and ``pi``, and every time checked against the periodic margin."""
    grid = values["grid"] = UniformGrid(n=values.pop("n"), dx=values.pop("dx"))
    mass = values["mass"] = Mass(values["mass"])
    if positive_mass:
        mass.require_positive("this command (1/omega is singular at m = 0)")
    if "factory" in values:  # the command reads an initial state
        check, phi = INITIAL_STATE["factory"][values.pop("factory")]
        state = [values.pop(key) for key in ("center", "radius", "amplitude")]
        values["reach"] = check(grid, *state)
        values["phi"] = lambda g: phi(g, *state)
        if "pi" in values:  # evolve's
            values["pi"] = lambda g, pi=INITIAL_STATE["pi"][values["pi"]]: pi(g, *state)
    for t in values["times"]:
        check_margin(grid, t)
    return SimpleNamespace(**values)


def _parse_evolve(values: dict) -> SimpleNamespace:
    cfg = _build(values, positive_mass=False)
    _require(len(set(cfg.times)) == len(cfg.times), "times.unique", f"a ladder time is listed twice in {list(cfg.times)}")
    if cfg.method == "local-fd":
        _require(cfg.dt is not None, "dt", "local-fd needs a time step dt")
        ladder_steps(cfg.grid, cfg.times, cfg.dt, cfg.mass)
    else:
        _require(cfg.dt is None, "dt", f"{cfg.method} reads no time step, got dt = {cfg.dt}")
    for t in cfg.snapshot_times:
        _require(t in cfg.times, "snapshot_times", f"snapshot time {t!r} is not in the time ladder")
    check_threshold(cfg.support)
    return cfg


def _parse_hegerfeldt(values: dict) -> SimpleNamespace:
    cfg = _build(values, positive_mass=True)
    times = cfg.times
    for t in times:
        _require(t > 0, "times.positive", f"leakage times must be positive, got {t}")
    _require(
        all(a < b for a, b in zip(times, times[1:])),
        "times.increasing",
        f"leakage times must increase strictly, got {list(times)}",
    )
    _require(len(times) > 1, "times.count", "leakage_monotone needs at least two leakage times to compare")
    check_threshold(cfg.support)
    check_window(cfg.grid, cfg.window, cfg.reach, cfg.mass)
    if cfg.snapshot_time is None:
        cfg.snapshot_time = times[-1]
    _require(cfg.snapshot_time in times, "tail_fit.snapshot_time", f"snapshot time {cfg.snapshot_time} is not a ladder time")
    return cfg


def _parse_propagator(values: dict) -> SimpleNamespace:
    cfg = _build(values, positive_mass=True)
    for t in cfg.times:
        check_scan(cfg.grid, t, cfg.margin)
    raw = vars(cfg)
    spec = QuadratureSpec(*(raw.pop(k) for k in ("cutoff", "rungs", "residual_tol", "band_fraction")))
    cfg.quadrature = spec.resolve(cfg.grid, cfg.mass)
    return cfg


_PARSERS = {
    "evolve": _parse_evolve,
    "hegerfeldt": _parse_hegerfeldt,
    "propagator": _parse_propagator,
}


def load_config(path: Path, command: str) -> SimpleNamespace:
    """Parse a config file for the given command and build its domain values."""
    try:
        with open(path, encoding="utf-8") as fh:
            tree = json.load(fh)
    except OSError as exc:
        raise PreconditionError("config.path", f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, an over-long integer
        raise PreconditionError("config.json", f"invalid JSON in {path}: {exc}") from exc
    _require(isinstance(tree, dict), "config", "top level must be an object")
    declared = tree.pop("command", None)
    _require(declared in (None, command), "command", f"config declares command {declared!r}, invoked as {command!r}")
    return _PARSERS[command](_read(tree, KEYS[command], {}))

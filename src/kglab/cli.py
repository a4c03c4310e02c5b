"""Experiment runner.

Subcommands: evolve, hegerfeldt, propagator, report.  Every command is a
pure function of its config file: identical configs produce byte-identical
outputs regardless of KGLAB_THREADS.  Exit status 0 means every verdict
passed, 1 means at least one verdict failed, 2 means the run was refused,
with a JSON error on stderr that always names a rule: kind "usage" (a
malformed command line), "config" (a precondition, at load time or from a
domain check), "io", "memory" (an array too large for this machine, or a
propagator worker process that could not start or left no result) or
"report".  Modules compute every field, kernel, fit and leakage; the CLI
only reduces them to verdicts, and is the one module that says what each
output file holds (``kglab.io`` only formats).  Each measurement is
reduced once (a ladder maximum, the leakage at one time, a ratio) and
every ceiling verdict is one strict comparison in ``_below``; the
composite verdicts (a rising ladder, a leakage floor, a tail rate inside
its band with its fit's r2, all slices converged) build their ``passed``
in ``_verdict``.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import diagnostics, posfreq, propagator
from .config import load_config
from .evolution import (
    CauchyData,
    energy,
    evolve_from_rest,
    evolve_local_fd_ladder,
    evolve_spectral,
    leapfrog_energy,
)
from .io import write_csv, write_json
from .runtime import parallel_map, worker_cap
from .spectral import Field, PreconditionError, UniformGrid

__all__ = ["main"]

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_ERROR = 2

# evolve ceilings: the relative energy drift of each method (the leapfrog's
# own quadratic form under local-fd), and the boundary floor relative to the
# peak |Phi(0)|
ENERGY_DRIFT_BOUND = {"spectral-exact": 1e-12, "local-fd": 1e-6}
BOUNDARY_FLOOR = 1e-10

# the schemas of a field's JSON envelope and of witness_report.json
FIELD_SCHEMA = "kglab.field/1"
WITNESS_SCHEMA = "kglab.support-report/2"


def _verdict(value, passed: bool) -> dict:
    return {"value": value, "passed": bool(passed)}


def _below(value, bound) -> dict:
    """A ceiling verdict: ``value`` passes strictly below ``bound``."""
    return _verdict(value, value < bound)


def _support_threshold(cfg: SimpleNamespace, datum: Field) -> float:
    """``thresholds.support`` relative to the datum's peak max|Phi(0)|, the
    one threshold of every support measurement of a run, so that no
    support radius depends on the amplitude."""
    return cfg.support * float(np.max(np.abs(datum.values)))


def _grid_json(grid: UniformGrid) -> dict:
    return {"n": grid.n, "dx": grid.dx, "L": grid.L}


def _write_field(f: Field, path: Path, fmt: str) -> None:
    """A snapshot: columns x, re, im, or the envelope {grid, im, re, schema}."""
    if fmt == "csv":
        write_csv(path, ["x", "re", "im"], [f.grid, f.values.real, f.values.imag])
    else:
        write_json(path, {"grid": _grid_json(f.grid), "im": f.values.imag, "re": f.values.real, "schema": FIELD_SCHEMA})


def _write_slice(sample: propagator.PropagatorSample, path: Path) -> None:
    """A kernel slice: the grid column, then re/im of D and of D+."""
    delta, plus = sample.delta.values, sample.delta_plus.values
    write_csv(
        path,
        ["x", "re_delta", "im_delta", "re_delta_plus", "im_delta_plus"],
        [sample.grid, delta.real, delta.imag, plus.real, plus.imag],
    )


def _witness_report(field: Field, threshold: float, window: tuple[float, float]) -> dict:
    """The ``witness_report.json`` payload: the thresholded support radius
    and the tail fit of the tail witness."""
    radius = diagnostics.support_radius(field, threshold=threshold)
    flags = ["nowhere-below-threshold"] if radius >= field.grid.L / 2.0 else []
    tail = diagnostics.fit_exponential_tail(field, window)
    return {
        "support_radius": radius,
        "tail_rate": tail.rate,
        "tail_intercept": tail.intercept,
        "fit_r2": tail.r2,
        "window": list(window),
        "flags": [*flags, *tail.flags],
        "schema": WITNESS_SCHEMA,
    }


def _write_report(out: Path, command: str, cfg, verdicts: dict, **fields) -> int:
    """Write ``report.json``: the command, its grid, mass and verdicts, and
    the command's own ``fields``.  The exit code follows the verdicts."""
    report = {
        "command": command,
        "grid": _grid_json(cfg.grid),
        "mass": cfg.mass.m,
        "verdicts": verdicts,
        **fields,
    }
    write_json(out / "report.json", report)
    return EXIT_PASS if all(v["passed"] for v in verdicts.values()) else EXIT_FAIL


def _run_evolve(cfg: SimpleNamespace, out: Path) -> int:
    grid = cfg.grid
    data = CauchyData(cfg.phi(grid), cfg.pi(grid), cfg.mass)
    threshold = _support_threshold(cfg, data.phi)
    r0 = diagnostics.support_radius(data.phi, data.pi, threshold=threshold)
    margin = cfg.cone_margin_cells * grid.dx
    e0 = energy(data)
    # the leapfrog reaches every ladder time in one pass; spectral states
    # are evolved lazily, so a refusal names the earliest time that fails
    if cfg.method == "local-fd":
        states = evolve_local_fd_ladder(data, cfg.times, cfg.dt)
    else:
        states = (evolve_spectral(data, t) for t in cfg.times)
    rows = [
        (
            state,
            energy(state),
            diagnostics.support_radius(state.phi, state.pi, threshold=threshold),
            diagnostics.cone_leakage(state.phi, r0, t, margin),
            diagnostics.boundary_floor(state.phi),
        )
        for t, state in zip(cfg.times, states)
    ]
    states, energies, radii, leakages, floors = zip(*rows)
    if cfg.method == "spectral-exact":
        drifts = [abs(e_t - e0) / e0 if e0 > 0 else 0.0 for e_t in energies]
    else:
        # the leapfrog scheme conserves its own quadratic form, not the
        # continuum energy
        q0 = leapfrog_energy(data, cfg.dt)
        drifts = [abs(leapfrog_energy(state, cfg.dt) - q0) / q0 if q0 > 0 else 0.0 for state in states]
    for t, state in zip(cfg.times, states):
        if t in cfg.snapshot_times:
            _write_field(state.phi, out / f"snapshot_{cfg.times.index(t):03d}.{cfg.format}", cfg.format)
    write_csv(
        out / "series.csv",
        ["t", "energy", "joint_support_radius", "cone_leakage"],
        [cfg.times, energies, radii, leakages],
    )

    verdicts = {
        "cone_leakage": _below(max(leakages), cfg.cone_leakage),
        "energy_drift": _below(max(drifts), ENERGY_DRIFT_BOUND[cfg.method]),
        "boundary_floor": _below(max(floors), BOUNDARY_FLOOR * float(np.max(np.abs(data.phi.values)))),
    }
    return _write_report(
        out, "evolve", cfg, verdicts,
        method=cfg.method, times=list(cfg.times), initial_energy=e0, initial_support_radius=r0, cone_margin=margin,
    )


def _run_hegerfeldt(cfg: SimpleNamespace, out: Path) -> int:
    grid, mass = cfg.grid, cfg.mass
    psi0 = cfg.phi(grid)
    threshold = _support_threshold(cfg, psi0)
    r0 = diagnostics.support_radius(psi0, threshold=threshold)
    margin = cfg.cone_margin_cells * grid.dx
    psi0.spectrum  # transformed once, before the pool shares it

    def one_time(t: float):
        psi_t = posfreq.evolve_positive(psi0, mass, t)
        return (
            diagnostics.cone_leakage(psi_t, r0, t, margin),
            diagnostics.fit_exponential_tail(psi_t, cfg.window),
            # the second-order contrast: the same psi0 released at rest
            diagnostics.cone_leakage(evolve_from_rest(psi0, mass, t), r0, t, margin),
        )

    def witness():
        return _witness_report(posfreq.positivity_tail_witness(psi0, mass), threshold, cfg.window)

    # one pool pass over every job, reduced in this order: the base-grid
    # times, the witness, then the doubled-grid leakages
    jobs = [partial(one_time, t) for t in cfg.times] + [witness]
    if cfg.grid_doubling_check:
        # same cone edge (base-grid support radius and margin) isolates
        # the resolution dependence, which is what rules out aliasing; the
        # verdict reads only the leakage, so only the leakage is computed
        psi2 = cfg.phi(UniformGrid(n=2 * grid.n, dx=grid.dx / 2.0))
        psi2.spectrum  # transformed once, before the pool shares it

        def leak2(t: float):
            return diagnostics.cone_leakage(posfreq.evolve_positive(psi2, mass, t), r0, t, margin)

        jobs += [partial(leak2, t) for t in cfg.times]
    # threads, not forked workers: the FFTs release the GIL, and forked
    # workers read slower in 11 of 16 rounds (BENCH_procs.json)
    results = parallel_map(lambda job: job(), jobs)
    k = len(cfg.times)
    leaks, tails, contrasts = zip(*results[:k])
    witness_report = results[k]

    write_csv(
        out / "leakage.csv",
        ["t", "leakage_fraction", "fitted_rate", "fit_r2", "window_lo", "window_hi"],
        [
            cfg.times,
            leaks,
            [tail.rate for tail in tails],
            [tail.r2 for tail in tails],
            [cfg.window[0]] * len(tails),
            [cfg.window[1]] * len(tails),
        ],
    )
    write_csv(
        out / "contrast.csv",
        ["t", "positive_frequency_leakage", "spectral_leakage"],
        [cfg.times, leaks, contrasts],
    )
    write_json(out / "witness_report.json", witness_report)

    def rate(value: float, r2: float) -> dict:
        return _verdict(value, abs(value / mass.m - 1.0) < cfg.rate_band and r2 > cfg.min_r2)

    snap_tail = tails[cfg.times.index(cfg.snapshot_time)]
    floor_leak = min(zip(cfg.times, leaks), key=lambda pair: abs(pair[0] - 0.01))[1]
    verdicts = {
        "leakage_floor": _verdict(floor_leak, floor_leak > cfg.leakage_floor),
        "leakage_monotone": _verdict(leaks, all(a < b for a, b in zip(leaks, leaks[1:]))),
        "spectral_contrast": _below(max(contrasts), cfg.contrast_ceiling),
        "witness_rate": rate(witness_report["tail_rate"], witness_report["fit_r2"]),
        "snapshot_rate": rate(snap_tail.rate, snap_tail.r2),
    }
    if cfg.grid_doubling_check:
        rel = max(abs(b / a - 1.0) for a, b in zip(leaks, results[k + 1 :]))
        verdicts["grid_doubling_stability"] = _below(rel, cfg.doubling_tolerance)
    return _write_report(
        out, "hegerfeldt", cfg, verdicts,
        times=list(cfg.times), support_radius=r0, window=list(cfg.window), snapshot_time=cfg.snapshot_time,
    )


def _run_propagator(cfg: SimpleNamespace, out: Path) -> int:
    def one_slice(item: tuple[int, float]) -> dict:
        # writes its own slice, so no finished slice waits for the others:
        # writing every slice from the main thread after the pool read the same
        # wall time and ~4.6 MB more peak RSS on propagator-dense.  Formatting a
        # slice holds the GIL throughout one str.join, so slices run in forked
        # processes, where two slices format at once (BENCH_procs.json)
        idx, t = item
        sample = propagator.pauli_jordan(t, cfg.grid, cfg.mass, cfg.quadrature)
        bridge = propagator.bridge_identity_error(sample)
        scan = propagator.spacelike_suppression_scan(sample, cfg.margin) if t != 0.0 else None
        _write_slice(sample, out / f"slice_{idx:03d}.csv")
        entry = {"t": t, "residual": sample.residual, "converged": sample.converged}
        quad = sample.quad
        quadrature = {
            "cutoff": quad.cutoff,
            "eps_ladder": list(quad.eps_ladder),
            "residual_tol": quad.residual_tol,
            "band_fraction": quad.band_fraction,
            "residual_collar_cells": propagator.RESIDUAL_COLLAR_CELLS,
        }
        write_json(out / f"slice_{idx:03d}.meta.json", {**entry, "mass": cfg.mass.m, "quadrature": quadrature})
        entry["multiplier_error"] = bridge
        entry.update(scan or {"zero_slice_max": float(np.max(np.abs(sample.delta.values)))})
        return entry

    slices = parallel_map(one_slice, enumerate(cfg.times), fork=True)
    verdicts = {}
    for idx, entry in enumerate(slices):
        verdicts[f"multiplier_identity_t{idx}"] = _below(entry["multiplier_error"], cfg.multiplier_error_ceiling)
        if "ratio" in entry:
            verdicts[f"spacelike_suppression_t{idx}"] = _below(entry["ratio"], cfg.ratio_ceiling)
        else:
            verdicts[f"zero_slice_t{idx}"] = _below(entry["zero_slice_max"], cfg.zero_slice_ceiling)
    converged = all(entry["converged"] for entry in slices)
    verdicts["quadrature_converged"] = _verdict(converged, converged)
    return _write_report(out, "propagator", cfg, verdicts, margin=cfg.margin, slices=slices)


def _run_report(path: Path) -> int:
    try:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, an over-long integer
        print(_error_json("io", str(exc), "report.path"), file=sys.stderr)
        return EXIT_ERROR
    verdicts = report.get("verdicts") if isinstance(report, dict) else None
    if not (isinstance(verdicts, dict) and verdicts and all(isinstance(v, dict) for v in verdicts.values())):
        message = f"{path} is not a kglab report: need an object with a non-empty verdicts object of objects"
        print(_error_json("report", message, "report.verdicts"), file=sys.stderr)
        return EXIT_ERROR
    print(f"command: {report.get('command', '?')}")
    for key in sorted(report):
        if key in ("verdicts", "slices", "command"):
            continue
        print(f"  {key}: {report[key]}")
    width = max((len(k) for k in verdicts), default=0)
    for name in sorted(verdicts):
        entry = verdicts[name]
        status = "PASS" if entry.get("passed") else "FAIL"
        print(f"  {name.ljust(width)}  {status}  value={entry.get('value')}")
    return EXIT_PASS


_RUNNERS = {
    "evolve": _run_evolve,
    "hegerfeldt": _run_hegerfeldt,
    "propagator": _run_propagator,
}


def _error_json(kind: str, message: str, rule: str) -> str:
    return json.dumps({"error": {"kind": kind, "message": message, "rule": rule}}, sort_keys=True)


class _Parser(argparse.ArgumentParser):
    """Raises on a malformed command line in place of printing usage and exiting."""

    def error(self, message: str):
        raise argparse.ArgumentError(None, message)


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(prog="kglab", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _RUNNERS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, type=Path)
        cmd.add_argument("--out", required=True, type=Path)
    rep = sub.add_parser("report")
    rep.add_argument("path", type=Path)
    try:
        args = parser.parse_args(argv)
    except argparse.ArgumentError as exc:
        print(_error_json("usage", str(exc), "argv"), file=sys.stderr)
        return EXIT_ERROR

    try:
        worker_cap()  # KGLAB_THREADS is checked before any file is read or made
        if args.subcommand == "report":
            return _run_report(args.path)
        cfg = load_config(args.config, args.subcommand)
        args.out.mkdir(parents=True, exist_ok=True)
        return _RUNNERS[args.subcommand](cfg, args.out)
    except PreconditionError as exc:
        print(_error_json("config", exc.message, exc.rule), file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        rule = "report.path" if args.subcommand == "report" else "out"
        print(_error_json("io", str(exc), rule), file=sys.stderr)
        return EXIT_ERROR
    except MemoryError as exc:
        message = f"{exc}: reduce grid.n, or quadrature.cutoff for the propagator"
        print(_error_json("memory", message, "memory"), file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())

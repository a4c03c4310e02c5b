"""Experiment runner.

Subcommands: evolve, hegerfeldt, propagator, report.  Every command is a
pure function of its config file: identical configs produce byte-identical
outputs regardless of KGLAB_THREADS.  Exit status 0 means every verdict
passed, 1 means at least one verdict failed, 2 means the run was refused,
with a JSON error on stderr that always names a rule: kind "usage" (a
malformed command line), "config" (a precondition, at load time or from a
domain check), "io", "memory" (an array too large for this machine) or
"report".  Modules compute every field, kernel, fit and leakage; the CLI
only reduces them to verdicts (energy drifts, ladder maxima, the initial
peak, the zero slice's maximum).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import diagnostics, posfreq, propagator
from .config import ConfigError, EvolveConfig, HegerfeldtConfig, PropagatorConfig, load_config
from .evolution import (
    CauchyData,
    energy,
    evolve_local_fd_ladder,
    evolve_spectral,
    joint_support_radius,
    leapfrog_energy,
)
from .io import field_to_csv, field_to_json, propagator_slice_to_csv, write_csv, write_json
from .runtime import parallel_map
from .spectral import Field, UniformGrid

__all__ = ["main"]

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_ERROR = 2


def _verdict(value, passed: bool) -> dict:
    return {"value": value, "passed": bool(passed)}


def _write_report(out: Path, command: str, cfg, verdicts: dict, **fields) -> int:
    """Write ``report.json``: the command, its grid, mass and verdicts, and
    the command's own ``fields``.  The exit code follows the verdicts."""
    grid = cfg.grid
    report = {
        "command": command,
        "grid": {"n": grid.n, "dx": grid.dx, "L": grid.L},
        "mass": cfg.mass.m,
        "verdicts": verdicts,
        **fields,
    }
    write_json(out / "report.json", report)
    return EXIT_PASS if all(v["passed"] for v in verdicts.values()) else EXIT_FAIL


def _write_field(field, stem: Path, out_format: str) -> None:
    if out_format == "csv":
        field_to_csv(field, stem.with_suffix(".csv"))
    else:
        field_to_json(field, stem.with_suffix(".json"))


def _run_evolve(cfg: EvolveConfig, out: Path) -> int:
    grid = cfg.grid
    data = CauchyData(cfg.state.build_phi(grid), cfg.state.build_pi(grid), cfg.mass)
    r0 = joint_support_radius(data, cfg.support_threshold)
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
            joint_support_radius(state, cfg.support_threshold),
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
            _write_field(state.phi, out / f"snapshot_{cfg.times.index(t):03d}", cfg.out_format)
    write_csv(
        out / "series.csv",
        ["t", "energy", "joint_support_radius", "cone_leakage"],
        [cfg.times, energies, radii, leakages],
    )

    peak = float(np.max(np.abs(data.phi.values)))
    drift = max(drifts)
    verdicts = {
        "cone_leakage": _verdict(max(leakages), max(leakages) < cfg.leakage_ceiling),
        "energy_drift": _verdict(drift, drift < (1e-12 if cfg.method == "spectral-exact" else 1e-6)),
        "boundary_floor": _verdict(max(floors), max(floors) < 1e-10 * peak),
    }
    return _write_report(
        out, "evolve", cfg, verdicts,
        method=cfg.method, times=list(cfg.times), initial_energy=e0, initial_support_radius=r0, cone_margin=margin,
    )


def _hegerfeldt_rows(cfg: HegerfeldtConfig, psi0: Field, r0: float, margin: float):
    zero = CauchyData(psi0, cfg.state.build_pi(psi0.grid), cfg.mass)
    # one forward transform per datum, taken before the map shares them
    psi0.spectrum, zero.pi.spectrum

    def one_time(t: float):
        psi_t = posfreq.evolve_positive(psi0, cfg.mass, t)
        leak = diagnostics.cone_leakage(psi_t, r0, t, margin)
        tail = diagnostics.fit_exponential_tail(psi_t, cfg.window)
        spectral_t = evolve_spectral(zero, t)
        contrast = diagnostics.cone_leakage(spectral_t.phi, r0, t, margin)
        return leak, tail, contrast

    return parallel_map(one_time, cfg.times)


def _run_hegerfeldt(cfg: HegerfeldtConfig, out: Path) -> int:
    grid = cfg.grid
    mass = cfg.mass
    psi0 = cfg.state.build_phi(grid)
    r0 = diagnostics.support_radius(psi0, cfg.support_threshold)
    margin = cfg.cone_margin_cells * grid.dx
    leaks, tails, contrasts = zip(*_hegerfeldt_rows(cfg, psi0, r0, margin))
    write_csv(
        out / "leakage.csv",
        ["t", "leakage_fraction", "fitted_rate", "fit_r2", "window_lo", "window_hi"],
        [
            cfg.times,
            leaks,
            [tail.rate for tail in tails],
            [tail.r2 for tail in tails],
            [tail.window[0] for tail in tails],
            [tail.window[1] for tail in tails],
        ],
    )
    write_csv(
        out / "contrast.csv",
        ["t", "positive_frequency_leakage", "spectral_leakage"],
        [cfg.times, leaks, contrasts],
    )

    witness = posfreq.positivity_tail_witness(psi0, mass)
    witness_report = diagnostics.support_report(
        witness, threshold=cfg.support_threshold, window=cfg.window
    )
    write_json(out / "witness_report.json", witness_report.payload())

    snap_tail = tails[cfg.times.index(cfg.snapshot_time)]
    floor_at = min(cfg.times, key=lambda t: abs(t - 0.01))
    verdicts = {
        "leakage_floor": _verdict(
            leaks[cfg.times.index(floor_at)], leaks[cfg.times.index(floor_at)] > cfg.leakage_floor
        ),
        "leakage_monotone": _verdict(
            leaks, all(a < b for a, b in zip(leaks, leaks[1:]))
        ),
        "spectral_contrast": _verdict(max(contrasts), max(contrasts) < cfg.contrast_ceiling),
        "witness_rate": _verdict(
            witness_report.tail_rate,
            abs(witness_report.tail_rate / mass.m - 1.0) < cfg.rate_band
            and witness_report.fit_r2 > cfg.min_r2,
        ),
        "snapshot_rate": _verdict(
            snap_tail.rate,
            abs(snap_tail.rate / mass.m - 1.0) < cfg.rate_band and snap_tail.r2 > cfg.min_r2,
        ),
    }
    if cfg.grid_doubling_check:
        # same cone edge (base-grid support radius and margin) isolates
        # the resolution dependence, which is what rules out aliasing; the
        # verdict reads only the leakage, so only the leakage is computed
        psi2 = cfg.state.build_phi(UniformGrid(n=2 * grid.n, dx=grid.dx / 2.0))
        psi2.spectrum  # transformed once, before the map shares it

        def leak2(t: float):
            return diagnostics.cone_leakage(posfreq.evolve_positive(psi2, mass, t), r0, t, margin)

        rel = max(abs(b / a - 1.0) for a, b in zip(leaks, parallel_map(leak2, cfg.times)))
        verdicts["grid_doubling_stability"] = _verdict(rel, rel < cfg.doubling_tolerance)
    return _write_report(
        out, "hegerfeldt", cfg, verdicts,
        times=list(cfg.times), support_radius=r0, window=list(cfg.window), snapshot_time=cfg.snapshot_time,
    )


def _run_propagator(cfg: PropagatorConfig, out: Path) -> int:
    grid = cfg.grid

    def one_time(t: float):
        sample = propagator.pauli_jordan(t, grid, cfg.mass, cfg.quadrature)
        bridge = propagator.bridge_identity_error(sample)
        scan = None
        if t != 0.0:
            scan = propagator.spacelike_suppression_scan(sample, cfg.margin, cfg.ratio_ceiling)
        return sample, bridge, scan

    results = parallel_map(one_time, cfg.times)
    verdicts = {}
    slices = []
    for idx, (t, (sample, bridge, scan)) in enumerate(zip(cfg.times, results)):
        propagator_slice_to_csv(sample, out / f"slice_{idx:03d}.csv")
        write_json(
            out / f"slice_{idx:03d}.meta.json",
            {
                "t": t,
                "mass": cfg.mass.m,
                "residual": sample.residual,
                "converged": sample.converged,
                "quadrature": sample.quad.metadata(),
            },
        )
        entry = {
            "t": t,
            "residual": sample.residual,
            "converged": sample.converged,
            "multiplier_error": bridge,
        }
        verdicts[f"multiplier_identity_t{idx}"] = _verdict(
            bridge, bridge < cfg.multiplier_error_ceiling
        )
        if scan is not None:
            entry["spacelike_max"] = scan.spacelike_max
            entry["timelike_max"] = scan.timelike_max
            entry["ratio"] = scan.ratio
            verdicts[f"spacelike_suppression_t{idx}"] = _verdict(scan.ratio, scan.passed)
        else:
            zero_max = float(np.max(np.abs(sample.delta.values)))
            entry["zero_slice_max"] = zero_max
            verdicts[f"zero_slice_t{idx}"] = _verdict(zero_max, zero_max < cfg.zero_slice_ceiling)
        slices.append(entry)
    converged = all(sample.converged for sample, _, _ in results)
    verdicts["quadrature_converged"] = _verdict(converged, converged)
    return _write_report(out, "propagator", cfg, verdicts, margin=cfg.margin, slices=slices)


def _run_report(path: Path) -> int:
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    verdicts = report.get("verdicts", {}) if isinstance(report, dict) else None
    if not isinstance(verdicts, dict) or not all(isinstance(v, dict) for v in verdicts.values()):
        message = f"{path} is not a kglab report: need an object whose verdicts are objects"
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
        if args.subcommand == "report":
            return _run_report(args.path)
        cfg = load_config(args.config, args.subcommand)
        args.out.mkdir(parents=True, exist_ok=True)
        return _RUNNERS[args.subcommand](cfg, args.out)
    except ConfigError as exc:
        print(_error_json("config", exc.message, exc.rule), file=sys.stderr)
        return EXIT_ERROR
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        rule = "report.path" if args.subcommand == "report" else "out"
        print(_error_json("io", str(exc), rule), file=sys.stderr)
        return EXIT_ERROR
    except MemoryError as exc:
        message = f"{exc}: reduce grid.n, or quadrature.cutoff for the propagator"
        print(_error_json("memory", message, "memory"), file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())

"""Experiment runner.

Subcommands: evolve, hegerfeldt, propagator, report.  Every command is a
pure function of its config file: identical configs produce byte-identical
outputs regardless of KGLAB_THREADS.  Exit status 0 means every verdict
passed, 1 means at least one verdict failed, 2 means the run was refused,
with a JSON error on stderr that always names a rule: kind "config" (a
precondition, at load time or from a domain check), "io", "memory" (an
array too large for this machine) or "report".  The CLI computes nothing
itself; every emitted number comes from a module operation.
"""

from __future__ import annotations

import argparse
import dataclasses
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
from .spectral import UniformGrid

__all__ = ["main"]

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_ERROR = 2


def _verdict(value, passed: bool) -> dict:
    return {"value": value, "passed": bool(passed)}


def _write_field(field, stem: Path, out_format: str) -> None:
    if out_format == "csv":
        field_to_csv(field, stem.with_suffix(".csv"))
    else:
        field_to_json(field, stem.with_suffix(".json"))


def _run_evolve(cfg: EvolveConfig, out: Path) -> int:
    grid = cfg.grid
    method, dt = cfg.evolution.method, cfg.evolution.dt
    data = CauchyData(cfg.state.build_phi(grid), cfg.state.build_pi(grid), cfg.mass)
    r0 = joint_support_radius(data, cfg.support_threshold)
    margin = cfg.cone_margin_cells * grid.dx
    e0 = energy(data)
    # the leapfrog reaches every ladder time in one pass; spectral states
    # are evolved per time inside the map
    ladder = None
    if method == "local-fd":
        ladder = evolve_local_fd_ladder(data, cfg.times, cfg.evolution)

    def one_time(i: int):
        t = cfg.times[i]
        state = evolve_spectral(data, t) if ladder is None else ladder[i]
        return (
            state,
            energy(state),
            joint_support_radius(state, cfg.support_threshold),
            diagnostics.cone_leakage(state.phi, r0, t, margin),
            diagnostics.boundary_floor(state.phi),
        )

    states, energies, radii, leakages, floors = zip(*parallel_map(one_time, range(len(cfg.times))))
    if method == "spectral-exact":
        drifts = [abs(e_t - e0) / e0 if e0 > 0 else 0.0 for e_t in energies]
    else:
        # the leapfrog scheme conserves its own quadratic form, not the
        # continuum energy
        q0 = leapfrog_energy(data, dt)
        drifts = [abs(leapfrog_energy(state, dt) - q0) / q0 if q0 > 0 else 0.0 for state in states]
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
        "energy_drift": _verdict(drift, drift < (1e-12 if method == "spectral-exact" else 1e-6)),
        "boundary_floor": _verdict(max(floors), max(floors) < 1e-10 * peak),
    }
    report = {
        "command": "evolve",
        "grid": {"n": grid.n, "dx": grid.dx, "L": grid.L},
        "mass": cfg.mass.m,
        "method": method,
        "times": list(cfg.times),
        "initial_energy": e0,
        "initial_support_radius": r0,
        "cone_margin": margin,
        "verdicts": verdicts,
    }
    write_json(out / "report.json", report)
    return EXIT_PASS if all(v["passed"] for v in verdicts.values()) else EXIT_FAIL


def _hegerfeldt_rows(cfg: HegerfeldtConfig, grid: UniformGrid, r0: float, margin: float):
    psi0 = cfg.state.build_phi(grid)
    zero = CauchyData(psi0, cfg.state.build_pi(grid), cfg.mass)

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
    rows = _hegerfeldt_rows(cfg, cfg.grid, r0, margin)

    leaks, tails, contrasts = zip(*rows)
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
    (out / "witness_report.json").write_text(witness_report.to_json())

    snap_tail = tails[cfg.times.index(cfg.snapshot_time)]

    doubling = None
    if cfg.grid_doubling_check:
        # same cone edge (base-grid support radius and margin) isolates
        # the resolution dependence, which is what rules out aliasing
        doubled = UniformGrid(n=2 * grid.n, dx=grid.dx / 2.0)
        rows2 = _hegerfeldt_rows(cfg, doubled, r0, margin)
        rel = max(abs(b[0] / a[0] - 1.0) for a, b in zip(rows, rows2))
        doubling = _verdict(rel, rel < cfg.doubling_tolerance)

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
    if doubling is not None:
        verdicts["grid_doubling_stability"] = doubling

    report = {
        "command": "hegerfeldt",
        "grid": {"n": grid.n, "dx": grid.dx, "L": grid.L},
        "mass": mass.m,
        "times": list(cfg.times),
        "support_radius": r0,
        "window": list(cfg.window),
        "snapshot_time": cfg.snapshot_time,
        "verdicts": verdicts,
    }
    write_json(out / "report.json", report)
    return EXIT_PASS if all(v["passed"] for v in verdicts.values()) else EXIT_FAIL


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
    all_converged = True
    for idx, (t, (sample, bridge, scan)) in enumerate(zip(cfg.times, results)):
        propagator_slice_to_csv(sample, out / f"slice_{idx:03d}.csv")
        write_json(
            out / f"slice_{idx:03d}.meta.json",
            {
                "t": t,
                "mass": cfg.mass.m,
                "residual": sample.residual,
                "converged": sample.converged,
                "flags": list(sample.flags),
                "quadrature": sample.quad.metadata(),
            },
        )
        entry = {
            "t": t,
            "residual": sample.residual,
            "converged": sample.converged,
            "multiplier_error": bridge,
        }
        all_converged = all_converged and sample.converged
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
    verdicts["quadrature_converged"] = _verdict(all_converged, all_converged)

    report = {
        "command": "propagator",
        "grid": {"n": grid.n, "dx": grid.dx, "L": grid.L},
        "mass": cfg.mass.m,
        "margin": cfg.margin,
        "slices": slices,
        "verdicts": verdicts,
    }
    write_json(out / "report.json", report)
    if not all_converged:
        return EXIT_FAIL
    return EXIT_PASS if all(v["passed"] for v in verdicts.values()) else EXIT_FAIL


def _run_report(path: Path) -> int:
    with open(path) as fh:
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="kglab", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _RUNNERS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, type=Path)
        cmd.add_argument("--out", required=True, type=Path)
        cmd.add_argument("--format", choices=("csv", "json"), default=None)
    rep = sub.add_parser("report")
    rep.add_argument("path", type=Path)
    args = parser.parse_args(argv)

    try:
        if args.subcommand == "report":
            return _run_report(args.path)
        cfg = load_config(args.config, args.subcommand)
        if args.format is not None:
            cfg = dataclasses.replace(cfg, out_format=args.format)
        args.out.mkdir(parents=True, exist_ok=True)
        return _RUNNERS[args.subcommand](cfg, args.out)
    except ConfigError as exc:
        print(_error_json("config", exc.message, exc.rule), file=sys.stderr)
        return EXIT_ERROR
    except (OSError, json.JSONDecodeError) as exc:
        rule = "report.path" if args.subcommand == "report" else "out"
        print(_error_json("io", str(exc), rule), file=sys.stderr)
        return EXIT_ERROR
    except MemoryError as exc:
        message = f"{exc}: reduce grid.n, or quadrature.cutoff for the propagator"
        print(_error_json("memory", message, "memory"), file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())

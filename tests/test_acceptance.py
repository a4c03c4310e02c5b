"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line with the measured values at the stated tolerances."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from kglab.diagnostics import cone_leakage, fit_exponential_tail, support_radius
from kglab.dispersion import Mass
from kglab.evolution import CauchyData, energy, evolve_spectral, leapfrog_energy, local_fd_steps
from kglab.posfreq import evolve_positive
from kglab.propagator import QuadratureSpec, bridge_identity_error, delta_plus, pauli_jordan, spacelike_suppression_scan
from kglab.spectral import Field, UniformGrid, make_bump

import oracles

REPO = Path(__file__).resolve().parent.parent


def report(criterion: str, checks: dict):
    passed = all(checks.values())
    detail = ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in checks.items())
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{criterion}: {detail}"


def test_criterion_1_causal_cone():
    start = time.perf_counter()
    grid = UniformGrid(4096, 1 / 64)
    data = CauchyData(make_bump(grid, 0.0, 1.0, 1.0), Field(grid, np.zeros(grid.n)), Mass(1.0))
    r0 = support_radius(data.phi, data.pi, threshold=1e-12)
    margin = 5 * grid.dx
    leaks = {
        t: cone_leakage(evolve_spectral(data, t).phi, r0, t, margin) for t in (1.0, 2.0, 4.0)
    }
    elapsed = time.perf_counter() - start
    checks = {f"leakage(t={t})<1e-8 [{v:.2e}]": v < 1e-8 for t, v in leaks.items()}
    checks[f"runtime<10s [{elapsed:.2f}s]"] = elapsed < 10.0
    report("1 causal cone", checks)


def test_criterion_2_exact_discrete_causality():
    # at n = 2^15 the bound [lo - k, hi + k] stays inside the grid for all
    # 1e4 steps (lo - k >= 6321, hi + k <= 26447), so every step is checked
    start = time.perf_counter()
    grid = UniformGrid(32768, 1 / 64)
    data = CauchyData(
        make_bump(grid, 0.0, 1.0, 1.0), make_bump(grid, 0.0, 1.0, 0.5), Mass(1.0)
    )
    n_steps, dt = 10_000, grid.dx / 2
    nz0 = np.flatnonzero(np.abs(data.phi.values) + np.abs(data.pi.values))
    lo, hi = nz0[0], nz0[-1]
    reference = oracles.leapfrog_steps(data.phi.values.real, data.pi.values.real, grid.dx, 1.0, dt, n_steps)
    violations = mismatches = checked = 0
    for (k, phi, pi), (_, ref_phi, ref_pi) in zip(local_fd_steps(data, dt, n_steps), reference):
        nz = np.flatnonzero((ref_phi != 0) | (ref_pi != 0))
        if nz.size == 0 or nz[0] < lo - k or nz[-1] > hi + k:
            violations += 1
        if phi.tobytes() != ref_phi.tobytes() or pi.tobytes() != ref_pi.tobytes():
            mismatches += 1
        checked = k
    elapsed = time.perf_counter() - start
    report(
        "2 exact discrete causality",
        {
            f"bound inside the grid for all steps [{lo - n_steps}, {hi + n_steps}]": lo - n_steps >= 0
            and hi + n_steps < grid.n,
            f"support growth <= 1 cell/step/side over 1e4 steps [{checked} checked]": violations == 0
            and checked == n_steps,
            f"windowed stepper bit-equal to full-grid reference [{mismatches} mismatches]": mismatches == 0,
            f"runtime<30s [{elapsed:.1f}s]": elapsed < 30.0,
        },
    )


def test_criterion_3_energy_conservation():
    grid = UniformGrid(4096, 1 / 64)
    data = CauchyData(make_bump(grid, 0.0, 1.0, 1.0), Field(grid, np.zeros(grid.n)), Mass(1.0))
    e0 = energy(data)
    spectral_drift = max(
        abs(energy(evolve_spectral(data, t)) / e0 - 1.0) for t in (1.0, 2.0, 4.0)
    )
    dt = grid.dx / 2
    q0 = leapfrog_energy(data, dt)
    worst = 0.0
    for k, phi, pi in local_fd_steps(data, dt, 10_000):
        if k % 500 == 0:
            state = CauchyData(Field(grid, phi), Field(grid, pi), data.m)
            worst = max(worst, abs(leapfrog_energy(state, dt) / q0 - 1.0))
    report(
        "3 energy conservation",
        {
            f"spectral drift<1e-12 [{spectral_drift:.2e}]": spectral_drift < 1e-12,
            f"leapfrog drift<1e-6 over 1e4 steps [{worst:.2e}]": worst < 1e-6,
        },
    )


def test_criterion_4_propagator_support():
    grid = UniformGrid(4096, 1 / 256)
    m1 = Mass(1.0)
    zero_max = float(np.max(np.abs(pauli_jordan(0.0, grid, m1).delta.values)))
    checks = {f"max|D(0,.)|<1e-10 [{zero_max:.2e}]": zero_max < 1e-10}
    for t, m in [(1.0, 1.0), (2.0, 1.0), (1.0, 2.0)]:
        sample = pauli_jordan(t, grid, Mass(m))
        scan = spacelike_suppression_scan(sample, 0.2)
        checks[f"ratio(t={t},m={m})<1e-4 [{scan['ratio']:.2e}]"] = scan["ratio"] < 1e-4 and sample.converged
    sample = pauli_jordan(1.0, grid, m1)
    plus_t, _ = delta_plus(1.0, grid, m1)
    plus_back, _ = delta_plus(-1.0, grid, m1)
    manual = plus_t.values - np.roll(plus_back.values[::-1], 1)
    identity = float(np.max(np.abs(sample.delta.values - manual)))
    mirrored = np.roll(pauli_jordan(-1.0, grid, m1).delta.values[::-1], 1)
    antisym = float(np.max(np.abs(mirrored + sample.delta.values)))
    checks[f"odd-part identity<1e-10 [{identity:.2e}]"] = identity < 1e-10
    checks[f"antisymmetry<1e-10 [{antisym:.2e}]"] = antisym < 1e-10
    report("4 propagator support", checks)


def test_criterion_5_bridge_identity():
    checks = {}
    for n, dx in [(4096, 1 / 256), (16384, 1 / 1024)]:
        grid = UniformGrid(n, dx)
        err = bridge_identity_error(pauli_jordan(1.0, grid, Mass(1.0)))
        checks[f"multiplier err(dx=1/{round(1/dx)})<1e-3 [{err:.2e}]"] = err < 1e-3

    def rel_l2(a, b):
        return float(np.linalg.norm(a - b) / np.linalg.norm(b))

    g = UniformGrid(4096, 1 / 64)
    zero = Field(g, np.zeros(g.n))
    states = {
        "pi-bump m=1 t=1.5": (
            CauchyData(zero, make_bump(g, 0.0, 1.0, 1.0), Mass(1.0)),
            1.5,
        ),
        "mixed m=1 t=2": (
            CauchyData(make_bump(g, 0.0, 1.0, 1.0), make_bump(g, 0.5, 1.0, 0.5), Mass(1.0)),
            2.0,
        ),
        "mixed m=2 t=1": (
            CauchyData(make_bump(g, -1.0, 1.0, 1.0), make_bump(g, 1.0, 1.5, -0.7), Mass(2.0)),
            1.0,
        ),
    }
    for name, (data, t) in states.items():
        err = rel_l2(
            oracles.cauchy_via_propagator(data, t).values, evolve_spectral(data, t).phi.values
        )
        checks[f"cauchy-vs-spectral {name}<1e-3 [{err:.2e}]"] = err < 1e-3
    report("5 bridge identity", checks)


def test_criterion_6_hegerfeldt_leakage():
    base = UniformGrid(8192, 1 / 128)
    doubled = UniformGrid(16384, 1 / 256)
    m = Mass(1.0)
    psi_base = make_bump(base, 0.0, 1.0, 1.0)
    psi_fine = make_bump(doubled, 0.0, 1.0, 1.0)
    r0 = support_radius(psi_base, threshold=1e-12)
    margin = 5 * base.dx
    ladder = (1e-3, 1e-2, 1e-1)
    leaks = [cone_leakage(evolve_positive(psi_base, m, t), r0, t, margin) for t in ladder]
    fine = [cone_leakage(evolve_positive(psi_fine, m, t), r0, t, margin) for t in ladder]
    stability = max(abs(b / a - 1.0) for a, b in zip(leaks, fine))
    data = CauchyData(psi_base, Field(base, np.zeros(base.n)), m)
    contrast = max(
        cone_leakage(evolve_spectral(data, t).phi, r0, t, margin) for t in ladder
    )
    report(
        "6 hegerfeldt leakage",
        {
            f"leak(t=0.01)>1e-10 [{leaks[1]:.2e}]": leaks[1] > 1e-10,
            "monotone growth": leaks[0] < leaks[1] < leaks[2],
            f"grid-doubling stable [{stability:.2e}]": stability < 0.05,
            f"spectral contrast<1e-8 [{contrast:.2e}]": contrast < 1e-8,
        },
    )


def test_criterion_7_compton_tails():
    from kglab.posfreq import positivity_tail_witness

    grid = UniformGrid(8192, 1 / 128)
    bump = make_bump(grid, 0.0, 1.0, 1.0)
    windows = {1.0: (9.0, 16.0), 2.0: (4.0, 9.0)}
    checks = {}
    rates = {}
    for m, window in windows.items():
        witness_fit = fit_exponential_tail(positivity_tail_witness(bump, Mass(m)), window)
        snap_t = 0.1 / m
        snap_fit = fit_exponential_tail(evolve_positive(bump, Mass(m), snap_t), window)
        for label, fit in [("witness", witness_fit), ("snapshot", snap_fit)]:
            dev = abs(fit.rate / m - 1.0)
            checks[f"{label} m={m}: |rate/m-1|<0.15 [{dev:.3f}]"] = dev < 0.15
            checks[f"{label} m={m}: r2>0.99 [{fit.r2:.4f}]"] = fit.r2 > 0.99
        rates[m] = witness_fit.rate
    ratio = rates[2.0] / rates[1.0]
    checks[f"rate doubling in [1.8,2.2] [{ratio:.3f}]"] = 1.8 <= ratio <= 2.2
    report("7 compton tails", checks)


def test_criterion_8_paley_wiener_probe():
    grid = UniformGrid(4096, 1 / 64)
    checks = {}
    for center, radius in [(0.0, 1.0), (0.0, 2.0)]:
        b = make_bump(grid, center, radius, 1.0)
        qs = np.linspace(1.0, 6.0, 11)
        tops = [np.max(oracles.complex_momentum_transform(b, q)) for q in qs]
        slope = float(np.polyfit(qs, tops, 1)[0])
        support = abs(center) + radius
        checks[f"slope(R={support})<=1.05R [{slope:.3f}]"] = slope <= 1.05 * support
    tops = {}
    for n, L in [(2048, 64.0), (4096, 128.0)]:
        g = UniformGrid(n, L / n)
        f = Field(g, np.exp(-np.abs(g.x)))
        tops[L] = {q: float(np.max(oracles.complex_momentum_transform(f, q))) for q in (0.5, 1.5)}
    grow_above = tops[128.0][1.5] - tops[64.0][1.5]
    grow_below = abs(tops[128.0][0.5] - tops[64.0][0.5])
    checks[f"q=1.5>m diverges with L [{grow_above:.1f} nats]"] = grow_above > 10.0
    checks[f"q=0.5<m stays bounded [{grow_below:.2e}]"] = grow_below < 0.01
    report("8 paley-wiener probe", checks)


def test_criterion_9_cli_determinism(tmp_path):
    def run(cmd, cfg, out, threads=None):
        env = dict(os.environ)
        env.pop("KGLAB_THREADS", None)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
        if threads is not None:
            env["KGLAB_THREADS"] = threads
        res = subprocess.run(
            [sys.executable, "-m", "kglab.cli", cmd, "--config", str(cfg), "--out", str(out)],
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO,
        )
        assert res.returncode == 0, res.stderr
        return {
            p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()
        }

    checks = {}
    jobs = [
        ("evolve", REPO / "configs" / "causal_default.json"),
        ("hegerfeldt", REPO / "configs" / "hegerfeldt_default.json"),
        ("propagator", REPO / "configs" / "propagator_default.json"),
    ]
    for cmd, cfg in jobs:
        first = run(cmd, cfg, tmp_path / f"{cmd}_1")
        second = run(cmd, cfg, tmp_path / f"{cmd}_2")
        threaded = run(cmd, cfg, tmp_path / f"{cmd}_t4", threads="4")
        serial = run(cmd, cfg, tmp_path / f"{cmd}_t1", threads="1")
        checks[f"{cmd}: rerun byte-identical"] = first == second
        checks[f"{cmd}: KGLAB_THREADS invariant"] = threaded == serial == first
    report("9 cli determinism", checks)

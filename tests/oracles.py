"""Independent oracles for the test suite.

Everything here avoids the package's FFT path: plain quadrature
(Gauss-Legendre panels, scipy adaptive rules), closed forms and a plain
full-grid leapfrog only, so agreement with production is a genuine
dual-route check.  The reference writers at the end format one cell at a
time through ``csv.writer`` and ``json.dump``, the forms whose bytes the
column-at-once writers of ``kglab.io`` must reproduce.
"""

from __future__ import annotations

import csv
import json

import numpy as np
from scipy.integrate import quad

GL200 = np.polynomial.legendre.leggauss(200)


def bump_profile(x, radius=1.0, center=0.0, amplitude=1.0):
    """Closed-form bump, vectorized, exactly zero outside the support."""
    u = (np.asarray(x, dtype=float) - center) / radius
    w = 1.0 - u * u
    safe = np.where(w > 0, w, 1.0)
    return np.where(w > 0, amplitude * np.exp(1.0 - 1.0 / safe), 0.0)


def bump_derivative(x, radius=1.0, center=0.0, amplitude=1.0):
    u = (np.asarray(x, dtype=float) - center) / radius
    w = 1.0 - u * u
    safe = np.where(w > 0, w, 1.0)
    prof = np.where(w > 0, amplitude * np.exp(1.0 - 1.0 / safe), 0.0)
    return prof * (-2.0 * u / safe**2) / radius


def bump_energy_quad() -> float:
    """E = 1/2 Int(b'^2 + m^2 b^2), m = 1, by adaptive quadrature."""
    d2 = quad(lambda x: bump_derivative(x) ** 2, -1, 1, epsabs=1e-15, limit=200)[0]
    b2 = quad(lambda x: bump_profile(x) ** 2, -1, 1, epsabs=1e-15, limit=200)[0]
    return 0.5 * (d2 + b2)


def weighted_bump_log_l1(q: float) -> float:
    """log Int b(x) exp(q x) dx; by positivity this is max_p log|b-hat(p + iq)|."""
    val = quad(lambda x: bump_profile(x) * np.exp(q * x), -1, 1, epsabs=1e-15, epsrel=1e-13, limit=200)[0]
    return float(np.log(val))


def windowed_exponential_log_transform(q: float, L: float, m: float = 1.0) -> float:
    """log of Int_{-L/2}^{L/2} exp(-m|x|) exp(q x) dx at p = 0, closed form."""
    v1 = (1.0 - np.exp(-(m - q) * L / 2.0)) / (m - q)
    v2 = (1.0 - np.exp(-(m + q) * L / 2.0)) / (m + q)
    return float(np.log(v1 + v2))


# --- branch-cut representation of square-root-multiplier tails ----------
#
# For x outside the support of the bump, deforming the momentum integral
# around the branch cut of sqrt(p^2 + m^2) at p = i s, s >= m, gives the
# non-oscillatory representation
#
#   (omega b)(x)        = -(1/pi) Int_m^inf  kappa          bhat(is) e^{-s x} ds
#   (e^{-i omega t} b)(x) tail magnitude
#                       =  (1/pi) Int_m^inf  sinh(kappa t)  bhat(is) e^{-s x} ds
#
# with kappa = sqrt(s^2 - m^2) and bhat(is) = Int b(u) e^{s u} du.  The
# integrand is positive and decays like e^{-s(x - 1)}, so plain
# Gauss-Legendre after s = m + v^2 (which removes the sqrt edge) converges
# geometrically.  No Fourier transform is involved anywhere.

_U, _WU = GL200
_UN = 0.5 * (_U + 1.0)
_BUW = 0.5 * _WU * bump_profile(_UN)


def _cut_values(xs, m: float, weight, nodes: int = 400):
    vg, wg = np.polynomial.legendre.leggauss(nodes)
    out = np.empty(len(xs))
    for i, x in enumerate(xs):
        vmax = np.sqrt(80.0 / max(x - 1.0, 0.5))
        v = 0.5 * vmax * (vg + 1.0)
        wv = 0.5 * vmax * wg
        s = m + v * v
        kappa = np.sqrt(s * s - m * m)
        inner = (np.exp(np.outer(s, _UN - x)) + np.exp(-np.outer(s, _UN + x))) @ _BUW
        out[i] = np.sum(wv * 2.0 * v * weight(kappa) * inner) / np.pi
    return out


def omega_bump_tail(xs, m: float):
    """|omega b|(x) for x > 1, radius-1 unit bump, by the cut integral."""
    return np.abs(_cut_values(np.asarray(xs, dtype=float), m, lambda k: k))


def evolved_bump_tail(xs, m: float, t: float):
    """|exp(-i omega t) b|(x) outside the cone, by the cut integral."""
    return np.abs(_cut_values(np.asarray(xs, dtype=float), m, lambda k: np.sinh(k * t)))


def leapfrog_steps(phi, pi, dx: float, m: float, dt: float, n_steps: int):
    """Reference drift-kick-drift leapfrog: every cell, every step, np.roll.

    Runs in the dtype of the inputs and yields (step, phi, pi) as live
    buffers.  The Laplacian is scaled by 1/dx^2 rather than divided by
    dx^2 because that is how complex128 division by a real scalar rounds,
    so real inputs reproduce the complex128 scheme bit for bit.
    """
    phi = np.array(phi)
    pi = np.array(pi)
    msq = m**2
    half = 0.5 * dt
    scale = 1.0 / (dx * dx)
    for k in range(1, n_steps + 1):
        phi += half * pi
        lap = (np.roll(phi, -1) - 2.0 * phi + np.roll(phi, 1)) * scale
        pi -= dt * (msq * phi - lap)
        phi += half * pi
        yield k, phi, pi


def log_linear_rate(radii, values):
    """Least-squares rate and r^2 of log(values) against radii."""
    logm = np.log(np.asarray(values, dtype=float))
    slope, intercept = np.polyfit(radii, logm, 1)
    fitted = slope * np.asarray(radii) + intercept
    ss_res = float(np.sum((logm - fitted) ** 2))
    ss_tot = float(np.sum((logm - np.mean(logm)) ** 2))
    return -float(slope), 1.0 - ss_res / ss_tot


def delta_plus_quad(t: float, x: float, m: float, cutoff: float, eps0: float, panels: int = 4096):
    """Adaptive-quadrature kernel value with 3-rung eps extrapolation.

    Slow; used to regenerate the committed golden value.
    """

    def damped(eps, kind):
        w = lambda p: np.hypot(p, m)
        fn = {
            "re": lambda p: np.cos(p * x) * np.sin(w(p) * t) / w(p) * np.exp(-eps * p * p),
            "im": lambda p: np.cos(p * x) * np.cos(w(p) * t) / w(p) * np.exp(-eps * p * p),
        }[kind]
        edges = np.linspace(0.0, cutoff, panels + 1)
        total = 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            total += quad(fn, a, b, epsabs=1e-14, epsrel=1e-12, limit=200)[0]
        return total / (2.0 * np.pi)

    parts = {}
    for kind in ("re", "im"):
        vals = [damped(eps0 / 2**r, kind) for r in range(3)]
        first = [2.0 * vals[i + 1] - vals[i] for i in range(2)]
        parts[kind] = (4.0 * first[1] - first[0]) / 3.0
    return complex(parts["re"], parts["im"])


# --- reference writers: one cell at a time, bytes fixed by the stdlib ---


def reference_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(cell)) for cell in row])


def reference_field_csv(f, path) -> None:
    reference_csv(path, ["x", "re", "im"], zip(f.grid.x, f.values.real, f.values.imag))


def reference_field_json(f, path) -> None:
    payload = {
        "schema": "kglab.field/1",
        "grid": {"n": f.grid.n, "dx": f.grid.dx, "L": f.grid.L},
        "re": [float(v) for v in f.values.real],
        "im": [float(v) for v in f.values.imag],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def reference_slice_csv(sample, path) -> None:
    delta = sample.delta.values
    plus = np.zeros(sample.grid.n, dtype=complex) if sample.delta_plus is None else sample.delta_plus.values
    reference_csv(
        path,
        ["x", "re_delta", "im_delta", "re_delta_plus", "im_delta_plus"],
        zip(sample.grid.x, delta.real, delta.imag, plus.real, plus.imag),
    )

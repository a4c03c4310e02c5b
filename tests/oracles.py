"""Independent oracles for the test suite.

Everything here avoids the package's FFT path: plain quadrature
(Gauss-Legendre panels, scipy adaptive rules), closed forms and a plain
full-grid leapfrog only, so agreement with production is a genuine
dual-route check.  Some sections are exceptions on purpose:

* the transform-every-call references apply the package's own transform
  pair afresh on every call, the form whose bits the cached
  ``Field.spectrum`` must reproduce;
* the frequency split of (Phi, Pi) into positive and negative branches
  checks the mode algebra against ``evolve_spectral``;
* the former multiplier form is the package's own earlier tail witness,
  whose bits the single ``inverse_transform(field, coefficients)`` path
  must reproduce;
* the masked cone leakage is the package's own former ``cone_leakage``,
  whose bits the sum over two runs of the sorted ``x`` must reproduce;
* the full-lattice kernel synthesis is the package's own former form of
  the propagator quadrature, whose bits the half-lattice row-sum fold must
  reproduce;
* the full-grid leapfrog form is the package's own former
  ``leapfrog_energy``, which the sum over the joint support's span must
  match to rounding;
* the reference tail fit is the package's own former
  ``fit_exponential_tail``, one ``np.polyfit`` line per side, which the
  closed-form sums must match to rounding;
* the two probes that no command runs, ``cauchy_via_propagator`` and
  ``complex_momentum_transform``, use the package's kernels and FFT path:
  they carry acceptance criteria 5 and 8, not a second route;
* the reference writers at the end format one cell at a time through
  ``csv.writer`` and ``json.dump``, the forms whose bytes the
  column-at-once writers of ``kglab.io`` must reproduce.
"""

from __future__ import annotations

import csv
import json

import numpy as np
from scipy.integrate import quad

from kglab.dispersion import omega
from kglab.evolution import CauchyData
from kglab.propagator import QuadratureSpec, RESIDUAL_COLLAR_CELLS, _extrapolate, _off_cone, pauli_jordan
from kglab.spectral import Field, PreconditionError, forward_transform, inverse_transform

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


def polyfit_line(radii, logmags):
    """Slope, intercept and r^2 = 1 - ss_res / ss_tot of the ``np.polyfit``
    line through (radii, logmags); r^2 is 1 when both sums are 0."""
    slope, intercept = np.polyfit(radii, logmags, 1)
    fitted = slope * np.asarray(radii) + intercept
    ss_res = float(np.sum((logmags - fitted) ** 2))
    ss_tot = float(np.sum((logmags - np.mean(logmags)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 and ss_res == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


def log_linear_rate(radii, values):
    """Least-squares rate and r^2 of log(values) against radii."""
    slope, _, r2 = polyfit_line(radii, np.log(np.asarray(values, dtype=float)))
    return -slope, r2


def reference_tail_fit(f, window):
    """(rate, intercept, r2, rate_right, rate_left) of the tail fit by
    ``np.polyfit``: the line through the mean log-magnitude of the two
    sides over the window's radii, and each side's own rate."""
    grid = f.grid
    right = np.flatnonzero((grid.x >= window[0]) & (grid.x <= window[1]))
    left = (grid.n - right) % grid.n
    radii = grid.x[right]
    log_r, log_l = np.log(np.abs(f.values[right])), np.log(np.abs(f.values[left]))
    slope, intercept, r2 = polyfit_line(radii, 0.5 * (log_r + log_l))
    return -slope, intercept, r2, -polyfit_line(radii, log_r)[0], -polyfit_line(radii, log_l)[0]


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


# --- transform-every-call references: no cached spectrum anywhere ---


def _with_multiplier(f, mult):
    return inverse_transform(f, forward_transform(f) * mult)


def evolve_spectral_uncached(data, t: float):
    """evolve_spectral with both data transformed afresh."""
    if t == 0.0:
        return data
    grid = data.grid
    w = omega(grid.p, data.m)
    c = np.cos(w * t)
    s_over_w = t * np.sinc(w * t / np.pi)
    w_s = w * np.sin(w * t)
    F = forward_transform(data.phi)
    P = forward_transform(data.pi)
    phi_t = inverse_transform(data.phi, c * F + s_over_w * P)
    pi_t = inverse_transform(data.pi, -w_s * F + c * P)
    return CauchyData(phi_t, pi_t, data.m)


def evolve_positive_uncached(psi, m, t: float):
    """exp(-i omega t) psi with psi transformed afresh."""
    return _with_multiplier(psi, np.exp(-1j * omega(psi.grid.p, m) * t))


def apply_omega_power_uncached(f, m, s: float):
    """omega**s f (m > 0) with f transformed afresh."""
    return _with_multiplier(f, omega(f.grid.p, m) ** s)


# --- frequency split: psi_pm = (Phi_k +- i Pi_k / w) / 2, m > 0 ---


def project_positive(data):
    """(psi_plus, psi_minus) of one Cauchy datum; psi_plus + psi_minus = Phi
    and -i w (psi_plus - psi_minus) = Pi mode by mode."""
    grid = data.grid
    w = omega(grid.p, data.m)
    F = forward_transform(data.phi)
    P = forward_transform(data.pi)
    plus = inverse_transform(data.phi, 0.5 * (F + 1j * P / w))
    minus = inverse_transform(data.phi, 0.5 * (F - 1j * P / w))
    return plus, minus


def recombine(psi_plus, psi_minus, m, t: float):
    """Evolve the branches by exp(-+i w t) and reassemble (Phi, Pi) at t."""
    grid = psi_plus.grid
    w = omega(grid.p, m)
    plus = forward_transform(psi_plus) * np.exp(-1j * w * t)
    minus = forward_transform(psi_minus) * np.exp(1j * w * t)
    phi = inverse_transform(psi_plus, plus + minus)
    pi = inverse_transform(psi_plus, -1j * w * (plus - minus))
    return CauchyData(phi, pi, m)


# --- the package's own former multiplier form, before the one inverse path ---


def former_tail_witness(phi, m):
    """``positivity_tail_witness`` as the package once computed it: the
    multiplier omega alone, one inverse transform, then -1j on the samples."""
    scaled = forward_transform(phi) * omega(phi.grid.p, m)
    return Field(phi.grid, -1j * inverse_transform(phi, scaled).values)


def masked_cone_leakage(f, R0: float, t: float, margin: float) -> float:
    """``diagnostics.cone_leakage`` as the package once computed it: the
    squared magnitudes, scaled as there, summed through the x-mask |x| > edge."""
    edge = R0 + abs(t) + margin
    dens = np.abs(f.values)
    np.ldexp(dens, 1 - np.frexp(np.max(dens))[1], out=dens)
    dens *= dens
    return float(np.sum(dens[np.abs(f.grid.x) > edge]) / float(np.sum(dens)))


# --- the package's own former kernel synthesis: full lattice, np.bincount fold ---


def full_lattice_kernel(grid, m, res, t: float, multiplier):
    """``propagator._damped_kernel`` as the package once computed it: the
    integrand on every node q = -q_max .. q_max, folded onto the n bins with
    ``np.mod`` and two ``np.bincount`` calls, one inverse FFT per rung."""
    dp = 2.0 * np.pi / grid.L
    q_max = int(np.ceil(res.cutoff / dp))
    q = np.arange(-q_max, q_max + 1)
    p = q * dp
    base = multiplier(omega(p, m))
    bins = np.mod(q, grid.n)
    sign = np.where(np.arange(grid.n) % 2 == 0, 1.0, -1.0)  # exp(i p_q x_0) of bin q mod n
    levels = []
    for eps in res.eps_ladder:
        g = np.exp(-eps * p * p) * base
        G = np.bincount(bins, weights=g.real, minlength=grid.n) + 1j * np.bincount(
            bins, weights=g.imag, minlength=grid.n
        )
        levels.append((dp / (2.0 * np.pi)) * np.fft.ifft(sign * G) * grid.n)
    return _extrapolate(levels, _off_cone(grid, t, RESIDUAL_COLLAR_CELLS))


# --- the package's own former leapfrog form: every cell, BLAS dot products ---


def full_grid_leapfrog_energy(data, dt: float) -> float:
    """``leapfrog_energy`` as the package once computed it: the periodic
    stencil on all n cells by one ``np.concatenate`` each, and three
    ``np.vdot`` sums over all n cells."""
    dx, msq = data.grid.dx, data.m.m**2
    phi, pi = data.phi.values, data.pi.values

    def stencil(values):
        ext = np.concatenate((values[-1:], values, values[:1]))
        mid = ext[1:-1]
        return msq * mid - ((ext[2:] - 2.0 * mid) + ext[:-2]) * (1.0 / (dx * dx))

    q = np.vdot(pi, pi).real - 0.25 * dt * dt * np.vdot(pi, stencil(pi)).real + np.vdot(phi, stencil(phi)).real
    return float(0.5 * dx * q)


# --- probes of the package reached by no command ---


def cauchy_via_propagator(data, t: float, spec: QuadratureSpec = QuadratureSpec()) -> Field:
    """Solve the initial-value problem through the commutator kernel,

        Phi(t, .) = dD/dt(t, .) * Phi0 + D(t, .) * Pi0,

    with * the periodic grid convolution dx * sum, which the dx-weighted
    transform pair turns into a product: Phi(t)^ = cos(w t) Phi0^ + D^ Pi0^,
    with D^ = forward_transform(D) as in ``bridge_identity_error``.
    The dD/dt term is applied as the band multiplier cos(w t) (its kernel
    is a propagating delta pair that no grid sampling can represent).
    """
    grid = data.grid
    sample = pauli_jordan(t, grid, data.m, spec)
    if not sample.converged:
        raise PreconditionError(
            "quadrature.converged",
            f"propagator quadrature did not converge: residual {sample.residual} "
            f"exceeds {sample.quad.residual_tol}"
        )
    w = omega(grid.p, data.m)
    D = forward_transform(sample.delta)
    return inverse_transform(data.phi, np.cos(w * t) * data.phi.spectrum + D * data.pi.spectrum)


# log-domain guard for the exponentially weighted transform
_MAX_LOG_WEIGHT = 700.0


def complex_momentum_transform(f, q: float) -> np.ndarray:
    """log |F(p_k + i q)| for every grid momentum, evaluated overflow-safely.

    Shifting the momentum by i q weights the samples by exp(q x); the
    weight is accumulated in the log domain (a common factor exp(M) is
    split off) so the probe works up to |q| L/2 = 700.  For a field
    supported in |x| <= R the growth bound

        max_k log |F(p_k + i q)|  <=  log C + R |q|

    holds, which is what makes the probe a compact-support detector:
    slow growth in q certifies analyticity of exponential type R, while
    fields with tails exp(-m |x|) blow up as soon as |q| > m.
    """
    g = f.grid
    if abs(q) * g.L / 2.0 > _MAX_LOG_WEIGHT:
        raise PreconditionError(
            "weight-overflow", f"|q| L/2 = {abs(q) * g.L / 2.0} exceeds {_MAX_LOG_WEIGHT} for q = {q}"
        )
    mags = np.abs(f.values)
    nz = mags > 0.0
    if not np.any(nz):
        return np.full(g.n, -np.inf)
    with np.errstate(divide="ignore"):
        log_terms = q * g.x + np.log(mags)
    shift = np.max(log_terms[nz])
    weighted = np.zeros(g.n, dtype=np.complex128)
    weighted[nz] = np.exp(log_terms[nz] - shift) * (f.values[nz] / mags[nz])
    spectrum = forward_transform(Field(g, weighted))
    with np.errstate(divide="ignore"):
        return shift + np.log(np.abs(spectrum))


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
    plus = sample.delta_plus.values
    reference_csv(
        path,
        ["x", "re_delta", "im_delta", "re_delta_plus", "im_delta_plus"],
        zip(sample.grid.x, delta.real, delta.imag, plus.real, plus.imag),
    )

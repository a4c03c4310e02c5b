"""Causal propagator of the 1+1 dimensional Klein-Gordon equation by
regularized momentum quadrature.

The positive-frequency kernel is evaluated as

    Dp(t, x) = (i / 4 pi) Int_{-P}^{P} dp  exp(-eps p^2) exp(-i w t + i p x) / w,

w = sqrt(p^2 + m^2), on a declining damping ladder eps, eps/2, eps/4, ...
followed by Richardson extrapolation toward eps -> 0.  The change across
the last extrapolation rung is reported as the residual; a sample whose
residual exceeds the declared tolerance is flagged by a false
``converged``, never silently returned.  The commutator kernel is the odd
combination

    D(t, x) = Dp(t, x) - Dp(-t, -x) = 2 Re Dp(t, x),

the second form by the conjugation identity Dp(-t, -x) = -conj Dp(t, x)
(conjugating the integrand flips the signs of t, x and the prefactor i;
it holds rung by rung and through the real Richardson weights), so one
quadrature per slice yields both kernels and D is real by construction.
D is supported inside the light cone |x| <= |t| up to quadrature
residual, and its spatial Fourier multiplier is sin(w t)/w.  That single
multiplier identity ties the kernel to the exact mode evolution and to the
initial-value convolution formula; it - and not any transplanted
three-dimensional prefactor - is what fixes the normalization, with
i/(4 pi) the one-dimensional analog of the conventional constant.

Quadrature nodes sit on the lattice dp = 2 pi / L of the target grid, so
a kernel sample equals the periodization of the continuum kernel and the
synthesis over all grid points folds onto the n momentum bins, costing
one FFT per damping rung.  Sampling a kernel with jump discontinuities on
the cone necessarily aliases content beyond the grid band onto lower
bins; the multiplier identity is therefore compared over the declared
band |p| <= band_fraction * pi / dx in the uniform norm (error divided by
the multiplier's sup over the band).  At the Nyquist bin itself the
folded coefficient doubles for an even kernel, so an all-mode pointwise
comparison is not a meaningful target for any sampled kernel.

The kernels carry genuine distributional edges on the cone (D jumps by
1/2 there, Dp adds a logarithmic spike), so pointwise values at the one
or two grid cells straddling |x| = |t| do not converge as eps -> 0.  The
residual is therefore measured outside a collar of
``RESIDUAL_COLLAR_CELLS`` cells around the cone; the collar width is part
of the sample metadata, and the cells inside it are exactly the ones
every cone-support assertion already grants as geometric margin.

Both kernels need m > 0: Dp has an infrared divergent imaginary part at
m = 0 on the line, and D is built from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dispersion import Mass, omega
from .spectral import MAX_SAMPLES, Field, PreconditionError, SpectralField, UniformGrid, _alternating
from .spectral import forward_transform, inverse_transform

__all__ = [
    "QuadratureSpec",
    "ResolvedQuadrature",
    "PropagatorSample",
    "SuppressionScan",
    "delta_plus",
    "pauli_jordan",
    "spacelike_suppression_scan",
    "check_scan",
    "cauchy_via_propagator",
    "bridge_identity_error",
    "time_derivative_identity_error",
]

#: default cutoff rule: P = CUTOFF_FACTOR * max(m, 1/dx)
CUTOFF_FACTOR = 40.0

#: default damping ladder base: eps = EPS_BASE_FACTOR / P^2
EPS_BASE_FACTOR = 80.0

#: spacelike-to-timelike magnitude ratio below which a scan passes
SUPPRESSION_RATIO = 1e-4

#: most Richardson rungs: the weights 2^k overflow a float beyond k = 1023
MAX_RUNGS = 1024

#: cells on each side of the cone left out of the residual
RESIDUAL_COLLAR_CELLS = 4


@dataclass(frozen=True)
class QuadratureSpec:
    """Tunable quadrature parameters; a ``None`` cutoff uses the default
    rule, and the damping ladder starts at ``EPS_BASE_FACTOR / cutoff**2``."""

    cutoff: float | None = None
    rungs: int = 4
    residual_tol: float = 1e-6
    band_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not 2 <= self.rungs <= MAX_RUNGS:
            raise PreconditionError("quadrature.rungs", f"Richardson needs 2 to {MAX_RUNGS} rungs, got {self.rungs}")
        if not self.residual_tol > 0:
            raise PreconditionError("quadrature.residual_tol", f"residual_tol must be positive, got {self.residual_tol}")
        if not 0.0 < self.band_fraction <= 1.0:
            raise PreconditionError("quadrature.band_fraction", f"band_fraction must be in (0, 1], got {self.band_fraction}")

    def resolve(self, grid: UniformGrid, m: Mass) -> "ResolvedQuadrature":
        floor = CUTOFF_FACTOR * max(m.m, 1.0 / grid.dx)
        cutoff = floor if self.cutoff is None else float(self.cutoff)
        if cutoff < floor:
            raise PreconditionError("quadrature.cutoff", f"cutoff {cutoff} below the required floor {floor}")
        # 2 ceil(cutoff / dp) + 1 nodes with dp = 2 pi / L; eps divides by cutoff^2
        if not (math.isfinite(cutoff * cutoff) and cutoff * grid.L / math.pi < MAX_SAMPLES):
            raise PreconditionError("quadrature.cutoff", f"cutoff {cutoff} needs more nodes than an array can hold")
        eps = EPS_BASE_FACTOR / cutoff**2
        ladder = tuple(eps / 2.0**r for r in range(self.rungs))
        return ResolvedQuadrature(
            cutoff=cutoff,
            eps_ladder=ladder,
            residual_tol=self.residual_tol,
            band_fraction=self.band_fraction,
        )


@dataclass(frozen=True)
class ResolvedQuadrature:
    cutoff: float
    eps_ladder: tuple[float, ...]
    residual_tol: float
    band_fraction: float

    def metadata(self) -> dict:
        return {
            "cutoff": self.cutoff,
            "eps_ladder": list(self.eps_ladder),
            "residual_tol": self.residual_tol,
            "band_fraction": self.band_fraction,
            "residual_collar_cells": RESIDUAL_COLLAR_CELLS,
        }


@dataclass(frozen=True, eq=False)
class PropagatorSample:
    """Dp(t, .) and D(t, .) on a grid slice with quadrature metadata."""

    t: float
    m: Mass
    delta: Field
    delta_plus: Field
    residual: float
    quad: ResolvedQuadrature

    @property
    def converged(self) -> bool:
        return self.residual <= self.quad.residual_tol

    @property
    def grid(self) -> UniformGrid:
        return self.delta.grid


def _lattice(grid: UniformGrid, cutoff: float) -> tuple[np.ndarray, float]:
    dp = 2.0 * np.pi / grid.L
    q_max = int(math.ceil(cutoff / dp))
    return np.arange(-q_max, q_max + 1), dp


def _synthesize(grid: UniformGrid, q: np.ndarray, g: np.ndarray) -> np.ndarray:
    """sum_q g_q exp(i p_q x_j) over all grid points via folding plus one FFT."""
    bins = np.mod(q, grid.n)
    G = np.bincount(bins, weights=g.real, minlength=grid.n) + 1j * np.bincount(
        bins, weights=g.imag, minlength=grid.n
    )
    # exp(i p_q x_j) = (-1)^q exp(2 pi i q j / n)
    return np.fft.ifft(_alternating(grid.n) * G) * grid.n


def _extrapolate(levels: list[np.ndarray], smooth: np.ndarray) -> tuple[np.ndarray, float]:
    """Richardson table for a ladder halving eps per rung; returns the value
    and the change across the last rung, measured over ``smooth``."""
    table = list(levels)
    for col in range(1, len(table)):
        fac = 2.0**col
        for i in range(len(table) - 1, col - 1, -1):
            table[i] = (fac * table[i] - table[i - 1]) / (fac - 1.0)
    residual = float(np.max(np.abs(table[-1][smooth] - table[-2][smooth])))
    return table[-1], residual


def _off_cone(grid: UniformGrid, t: float, collar_cells: int) -> np.ndarray:
    """Mask of grid points farther than the collar from the cone |x| = |t|."""
    return np.abs(np.abs(grid.x) - abs(t)) > collar_cells * grid.dx


def _damped_kernel(grid, m, res, t: float, multiplier) -> tuple[np.ndarray, float]:
    """Extrapolated (1/2 pi) Int dp e^{-eps p^2} multiplier(p, w) e^{i p x}."""
    q, dp = _lattice(grid, res.cutoff)
    p = q * dp
    w = omega(p, m)
    base = multiplier(p, w)
    levels = [
        (dp / (2.0 * np.pi)) * _synthesize(grid, q, np.exp(-eps * p * p) * base)
        for eps in res.eps_ladder
    ]
    return _extrapolate(levels, _off_cone(grid, t, RESIDUAL_COLLAR_CELLS))


def delta_plus(
    t: float, grid: UniformGrid, m: Mass, quad: QuadratureSpec | ResolvedQuadrature = QuadratureSpec()
) -> tuple[Field, float]:
    """Positive-frequency kernel Dp(t, .) on the grid (m > 0 only) and its
    last-rung residual; a spec is resolved here, a resolved one used as is."""
    m.require_positive("the positive-frequency kernel (infrared divergent at m = 0 in one dimension)")
    res = quad if isinstance(quad, ResolvedQuadrature) else quad.resolve(grid, m)
    values, residual = _damped_kernel(
        grid, m, res, t, lambda p, w: 0.5j * np.exp(-1j * w * t) / w
    )
    return Field(grid, values), residual


def pauli_jordan(t: float, grid: UniformGrid, m: Mass, quad: QuadratureSpec = QuadratureSpec()) -> PropagatorSample:
    """Commutator kernel D(t, .) = Dp(t, x) - Dp(-t, -x) on the grid (m > 0).

    One quadrature gives Dp(t, .), and D = 2 Re Dp(t, .) by the
    conjugation identity Dp(-t, -x) = -conj Dp(t, x); D is real by
    construction and the sample carries Dp(t, .) as well.  The residual is
    twice that of Dp, the bound on the change across the last rung of
    Dp(t, x) - Dp(-t, -x).
    """
    res = quad.resolve(grid, m)
    plus, plus_residual = delta_plus(t, grid, m, res)
    return PropagatorSample(
        t=t,
        m=m,
        delta=Field(grid, 2.0 * plus.values.real),
        delta_plus=plus,
        residual=2.0 * plus_residual,
        quad=res,
    )


@dataclass(frozen=True)
class SuppressionScan:
    """Spacelike versus timelike magnitude contrast for one (t, m) slice."""

    spacelike_max: float
    timelike_max: float
    ratio: float
    passed: bool


def check_scan(grid: UniformGrid, t: float, margin: float) -> None:
    """The scan rules: margin >= 3 dx and |t| + margin inside L/2."""
    if margin < 3.0 * grid.dx:
        raise PreconditionError("margin", f"margin {margin} below 3*dx = {3.0 * grid.dx}")
    if abs(t) + margin >= grid.L / 2.0:
        raise PreconditionError("times.scan-region", f"scan region reaches the domain boundary L/2 = {grid.L / 2.0}")


def spacelike_suppression_scan(
    sample: PropagatorSample,
    margin: float,
    ratio_ceiling: float = SUPPRESSION_RATIO,
) -> SuppressionScan:
    """max |D| over |x| > |t| + margin against the timelike maximum, on the
    slice of a :func:`pauli_jordan` sample.

    Failures are reported in the returned record, not raised.
    """
    t, grid = sample.t, sample.grid
    check_scan(grid, t, margin)
    mags = np.abs(sample.delta.values)
    ax = np.abs(grid.x)
    spacelike = float(np.max(mags[ax > abs(t) + margin]))
    inside = ax <= abs(t)
    timelike = float(np.max(mags[inside])) if np.any(inside) else 0.0
    ratio = spacelike / timelike if timelike > 0 else math.inf
    return SuppressionScan(
        spacelike_max=spacelike,
        timelike_max=timelike,
        ratio=ratio,
        passed=ratio < ratio_ceiling,
    )


def _band_mask(grid: UniformGrid, band_fraction: float) -> np.ndarray:
    return np.abs(grid.p) <= band_fraction * np.pi / grid.dx


def bridge_identity_error(sample: PropagatorSample) -> float:
    """Uniform-norm relative error of D's multiplier against sin(w t)/w.

    Compared over the declared band and normalized by the multiplier's
    sup there; the identity links the quadrature kernel to the exact mode
    evolution.
    """
    grid = sample.grid
    measured = forward_transform(sample.delta).coefficients
    w = omega(grid.p, sample.m)
    target = sample.t * np.sinc(w * sample.t / np.pi)
    band = _band_mask(grid, sample.quad.band_fraction)
    sup = float(np.max(np.abs(target[band])))
    if sup == 0.0:
        return float(np.max(np.abs(measured[band])))
    return float(np.max(np.abs(measured[band] - target[band])) / sup)


def time_derivative_identity_error(
    t: float,
    grid: UniformGrid,
    m: Mass,
    quad: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Centered finite difference of D in t against the quadrature kernel of
    the cos(w t) multiplier, compared pointwise away from the cone.

    Both objects converge to the same smooth function off the light cone
    (the cone itself carries the propagating delta pair, which no pointwise
    comparison can see), so the uniform-norm relative deviation over the
    off-cone region validates that differentiating the commutator kernel
    in time reproduces the multiplier used by the initial-value formula.
    The difference step is one cell, h = dx.
    """
    h = grid.dx
    fwd = pauli_jordan(t + h, grid, m, quad)
    bwd = pauli_jordan(t - h, grid, m, quad)
    fd = (fwd.delta.values - bwd.delta.values) / (2.0 * h)
    res = fwd.quad
    dt_vals, _ = _damped_kernel(grid, m, res, t, lambda p, w: np.cos(w * t))
    mask = (
        _off_cone(grid, t, RESIDUAL_COLLAR_CELLS + 1)
        & _off_cone(grid, t + h, RESIDUAL_COLLAR_CELLS)
        & _off_cone(grid, t - h, RESIDUAL_COLLAR_CELLS)
    )
    sup = float(np.max(np.abs(dt_vals[mask])))
    return float(np.max(np.abs(fd[mask] - dt_vals[mask])) / sup)


def cauchy_via_propagator(data, t: float, quad: QuadratureSpec = QuadratureSpec()) -> Field:
    """Solve the initial-value problem through the commutator kernel,

        Phi(t, .) = dD/dt(dt, .) * Phi0 + D(dt, .) * Pi0,

    with * the periodic grid convolution dx * sum, which the dx-weighted
    transform pair turns into a product: Phi(t)^ = cos(w dt) Phi0^ + D^ Pi0^,
    with D^ = forward_transform(D) as in :func:`bridge_identity_error`.
    The dD/dt term is applied as the band multiplier cos(w dt) (its kernel
    is a propagating delta pair that no grid sampling can represent),
    cross-checked separately by :func:`time_derivative_identity_error`.
    """
    grid = data.grid
    dt = t - data.t0
    sample = pauli_jordan(dt, grid, data.m, quad)
    if not sample.converged:
        raise PreconditionError(
            "quadrature.converged",
            f"propagator quadrature did not converge: residual {sample.residual} "
            f"exceeds {sample.quad.residual_tol}"
        )
    w = omega(grid.p, data.m)
    D = forward_transform(sample.delta).coefficients
    Phi = np.cos(w * dt) * data.phi.spectrum.coefficients + D * data.pi.spectrum.coefficients
    return inverse_transform(SpectralField(grid, Phi))

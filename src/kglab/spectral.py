"""Periodic grid, continuum-normalized Fourier transforms, and compactly
supported test states.

Conventions (natural units, c = 1):

* grid points   x_j = -L/2 + j dx,   j = 0 .. n-1
* momenta       p_k = 2 pi k / L,    k = -n/2 .. n/2-1, stored in FFT order
* forward       F(p_k) = dx * sum_j exp(-i p_k x_j) f(x_j)
* inverse       f(x_j) = (1/L) * sum_k exp(+i p_k x_j) F(p_k)

The dx and 1/L weights make the discrete pair a Riemann sum for the
continuum transform, so discrete quantities converge to continuum
integrals without stray constants.  With the half-domain offset the
kernel splits as exp(-i p_k x_j) = (-1)^k exp(-2 pi i k j / n); the
alternating sign is applied exactly instead of through exp(i pi k).

Coefficients are plain complex128 arrays in FFT order (``Field.spectrum``
caches a field's own); every mode multiplier returns to the grid through
one ``inverse_transform(like, multiplier * coefficients)``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "PreconditionError",
    "MAX_SAMPLES",
    "UniformGrid",
    "Field",
    "finite_total",
    "forward_transform",
    "inverse_transform",
    "check_bump",
    "make_bump",
    "bump_right_mover",
    "complex_momentum_transform",
]

# log-domain guard for the exponentially weighted transform
_MAX_LOG_WEIGHT = 700.0

#: most complex128 samples one array can address; numpy refuses larger
#: arrays with a ValueError before trying to allocate them
MAX_SAMPLES = sys.maxsize // 16


class PreconditionError(ValueError):
    """A violated precondition; ``rule`` names the failed check, by the
    config name (``grid.n``, ``times.margin``, ...) where a config can reach it."""

    def __init__(self, rule: str, message: str):
        super().__init__(f"{rule}: {message}")
        self.rule = rule
        self.message = message


def _alternating(n: int) -> np.ndarray:
    alt = np.ones(n)
    alt[1::2] = -1.0
    return alt


@dataclass(frozen=True)
class UniformGrid:
    """Uniform periodic lattice covering [-L/2, L/2) with L = n * dx."""

    n: int
    dx: float

    def __post_init__(self) -> None:
        if self.n < 16 or self.n & (self.n - 1) or self.n > MAX_SAMPLES:
            raise PreconditionError("grid.n", f"grid size must be a power of two >= 16 that an array can hold, got {self.n}")
        if not (math.isfinite(self.dx) and self.dx > 0 and math.isfinite(self.n * self.dx)):
            raise PreconditionError("grid.dx", f"grid spacing must be positive with n*dx finite, got {self.dx}")

    @property
    def L(self) -> float:
        return self.n * self.dx

    @cached_property
    def x(self) -> np.ndarray:
        pts = -0.5 * self.L + self.dx * np.arange(self.n)
        pts.flags.writeable = False
        return pts

    @cached_property
    def p(self) -> np.ndarray:
        mom = 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)
        mom.flags.writeable = False
        return mom


def _validated_samples(grid: UniformGrid, values) -> np.ndarray:
    arr = np.array(values, dtype=np.complex128, copy=True).reshape(-1)
    if arr.shape != (grid.n,):
        raise PreconditionError("field.size", f"field needs {grid.n} samples, got {arr.shape[0]}")
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        raise PreconditionError("field.finite", f"non-finite field sample at index {bad[0]}")
    arr.flags.writeable = False
    return arr


def finite_total(total, what: str) -> float:
    """``total``, an energy or squared norm of field samples, as a float.

    Callers sum the squares under ``np.errstate(over="ignore")``, so a sum
    that overflows float64 reaches this one check, which names rule
    ``field.overflow`` instead of passing inf or nan on to a verdict.
    """
    total = float(total)
    if not math.isfinite(total):
        raise PreconditionError(
            "field.overflow", f"{what} is {total}: field samples (or the mass) too large for float64 squares"
        )
    return total


@dataclass(frozen=True, eq=False)
class Field:
    """Complex samples on the grid, immutable after construction.

    ``spectrum`` is :func:`forward_transform` of the field, a read-only
    coefficient array computed on first access and kept, so a datum evolved
    to many times is transformed once.  Take it before sharing the field
    across worker threads: since Python 3.12 ``cached_property`` holds no
    lock, so threads that race on the first access each transform it, and
    in 3.11 its lock is one per class, so a first access inside a pool
    serializes every other one.
    """

    grid: UniformGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _validated_samples(self.grid, self.values))

    @cached_property
    def spectrum(self) -> np.ndarray:
        coeffs = forward_transform(self)
        coeffs.flags.writeable = False
        return coeffs


def forward_transform(f: Field) -> np.ndarray:
    """Riemann-sum DFT: F(p_k) = dx * sum_j exp(-i p_k x_j) f_j, the n
    complex coefficients indexed like ``grid.p`` (FFT order)."""
    g = f.grid
    return g.dx * _alternating(g.n) * np.fft.fft(f.values)


def inverse_transform(like: Field, coefficients) -> Field:
    """Exact inverse of :func:`forward_transform`, on the grid of ``like``.

    The coefficients are checked only as the new field's samples: a
    non-finite coefficient or an overflowing sum fails rule ``field.finite``.
    """
    g = like.grid
    return Field(g, np.fft.ifft(_alternating(g.n) * coefficients) / g.dx)


def check_bump(grid: UniformGrid, center: float, radius: float) -> None:
    """The bump rules: radius > 4 dx (resolution) and at least L/8 of
    clearance between the support and the domain edge, so that periodic
    wrap-around stays below the numerical floor over the simulated times."""
    if not (radius > 4.0 * grid.dx):
        raise PreconditionError(
            "initial_state.radius", f"under-resolved bump: radius {radius} must exceed 4*dx = {4.0 * grid.dx}"
        )
    margin = grid.L / 8.0
    half = grid.L / 2.0
    if center - radius < -half + margin or center + radius > half - margin:
        raise PreconditionError(
            "initial_state.margin",
            f"bump support [{center - radius}, {center + radius}] leaves less than "
            f"L/8 = {margin} of edge clearance",
        )


def _bump(grid: UniformGrid, center: float, radius: float, amplitude: float, shape) -> Field:
    """shape(u, profile) on the support |u| < 1 of the bump, zero elsewhere."""
    check_bump(grid, center, radius)
    u = (grid.x - center) / radius
    values = np.zeros(grid.n, dtype=np.complex128)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    values[inside] = shape(ui, amplitude * np.exp(1.0 - 1.0 / (1.0 - ui**2)))
    return Field(grid, values)


def make_bump(grid: UniformGrid, center: float, radius: float, amplitude: float) -> Field:
    """Smooth bump amplitude * exp(1 - 1/(1 - u^2)), u = (x - center)/radius.

    The profile is exactly zero for |u| >= 1 and infinitely smooth at the
    cutoff in the continuum limit; the normalization makes the peak value
    equal the requested amplitude.  Requires :func:`check_bump`.
    """
    return _bump(grid, center, radius, amplitude, lambda u, prof: prof)


def bump_right_mover(grid: UniformGrid, center: float, radius: float, amplitude: float) -> Field:
    """Pi = -Phi' for the bump Phi of :func:`make_bump`, from the closed-form
    derivative; with this time derivative a massless bump travels rigidly
    to the right at unit speed."""
    return _bump(grid, center, radius, amplitude, lambda u, prof: -prof * (-2.0 * u / (1.0 - u**2) ** 2) / radius)


def complex_momentum_transform(f: Field, q: float) -> np.ndarray:
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

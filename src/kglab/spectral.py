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
alternating sign is applied exactly instead of through exp(i pi k), from
a read-only array built per transform.

Coefficients are plain complex128 arrays in FFT order (``Field.spectrum``
caches a field's own); every mode multiplier returns to the grid through
one ``inverse_transform(like, multiplier * coefficients)``, which works in
one n-sample buffer, new or a flow's own product passed again as ``out``:
the signed coefficients, transformed and scaled in place, become the new
field's samples without a copy.
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
    "real_transform",
    "inverse_transform",
    "check_bump",
    "make_bump",
    "bump_right_mover",
]

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

    def __reduce__(self):
        # pickled by a forked worker: the default would call __init__ with
        # the one formatted string
        return type(self), (self.rule, self.message)


def _alternating(n: int) -> np.ndarray:
    """(-1)^k for k = 0 .. n-1 as float64, read-only so that numpy never elides a product into it."""
    alt = np.ones(n)
    alt[1::2] = -1.0
    alt.flags.writeable = False
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


def _validated_samples(grid: UniformGrid, values, copy: bool = True) -> np.ndarray:
    """``values`` as n read-only complex128 samples, all finite; a copy
    unless ``copy`` is False, which requires an owned complex128 array."""
    arr = np.array(values, dtype=np.complex128, copy=copy)
    if arr.shape != (grid.n,):
        raise PreconditionError("field.size", f"field needs {grid.n} samples in one dimension, got shape {arr.shape}")
    finite = np.isfinite(arr)
    if not finite.all():
        raise PreconditionError("field.finite", f"non-finite field sample at index {np.argmin(finite)}")
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

    ``Field(grid, values)`` validates a copy of ``values``, so the caller
    keeps its array; only :func:`inverse_transform` hands over the buffer
    it wrote, validated the same way but not copied.

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

    @classmethod
    def _adopt(cls, grid: UniformGrid, samples: np.ndarray) -> Field:
        """A field over ``samples``, a complex128 array that no one else holds."""
        field = cls.__new__(cls)
        object.__setattr__(field, "grid", grid)
        object.__setattr__(field, "values", _validated_samples(grid, samples, copy=False))
        return field

    @cached_property
    def spectrum(self) -> np.ndarray:
        coeffs = forward_transform(self)
        coeffs.flags.writeable = False
        return coeffs


def forward_transform(f: Field) -> np.ndarray:
    """Riemann-sum DFT: F(p_k) = dx * sum_j exp(-i p_k x_j) f_j, the n
    complex coefficients indexed like ``grid.p`` (FFT order); a sum past
    float64 fails rule ``field.finite`` here, unwarned in any thread."""
    return _weighted(f.grid, np.fft.fft, f.values, f.grid.n)


def real_transform(grid: UniformGrid, samples: np.ndarray) -> np.ndarray:
    """:func:`forward_transform` of n real ``samples`` on its modes k = 0 .. n/2 alone, by one ``rfft``."""
    return _weighted(grid, np.fft.rfft, samples, grid.n // 2 + 1)


def _weighted(g: UniformGrid, fft, samples: np.ndarray, modes: int) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = g.dx * _alternating(modes) * fft(samples)
    if not np.isfinite(coeffs).all():
        raise PreconditionError("field.finite", "the forward transform of finite samples overflows float64")
    return coeffs


def inverse_transform(like: Field, coefficients, out: np.ndarray | None = None) -> Field:
    """Exact inverse of :func:`forward_transform`, on the grid of ``like``.

    The coefficients are checked as the new field's samples: a shape other
    than ``(n,)`` fails rule ``field.size``, and a non-finite coefficient or
    an overflowing sum fails rule ``field.finite``.  The signed coefficients
    are cast into ``out`` (a complex128 n-array that the caller gives up,
    such as ``coefficients`` itself) or a new buffer, which the inverse FFT
    and the 1/dx weight overwrite in place.
    """
    g = like.grid
    shape = np.shape(coefficients)
    if shape != (g.n,):
        raise PreconditionError("field.size", f"inverse transform needs {g.n} coefficients in one dimension, got shape {shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        samples = np.multiply(_alternating(g.n), coefficients, out=np.empty(g.n, np.complex128) if out is None else out)
        np.fft.ifft(samples, out=samples)
        samples /= g.dx
    return Field._adopt(g, samples)


def check_bump(grid: UniformGrid, center: float, radius: float, amplitude: float) -> float:
    """The bump rules: radius > 4 dx (resolution), at least L/8 of
    clearance between the support and the domain edge, so that periodic
    wrap-around stays below the numerical floor over the simulated times,
    and an amplitude whose square is a normal float, so that no norm of the
    datum underflows.  Returns the bump's reach |center| + radius, the
    largest |x| of its support."""
    if not (radius > 4.0 * grid.dx):
        raise PreconditionError(
            "initial_state.radius", f"under-resolved bump: radius {radius} must exceed 4*dx = {4.0 * grid.dx}"
        )
    margin = grid.L / 8.0
    reach = abs(center) + radius
    if reach > grid.L / 2.0 - margin:
        raise PreconditionError(
            "initial_state.margin",
            f"bump support [{center - radius}, {center + radius}] leaves less than L/8 = {margin} of edge clearance",
        )
    if not amplitude * amplitude >= sys.float_info.min:
        raise PreconditionError(
            "initial_state.amplitude",
            f"amplitude {amplitude} squares below the smallest normal float64 {sys.float_info.min}",
        )
    return reach


def _bump(grid: UniformGrid, center: float, radius: float, amplitude: float, shape) -> Field:
    """shape(u, profile) on the support |u| < 1 of the bump, zero elsewhere."""
    check_bump(grid, center, radius, amplitude)
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

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
a kernel sample equals the periodization of the continuum kernel.  The
integrand is even in p, so it is evaluated on the half lattice p >= 0,
given its grid phase (-1)^q, and mirrored; the nodes fold onto the n
momentum bins in runs between multiples of n, one FFT per damping rung.
Sampling a kernel with jump discontinuities on the cone necessarily
aliases content beyond the grid band onto lower bins; the multiplier
identity is therefore compared over the declared band
|p| <= band_fraction * pi / dx in the uniform norm (error divided by the
multiplier's sup over the band).  At the Nyquist bin itself the folded
coefficient doubles for an even kernel, so an all-mode pointwise
comparison is not a meaningful target for any sampled kernel.

The kernels carry genuine distributional edges on the cone (D jumps by
1/2 there, Dp adds a logarithmic spike), so pointwise values at the one
or two grid cells straddling |x| = |t| do not converge as eps -> 0.  The
residual is therefore measured outside a collar of
``RESIDUAL_COLLAR_CELLS`` cells around the cone; the collar width is
written with each slice's quadrature settings, and the cells inside it are exactly the ones
every cone-support assertion already grants as geometric margin.

Both kernels need m > 0: Dp has an infrared divergent imaginary part at
m = 0 on the line, and D is built from it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .dispersion import Mass, omega, omega_multiplier
from .spectral import MAX_SAMPLES, Field, PreconditionError, UniformGrid, forward_transform

__all__ = [
    "QuadratureSpec",
    "PropagatorSample",
    "delta_plus",
    "pauli_jordan",
    "spacelike_suppression_scan",
    "check_scan",
    "bridge_identity_error",
]

#: default cutoff rule: P = CUTOFF_FACTOR * max(m, 1/dx)
CUTOFF_FACTOR = 40.0

#: default damping ladder base: eps = EPS_BASE_FACTOR / P^2
EPS_BASE_FACTOR = 80.0

#: most Richardson rungs: the last rung damps the cutoff node by
#: exp(-EPS_BASE_FACTOR / 2^(rungs - 1)), which rounds to exactly 1 (no
#: damping, and a residual of 0 by construction) for every rung beyond these
MAX_RUNGS = next(r for r in itertools.count(1) if math.exp(-EPS_BASE_FACTOR / 2.0**r) == 1.0)

#: cells on each side of the cone left out of the residual
RESIDUAL_COLLAR_CELLS = 4


@dataclass(frozen=True)
class QuadratureSpec:
    """Tunable quadrature parameters; a ``None`` cutoff stands for the
    default rule until :meth:`resolve` fills it in, and the damping ladder
    starts at ``EPS_BASE_FACTOR / cutoff**2``."""

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

    def resolve(self, grid: UniformGrid, m: Mass) -> "QuadratureSpec":
        """This spec with its cutoff filled in and checked against the
        floor of the grid and mass; resolving it again changes nothing."""
        floor = CUTOFF_FACTOR * max(m.m, 1.0 / grid.dx)
        cutoff = floor if self.cutoff is None else float(self.cutoff)
        if cutoff < floor:
            raise PreconditionError("quadrature.cutoff", f"cutoff {cutoff} below the required floor {floor}")
        # 2 ceil(cutoff / dp) + 1 nodes with dp = 2 pi / L: fewer than
        # cutoff L / pi + 2 n + 2 samples, a conservative bound since no
        # array holds more than the q_max + 1 half-lattice nodes; eps divides
        # by cutoff^2
        if not (math.isfinite(cutoff * cutoff) and cutoff * grid.L / math.pi + 2 * (grid.n + 1) < MAX_SAMPLES):
            raise PreconditionError("quadrature.cutoff", f"cutoff {cutoff} needs more nodes than an array can hold")
        return replace(self, cutoff=cutoff)

    @property
    def eps_ladder(self) -> tuple[float, ...]:
        """The damping ladder of a resolved spec, halving eps per rung."""
        eps = EPS_BASE_FACTOR / self.cutoff**2
        return tuple(eps / 2.0**r for r in range(self.rungs))


@dataclass(frozen=True, eq=False)
class PropagatorSample:
    """Dp(t, .) and D(t, .) on a grid slice with quadrature metadata."""

    t: float
    m: Mass
    delta: Field
    delta_plus: Field
    residual: float
    quad: QuadratureSpec

    @property
    def converged(self) -> bool:
        return self.residual <= self.quad.residual_tol

    @property
    def grid(self) -> UniformGrid:
        return self.delta.grid


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
    """Mask of grid points farther than the collar from the cone |x| = |t|,
    where the residual is measured; refused when it holds no point."""
    mask = np.abs(np.abs(grid.x) - abs(t)) > collar_cells * grid.dx
    if not mask.any():
        raise PreconditionError("times.collar", f"every cell lies within {collar_cells} cells of the cone |x| = {abs(t)}")
    return mask


def _damped_kernel(grid, m, res, t: float, multiplier) -> tuple[np.ndarray, float]:
    """Extrapolated (1/2 pi) Int dp e^{-eps p^2} multiplier(w) e^{i p x}.

    The integrand is even in p bit for bit, so it is evaluated on the
    nodes q = 0 .. q_max and mirrored.  The grid starts at x_0 = -L/2, so
    node q carries the phase exp(i p_q x_0) = (-1)^q, applied once to the
    half-lattice integrand; being even in q, it survives the mirror.  Node
    q lands in bin q mod n, so a run of nodes between consecutive multiples
    of n fills consecutive bins; 0 is such a multiple, so each run is one
    slice of the half lattice, reversed for q < 0.  Each rung damps the
    half lattice once, n nodes at a time, and adds the runs in increasing
    q into one accumulator of n bins, starting from +0.0, so every bin adds
    its nodes in increasing q; sum_q g_q exp(2 pi i q j / n) is then one
    inverse FFT of the accumulator, times n.  A rung holds one float per
    half-lattice node beside the integrand, and O(n) values more."""
    n = grid.n
    dp = 2.0 * np.pi / grid.L
    q_max = int(math.ceil(res.cutoff / dp))
    base = multiplier(omega(np.arange(q_max + 1) * dp, m))
    base[1::2] *= -1.0
    cuts = [-q_max, *range(-(q_max // n) * n, q_max + 1, n), q_max + 1]
    ramp = np.arange(n, dtype=float)  # ramp + a is arange(a, a + n), exactly
    damp = np.empty(q_max + 1)
    levels = []
    for eps in res.eps_ladder:
        for a in range(0, q_max + 1, n):
            pq = (ramp[: q_max + 1 - a] + a) * dp
            np.exp((-eps * pq) * pq, out=damp[a : a + n])
        acc = np.zeros(n, dtype=complex)
        for lo, hi in itertools.pairwise(cuts):  # the run of nodes q in [lo, hi)
            a, b = (1 - hi, 1 - lo) if lo < 0 else (lo, hi)
            g = damp[a:b] * base[a:b]
            acc[lo % n : lo % n + hi - lo] += g[::-1] if lo < 0 else g
        levels.append((dp / (2.0 * np.pi)) * np.fft.ifft(acc) * n)
    return _extrapolate(levels, _off_cone(grid, t, RESIDUAL_COLLAR_CELLS))


def delta_plus(t: float, grid: UniformGrid, m: Mass, quad: QuadratureSpec = QuadratureSpec()) -> tuple[Field, float]:
    """Positive-frequency kernel Dp(t, .) on the grid (m > 0 only) and its
    last-rung residual."""
    m.require_positive("the positive-frequency kernel (infrared divergent at m = 0 in one dimension)")
    res = quad.resolve(grid, m)

    def multiplier(w: np.ndarray) -> np.ndarray:  # 0.5j * exp(-1j * w * t) / w, bit for bit
        z = -1j * w
        z *= t
        np.exp(z, out=z)
        z *= 0.5j
        return np.divide(z, w, out=z)

    values, residual = _damped_kernel(grid, m, res, t, multiplier)
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


def check_scan(grid: UniformGrid, t: float, margin: float) -> None:
    """The scan rules: t = 0 or |t| >= dx, margin >= 3 dx, |t| + margin
    inside L/2, and a cell outside the residual's collar.  Below one cell
    the timelike region |x| <= |t| is the single cell x = 0, so no
    suppression ratio or multiplier identity is resolved there."""
    if 0.0 < abs(t) < grid.dx:
        raise PreconditionError("times.resolved", f"slice time {t} is below one cell dx = {grid.dx}")
    if margin < 3.0 * grid.dx:
        raise PreconditionError("margin", f"margin {margin} below 3*dx = {3.0 * grid.dx}")
    if abs(t) + margin >= grid.L / 2.0:
        raise PreconditionError("times.scan-region", f"scan region reaches the domain boundary L/2 = {grid.L / 2.0}")
    _off_cone(grid, t, RESIDUAL_COLLAR_CELLS)


def spacelike_suppression_scan(sample: PropagatorSample, margin: float) -> dict:
    """max |D| over |x| > |t| + margin against the timelike maximum, on the
    slice of a :func:`pauli_jordan` sample, as the slice's report entry
    ``{spacelike_max, timelike_max, ratio}``.
    """
    t, grid = sample.t, sample.grid
    check_scan(grid, t, margin)
    mags = np.abs(sample.delta.values)
    ax = np.abs(grid.x)
    spacelike = float(np.max(mags[ax > abs(t) + margin]))
    timelike = float(np.max(mags[ax <= abs(t)]))
    ratio = spacelike / timelike if timelike > 0 else math.inf
    return {"spacelike_max": spacelike, "timelike_max": timelike, "ratio": ratio}


def bridge_identity_error(sample: PropagatorSample) -> float:
    """Uniform-norm relative error of D's multiplier against sin(w t)/w.

    Compared over the declared band and normalized by the multiplier's
    sup there; the identity links the quadrature kernel to the exact mode
    evolution.
    """
    grid = sample.grid
    measured = forward_transform(sample.delta)
    target = omega_multiplier(grid, sample.m, lambda w: sample.t * np.sinc(w * sample.t / np.pi))
    band = np.abs(grid.p) <= sample.quad.band_fraction * np.pi / grid.dx
    sup = float(np.max(np.abs(target[band])))
    if sup == 0.0:
        return float(np.max(np.abs(measured[band])))
    return float(np.max(np.abs(measured[band] - target[band])) / sup)

"""Two evolutions of a Klein-Gordon Cauchy datum by the elapsed time t,
(d^2/dt^2 - d^2/dx^2 + m^2) Phi = 0 on the periodic grid.

Spectral (ground truth): every mode rotates exactly,

    Phi_k(t) = cos(w t) Phi_k(0) + sin(w t)/w Pi_k(0)
    Pi_k(t)  = -w sin(w t) Phi_k(0) + cos(w t) Pi_k(0)

with w = sqrt(p_k^2 + m^2) and sin(w t)/w -> t on the massless zero
mode.  This solves the discrete equation exactly per mode, conserves the
quadratic energy to rounding, and is causal only up to the (spectrally
small) tails of the trigonometric interpolant.  The coefficients Phi_k(0)
and Pi_k(0) are the cached coefficient arrays ``Field.spectrum`` of the
datum and each combination returns through one ``inverse_transform``, so a
time ladder costs one forward transform per datum and two inverses per time.
A datum at rest (Pi = 0) needs only Phi_k(t) = cos(w t) Phi_k(0): one
inverse per time, see :func:`evolve_from_rest`, whose product is the buffer
it transforms back.  Every multiplier comes from
:func:`~kglab.dispersion.omega_multiplier`.

Local (finite propagation speed by construction): the first-order system
Phi' = Pi, Pi' = (D2 - m^2) Phi with the 3-point Laplacian D2, stepped by
the staggered leapfrog in drift-kick-drift form

    Phi += dt/2 Pi;   Pi += dt (D2 Phi - m^2 Phi);   Phi += dt/2 Pi.

Only the kick widens the joint support, and only by one grid point per
side, so after n steps the support has grown by at most n cells per side.
That bound is exact stencil arithmetic (zeros stay bit-exact zeros), which
turns the locality-implies-causality statement into a theorem of the
discretization rather than a numerical accident.  The scheme is
second-order accurate and exactly conserves the mode-wise quadratic form

    Q = (1 - dt^2 W^2 / 4) |Pi_k|^2 + W^2 |Phi_k|^2,

W^2 the stencil eigenvalue of (-D2 + m^2); see :func:`leapfrog_energy`.

The same bound makes the stepper cheap: step k updates only a window
around [lo - k, hi + k], the initial support [lo, hi] widened by the
stencil bound, in place, in float64 for real data.  Steps run in blocks
that share one window (the reach of the block's last step), its views and
two scratch buffers, so a step allocates nothing; once a block's window
reaches the grid edge the steps update the full periodic grid.  Every cell
sees the arithmetic of the full-grid scheme, so the results are
bit-identical to it.  :func:`evolve_local_fd_ladder` reaches a whole time
ladder in one pass of max(t) / dt steps, and :func:`ladder_steps` refuses a
ladder whose steps would cost more than a fixed budget of cell updates.

The caller chooses between the two (the CLI reads the config's ``method``).
The leapfrog's step ``dt`` must be positive and meet the exact stability bound
dt^2 W^2 / 4 <= 1 at the top stencil eigenvalue W^2 = 4/dx^2 + m^2 (Courant's at m = 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .dispersion import Mass, omega_multiplier
from .spectral import Field, PreconditionError, finite_total, forward_transform, inverse_transform

__all__ = [
    "CauchyData",
    "evolve_spectral",
    "evolve_from_rest",
    "evolve_local_fd_ladder",
    "local_fd_steps",
    "check_margin",
    "ladder_steps",
    "energy",
    "leapfrog_energy",
]


@dataclass(frozen=True, eq=False)
class CauchyData:
    """Initial-value payload: Phi(0, .), dPhi/dt(0, .) and the mass."""

    phi: Field
    pi: Field
    m: Mass

    def __post_init__(self) -> None:
        if self.phi.grid != self.pi.grid:
            raise PreconditionError("cauchy.grid", "phi and pi must share one grid")

    @property
    def grid(self):
        return self.phi.grid


def check_margin(grid, t: float) -> None:
    """The periodic safety margin |t| <= L/4 of every evolution."""
    if abs(t) > grid.L / 4.0:
        raise PreconditionError(
            "times.margin",
            f"evolution time {t} exceeds the periodic safety margin L/4 = {grid.L / 4.0}; "
            "wrap-around would contaminate causality measurements"
        )


def evolve_spectral(data: CauchyData, t: float) -> CauchyData:
    """The datum evolved by the elapsed time t (|t| <= L/4); ``data`` itself at t = 0.

    Reads the cached ``spectrum`` of Phi and Pi, so one datum evolved to a
    whole time ladder is transformed once; take both spectra before the
    ladder fans out over threads (see :class:`~kglab.spectral.Field`).
    """
    grid = data.grid
    check_margin(grid, t)
    if t == 0.0:
        return data
    c = omega_multiplier(grid, data.m, lambda w: np.cos(w * t))
    s_over_w = omega_multiplier(grid, data.m, lambda w: t * np.sinc(w * t / np.pi))  # sin(w t)/w, exact at w = 0
    w_s = omega_multiplier(grid, data.m, lambda w: w * np.sin(w * t))
    F = data.phi.spectrum
    P = data.pi.spectrum
    phi_t = inverse_transform(data.phi, c * F + s_over_w * P)
    pi_t = inverse_transform(data.pi, -w_s * F + c * P)
    return CauchyData(phi_t, pi_t, data.m)


def evolve_from_rest(phi: Field, m: Mass, t: float) -> Field:
    """Phi(t) of the Cauchy data (phi, Pi = 0), t elapsed from the datum (|t| <= L/4).

    Equal to ``evolve_spectral(CauchyData(phi, 0, m), t).phi`` for t != 0,
    since c F + s 0 == c F, but reads only the cached ``spectrum`` of phi
    and takes one inverse transform: no Pi, no Pi(t).
    """
    grid = phi.grid
    check_margin(grid, t)
    coeffs = omega_multiplier(grid, m, lambda w: np.cos(w * t)) * phi.spectrum
    return inverse_transform(phi, coeffs, coeffs)


def _stencil(ext: np.ndarray, dx: float, msq: float) -> np.ndarray:
    """(-D2 + m^2) with the 3-point Laplacian on the interior cells of
    ``ext``, whose first and last cells are the neighbours beyond its ends.
    Scaled by the reciprocal 1/dx^2: complex128 division by a real scalar
    multiplies by its reciprocal, so real and complex data round identically."""
    mid = ext[1:-1]
    return msq * mid - ((ext[2:] - 2.0 * mid) + ext[:-2]) * (1.0 / (dx * dx))


#: leapfrog steps that share one window, one set of views and two scratch buffers
_BLOCK = 64


def local_fd_steps(data: CauchyData, dt: float, n_steps: int) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Yield (step, phi, pi) after each drift-kick-drift leapfrog step.

    Step k can only change the window [lo - k, hi + k] around the initial
    joint support [lo, hi].  The steps run in blocks of ``_BLOCK``: each
    block updates, in place, the window its last step can reach, or the
    full periodic grid once that window reaches the grid edge.  Cells of
    the window that a step cannot reach yet hold Phi = +0.0, which every
    operation of the step keeps, so each cell sees the arithmetic of the
    full-grid scheme: zeros stay bit-exact zeros and the result does not
    depend on the window.  The arrays are float64 for real data and
    complex128 otherwise.  Phi lives inside a buffer with one periodic
    ghost cell per side, so the stencil reads it without a copy, and a
    step allocates nothing.

    No L/4 guard: the support bound is exact arithmetic on the periodic
    grid for any number of steps, and the energy acceptance check steps
    past L/4 on purpose.  :func:`evolve_local_fd_ladder` enforces it.

    The yielded arrays are live working buffers; copy them to retain.
    """
    grid = data.grid
    _check_step(grid, dt, data.m)
    n = grid.n
    phi0, pi0 = data.phi.values, data.pi.values
    if not (phi0.imag.any() or pi0.imag.any()):
        phi0, pi0 = phi0.real, pi0.real
    padded = np.empty(n + 2, dtype=phi0.dtype)
    phi, pi = padded[1:-1], np.array(pi0)
    phi[...] = phi0
    # beyond its reach a step keeps a +0.0 of phi but not a -0.0, so a -0.0 joins the support
    support = np.flatnonzero((phi != 0) | (pi != 0) | np.signbit(phi.real) | np.signbit(phi.imag))
    # zero data stays zero; any window then reproduces it
    lo, hi = (support[0], support[-1]) if support.size else (n // 2, n // 2)
    msq = data.m.m**2
    half = 0.5 * dt
    scale = 1.0 / (grid.dx * grid.dx)
    lap_buf, tmp_buf = np.empty(n, dtype=phi.dtype), np.empty(n, dtype=phi.dtype)
    for first in range(1, n_steps + 1, _BLOCK):
        last = min(first + _BLOCK - 1, n_steps)
        a, b = lo - last, hi + last + 1
        wrapped = a < 1 or b >= n
        if wrapped:
            a, b = 0, n
        p, q, ext = phi[a:b], pi[a:b], padded[a : b + 2]
        right, mid, left = ext[2:], ext[1:-1], ext[:-2]
        lap, tmp = lap_buf[: b - a], tmp_buf[: b - a]
        for k in range(first, last + 1):
            np.add(p, np.multiply(half, q, out=tmp), out=p)
            if wrapped:
                padded[0], padded[-1] = phi[-1], phi[0]
            np.multiply(2.0, mid, out=lap)
            np.subtract(right, lap, out=lap)
            np.add(lap, left, out=lap)
            np.multiply(lap, scale, out=lap)
            np.subtract(np.multiply(msq, mid, out=tmp), lap, out=tmp)
            np.subtract(q, np.multiply(dt, tmp, out=tmp), out=q)
            np.add(p, np.multiply(half, q, out=tmp), out=p)
            yield k, phi, pi


def _check_step(grid, dt: float, m: Mass) -> None:
    """The leapfrog step rules: dt > 0 and (dt/dx)^2 + (m dt/2)^2 <= 1."""
    if not dt > 0:
        raise PreconditionError("dt", "time step must be positive")
    bound = (dt / grid.dx) ** 2 + (m.m * dt / 2.0) ** 2
    if bound > 1.0:
        raise PreconditionError("dt.courant", f"unstable step: courant (dt/dx)^2 + (m dt/2)^2 = {bound} exceeds 1")


#: cell updates a leapfrog ladder may cost, about 2.5 s at ~4.5 ns per update
_STEP_BUDGET = 2**29

#: the fixed cost of one leapfrog step, counted in cell updates
_STEP_OVERHEAD_CELLS = 2048


def ladder_steps(grid, times: Sequence[float], dt: float, m: Mass) -> list[int]:
    """Leapfrog step count to each of ``times``, after :func:`_check_step`; each
    elapsed time t must be a positive integer multiple of dt within the L/4
    margin, and max(steps) * (n + ``_STEP_OVERHEAD_CELLS``) must stay within
    ``_STEP_BUDGET``."""
    _check_step(grid, dt, m)
    counts = []
    for t in times:
        ratio = t / dt
        n_steps = round(ratio) if np.isfinite(ratio) else 0
        if n_steps < 1 or abs(n_steps * dt - t) > 1e-9 * max(abs(t), dt):
            raise PreconditionError("times.dt-multiple", f"t = {t} is not a positive multiple of dt = {dt}")
        check_margin(grid, t)
        counts.append(n_steps)
    most = max(counts, default=0)
    if most * (grid.n + _STEP_OVERHEAD_CELLS) > _STEP_BUDGET:
        raise PreconditionError(
            "budget",
            f"{most} leapfrog steps on n = {grid.n} cells exceed the budget "
            f"steps * (n + {_STEP_OVERHEAD_CELLS}) <= {_STEP_BUDGET}; raise dt or shorten the ladder",
        )
    return counts


def evolve_local_fd_ladder(data: CauchyData, times: Sequence[float], dt: float) -> list[CauchyData]:
    """Leapfrog states at each of ``times``, in the given order, from one pass.

    Steps once to the largest step count and captures every requested
    time on the way; times may repeat and need not be sorted.  Each
    elapsed time must be a positive multiple of dt within the L/4 margin.
    """
    wanted: dict[int, list[int]] = {}
    for i, n_steps in enumerate(ladder_steps(data.grid, times, dt, data.m)):
        wanted.setdefault(n_steps, []).append(i)
    states: list[CauchyData] = [None] * len(times)
    for k, phi, pi in local_fd_steps(data, dt, max(wanted, default=0)):
        for i in wanted.get(k, ()):
            states[i] = CauchyData(Field(data.grid, phi), Field(data.grid, pi), data.m)
    return states


def energy(data: CauchyData) -> float:
    """Conserved quadratic form E = dx/2 sum(|Pi|^2 + |dPhi/dx|^2 + m^2 |Phi|^2).

    The derivative is spectral, so E is invariant under
    :func:`evolve_spectral` to rounding (mode-wise rotation).
    """
    grid = data.grid
    dphi = inverse_transform(data.phi, 1j * grid.p * forward_transform(data.phi))
    with np.errstate(over="ignore", invalid="ignore"):
        dens = np.abs(data.pi.values) ** 2 + np.abs(dphi.values) ** 2
        if data.m.m > 0:  # at m = 0 the term would be 0 * inf, nan, on an overflow
            dens += data.m.m**2 * np.abs(data.phi.values) ** 2
        return finite_total(0.5 * grid.dx * np.sum(dens), "energy")


def leapfrog_energy(data: CauchyData, dt: float) -> float:
    """Quadratic form conserved exactly by the drift-kick-drift leapfrog.

    Q = dx/2 [ <Pi, Pi> - dt^2/4 <Pi, A Pi> + <Phi, A Phi> ] with
    A = -D2 + m^2 the stencil operator; it tends to the continuum energy
    as dt -> 0 and drifts only by rounding under :func:`local_fd_steps`.

    Every term vanishes off the joint support of (Phi, Pi), so the sums run
    over its span [lo, hi] only, with one periodic neighbour read beyond
    each end (the whole periodic grid once the span covers it); each cell's
    stencil value has the bits of the full-grid stencil.  The sums are
    numpy's own pairwise reductions, not BLAS dot products, so Q does not
    depend on how many threads the BLAS library runs.
    """
    grid = data.grid
    msq = data.m.m**2
    phi = data.phi.values
    pi = data.pi.values
    support = np.flatnonzero((phi != 0) | (pi != 0))
    if not support.size:
        return 0.0
    window = np.arange(support[0] - 1, support[-1] + 2)
    phi_ext, pi_ext = phi.take(window, mode="wrap"), pi.take(window, mode="wrap")
    phi_w, pi_w = phi_ext[1:-1], pi_ext[1:-1]
    with np.errstate(over="ignore", invalid="ignore"):
        q = (
            _dot(pi_w, pi_w)
            - 0.25 * dt * dt * _dot(pi_w, _stencil(pi_ext, grid.dx, msq))
            + _dot(phi_w, _stencil(phi_ext, grid.dx, msq))
        )
        return finite_total(0.5 * grid.dx * q, "leapfrog energy")


def _dot(u: np.ndarray, v: np.ndarray) -> float:
    """Re <u, v> by numpy's pairwise sum."""
    return np.sum(u.real * v.real + u.imag * v.imag)

"""Support, leakage and tail measurements shared by all experiments.

Support is thresholded everywhere except the stencil bound of the local
evolution, which is asserted at exact zero; floating point makes exact
zero-sets meaningful only for stencil schemes.  :func:`support_radius`
measures one field, or the joint support of several on one grid, such as
a Cauchy datum (Phi, Pi).  Tail fits are closed-form least-squares sums
over the mean log-magnitude of the left and right tails; a left/right rate
mismatch above 10% is flagged.  These functions only measure: each returns
numbers, and the runner (``kglab.cli``) decides what a file holds.

A practical note on fit windows: multiplier kernels built from
sqrt(p^2 + m^2) produce tails |f| ~ exp(-m |x|) |x|^(-3/2), so a pure
log-linear fit reads high by roughly 1.5 <1/|x|> over the window.  So
:func:`check_window`, home of every window rule that reads no field,
wants lo at least 3 Compton lengths beyond the support, and a window
must also sit far enough out for the correction to fit the stated band.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dispersion import Mass
from .spectral import Field, PreconditionError, UniformGrid, finite_total

__all__ = [
    "TailFit",
    "cone_leakage",
    "fit_exponential_tail",
    "support_radius",
    "boundary_floor",
    "check_threshold",
    "check_window",
]

#: magnitudes below this are treated as numerically zero in tail fits
_TAIL_FLOOR = 1e-300

#: left/right fitted-rate mismatch above this fraction flags the fit
_ASYMMETRY_LIMIT = 0.10


@dataclass(frozen=True)
class TailFit:
    """Least-squares exponential fit log|f| = intercept - rate * |x|."""

    rate: float
    intercept: float
    r2: float
    flags: tuple[str, ...] = ()


def check_threshold(threshold: float) -> None:
    """Support thresholds must be positive."""
    if not threshold > 0:
        raise PreconditionError("thresholds.support", f"threshold must be positive, got {threshold}")


def _window_points(grid: UniformGrid, window: tuple[float, float]) -> np.ndarray:
    """The grid indices of the window's right side, x in [lo, hi], after its rules 0 < lo < hi and 16 points."""
    lo, hi = window
    if not 0.0 < lo < hi:
        raise PreconditionError("tail_fit.window", f"window {window} must satisfy 0 < lo < hi")
    right = np.flatnonzero((grid.x >= lo) & (grid.x <= hi))
    if right.size < 16:
        raise PreconditionError("tail_fit.window.points", f"window {window} holds {right.size} grid points per side, need >= 16")
    return right


def check_window(grid: UniformGrid, window: tuple[float, float], reach: float, m: Mass) -> None:
    """The window rules that read no field, in order: 0 < lo < hi; lo at least
    3/m beyond ``reach``, the largest |x| of the support (near-field); hi at
    least 2/m inside the :func:`boundary_floor` strip (wrap); 16 points per side."""
    lo, hi = window
    compton = m.compton_wavelength
    if 0.0 < lo < hi:  # else _window_points names rule tail_fit.window
        if lo < reach + 3.0 * compton:
            raise PreconditionError("tail_fit.window.near-field", f"window must start >= 3 Compton lengths beyond |x| = {reach}")
        if hi > _floor_strip_edge(grid) - 2.0 * compton:
            raise PreconditionError("tail_fit.window.wrap", "window must end >= 2 Compton lengths before the boundary-floor strip")
    _window_points(grid, window)


def cone_leakage(f: Field, R0: float, t: float, margin: float) -> float:
    """L2 mass fraction outside the light cone |x| <= R0 + |t| + margin;
    evolution backward in time is just as causal."""
    grid = f.grid
    edge = R0 + abs(t) + margin
    if not edge < grid.L / 2.0:
        raise PreconditionError("times.cone-edge", f"cone edge {edge} reaches the boundary L/2 = {grid.L / 2.0}")
    with np.errstate(over="ignore"):
        dens = np.abs(f.values)
        # scaled by the power of two that puts max|f| in [1, 2) before
        # squaring: exact, so the fraction does not move with the amplitude;
        # in place, so a pool of leakages holds one array each
        np.ldexp(dens, 1 - np.frexp(np.max(dens))[1], out=dens)
        dens *= dens
        total = finite_total(np.sum(dens), "squared norm")
    if total == 0.0:
        raise PreconditionError("field.zero-norm", "cone leakage undefined for a field with zero total norm")
    # x < -edge and x > edge are two runs of the sorted x; joined, they sum like a masked copy
    i = np.searchsorted(grid.x, -edge)
    j = max(i, np.searchsorted(grid.x, edge, side="right"))
    k = i + grid.n - j
    dens[i:k] = dens[j:]
    return float(np.sum(dens[:k]) / total)


def fit_exponential_tail(f: Field, window: tuple[float, float]) -> TailFit:
    """Fit log|f| against |x| over the window, symmetrized over both sides, by
    closed-form least-squares sums over the centred radii xc = x - mean(x):
    slope sum(xc y) / sum(xc^2), r^2 = sxy^2 / (sxx syy) in [0, 1] (1 for a
    flat y).  Pairwise ``np.sum`` only, so no BLAS or LAPACK routine runs."""
    grid = f.grid
    right = _window_points(grid, window)
    left = (grid.n - right) % grid.n
    mag_r = np.abs(f.values[right])
    mag_l = np.abs(f.values[left])
    if np.any(mag_r <= _TAIL_FLOOR) or np.any(mag_l <= _TAIL_FLOOR):
        raise PreconditionError("tail_fit.window.zero", "zero magnitude inside the fit window; tail fit rejected")
    radii = grid.x[right]
    log_r, log_l = np.log(mag_r), np.log(mag_l)
    y = 0.5 * (log_r + log_l)
    x_mean, y_mean = np.mean(radii), np.mean(y)
    xc, yc = radii - x_mean, y - y_mean
    sxx, sxy, syy = np.sum(xc * xc), np.sum(xc * yc), np.sum(yc * yc)
    rate = -float(sxy / sxx)
    rate_r, rate_l = (-float(np.sum(xc * side) / sxx) for side in (log_r, log_l))
    r2 = min(1.0, float(sxy * sxy / (sxx * syy))) if syy > 0.0 else 1.0
    scale = max(abs(rate_r), abs(rate_l), 1e-30)
    flags = ("asymmetric-tails",) if abs(rate_r - rate_l) > _ASYMMETRY_LIMIT * scale else ()
    return TailFit(rate=rate, intercept=float(y_mean + rate * x_mean), r2=r2, flags=flags)


def support_radius(f: Field, *more: Field, threshold: float) -> float:
    """Smallest R with max(|f|, |g|, ...) < threshold beyond |x| > R: the
    thresholded joint support of one or more fields on one grid.

    Returns 0 for fields below threshold everywhere and L/2 when even the
    outermost grid point is above it.
    """
    check_threshold(threshold)
    mags = np.abs(f.values)
    for g in more:
        if g.grid != f.grid:
            raise PreconditionError("field.grid", "fields of one support must share one grid")
        mags = np.maximum(mags, np.abs(g.values))
    above = mags >= threshold
    if not np.any(above):
        return 0.0
    return float(np.max(np.abs(f.grid.x[above])))


def _floor_strip_edge(grid) -> float:
    """|x| where the outer L/16 strips read by :func:`boundary_floor` begin."""
    return grid.L / 2.0 - grid.L / 16.0


def boundary_floor(f: Field) -> float:
    """max |f| over the outer L/16 strips of the domain.

    Experiments assert this stays below 1e-10 of the field peak; larger
    values mean periodic wrap-around has contaminated the run.
    """
    grid = f.grid
    strip = np.abs(grid.x) >= _floor_strip_edge(grid)
    return float(np.max(np.abs(f.values[strip])))


"""Support, leakage and tail measurements shared by all experiments.

Support is thresholded everywhere except the stencil bound of the local
evolution, which is asserted at exact zero; floating point makes exact
zero-sets meaningful only for stencil schemes.  Tail fits symmetrize the
left and right tails by averaging log-magnitudes; a left/right rate
mismatch above 10% is flagged.  :func:`support_report` returns the
``witness_report.json`` payload: the support radius and the tail fit
under one ``schema``.

A practical note on fit windows: multiplier kernels built from
sqrt(p^2 + m^2) produce tails |f| ~ exp(-m |x|) |x|^(-3/2), so a pure
log-linear fit reads high by roughly 1.5 <1/|x|> over the window.  Fits
meant to resolve the Compton rate m should therefore start several
Compton lengths beyond the support edge and use windows centered far
enough out that the algebraic correction is inside the stated band.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import Field, PreconditionError, finite_total

__all__ = [
    "TailFit",
    "cone_leakage",
    "fit_exponential_tail",
    "support_radius",
    "boundary_floor",
    "support_report",
    "check_threshold",
    "check_window",
    "radius_above",
]

REPORT_SCHEMA = "kglab.support-report/2"

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


def check_window(window: tuple[float, float]) -> None:
    """A tail-fit window [lo, hi] must satisfy 0 < lo < hi."""
    lo, hi = window
    if not 0.0 < lo < hi:
        raise PreconditionError("tail_fit.window", f"window {window} must satisfy 0 < lo < hi")


def cone_leakage(f: Field, R0: float, t: float, margin: float) -> float:
    """L2 mass fraction outside the light cone |x| <= R0 + |t| + margin;
    evolution backward in time is just as causal."""
    grid = f.grid
    edge = R0 + abs(t) + margin
    if not edge < grid.L / 2.0:
        raise PreconditionError("times.cone-edge", f"cone edge {edge} reaches the boundary L/2 = {grid.L / 2.0}")
    with np.errstate(over="ignore"):
        dens = np.abs(f.values) ** 2
        total = finite_total(np.sum(dens), "squared norm")
    if total == 0.0:
        raise PreconditionError("field.zero-norm", "cone leakage undefined for a field with zero total norm")
    outside = np.abs(grid.x) > edge
    return float(np.sum(dens[outside]) / total)


def _side_fit(radii: np.ndarray, logmags: np.ndarray) -> tuple[float, float, float]:
    slope, intercept = np.polyfit(radii, logmags, 1)
    fitted = slope * radii + intercept
    ss_res = float(np.sum((logmags - fitted) ** 2))
    ss_tot = float(np.sum((logmags - np.mean(logmags)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 and ss_res == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


def fit_exponential_tail(f: Field, window: tuple[float, float]) -> TailFit:
    """Fit log|f| against |x| over the window, symmetrized over both sides."""
    check_window(window)
    lo, hi = window
    grid = f.grid
    x = grid.x
    right = np.flatnonzero((x >= lo) & (x <= hi))
    if right.size < 16:
        raise PreconditionError(
            "tail_fit.window.points", f"window {window} holds {right.size} grid points per side, need >= 16"
        )
    left = (grid.n - right) % grid.n
    mag_r = np.abs(f.values[right])
    mag_l = np.abs(f.values[left])
    if np.any(mag_r <= _TAIL_FLOOR) or np.any(mag_l <= _TAIL_FLOOR):
        raise PreconditionError("tail_fit.window.zero", "zero magnitude inside the fit window; tail fit rejected")
    radii = x[right]
    log_r = np.log(mag_r)
    log_l = np.log(mag_l)
    slope, intercept, r2 = _side_fit(radii, 0.5 * (log_r + log_l))
    rate_r = -_side_fit(radii, log_r)[0]
    rate_l = -_side_fit(radii, log_l)[0]
    scale = max(abs(rate_r), abs(rate_l), 1e-30)
    flags = ("asymmetric-tails",) if abs(rate_r - rate_l) > _ASYMMETRY_LIMIT * scale else ()
    return TailFit(rate=-slope, intercept=intercept, r2=r2, flags=flags)


def radius_above(grid, mags: np.ndarray, threshold: float) -> float:
    """Smallest R with mags < threshold beyond |x| > R (0 if nowhere above)."""
    check_threshold(threshold)
    above = mags >= threshold
    if not np.any(above):
        return 0.0
    return float(np.max(np.abs(grid.x[above])))


def support_radius(f: Field, threshold: float) -> float:
    """Smallest R with max |f| < threshold beyond |x| > R (thresholded support)."""
    return radius_above(f.grid, np.abs(f.values), threshold)


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


def support_report(f: Field, *, threshold: float, window: tuple[float, float]) -> dict:
    """The thresholded support radius and the tail fit as one JSON payload,
    for ``kglab.io.write_json``."""
    radius = support_radius(f, threshold)
    flags: list[str] = []
    if radius >= f.grid.L / 2.0:
        flags.append("nowhere-below-threshold")
    tail = fit_exponential_tail(f, window)
    flags.extend(tail.flags)
    return {
        "support_radius": radius,
        "tail_rate": tail.rate,
        "tail_intercept": tail.intercept,
        "fit_r2": tail.r2,
        "window": list(window),
        "flags": flags,
        "schema": REPORT_SCHEMA,
    }

"""Relativistic dispersion omega(p) = sqrt(p^2 + m^2) and the field mass.

Applied diagonally in the momentum basis, omega is the square-root
Hamiltonian of the first-order evolution i d/dt psi = omega psi.  It is
nonlocal in position space: acting on any compactly supported state it
produces Compton-scale tails exp(-m |x|), which is the mechanism behind
every acausality diagnostic in this package.

omega is even in p bit for bit: ``grid.p[n - k] == -grid.p[k]`` exactly
and hypot ignores the sign.  So every grid multiplier that is a function
of omega alone goes through :func:`omega_multiplier`, which evaluates it
on the modes k = 0 .. n/2 only and mirrors the result onto the negative
momenta (:func:`phase_multiplier` does so for exp(-i w t) in one buffer).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spectral import PreconditionError, UniformGrid

__all__ = ["Mass", "omega", "omega_multiplier", "phase_multiplier"]


@dataclass(frozen=True)
class Mass:
    """Field mass in natural units (inverse length), m >= 0."""

    m: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.m) and self.m >= 0.0):
            raise PreconditionError("mass", f"mass must be finite and non-negative, got {self.m}")

    def require_positive(self, what: str) -> None:
        """The m > 0 rule of everything that divides by omega(0) = m."""
        if not self.m > 0:
            raise PreconditionError("mass.positive", f"{what} needs m > 0, got {self.m}")

    @property
    def compton_wavelength(self) -> float:
        self.require_positive("the Compton wavelength")
        return 1.0 / self.m


def omega(p, m: Mass):
    """Single-particle energy sqrt(p^2 + m^2); even in p, equal to |p| at m=0."""
    return np.hypot(p, m.m)


@lru_cache(maxsize=4)
def _half_omega(n: int, dx: float, m: Mass) -> np.ndarray:
    """omega on the modes k = 0 .. n/2 (k = n/2 is the Nyquist bin) of the
    grid (n, dx), read-only.  Keyed on the grid's numbers, not on the grid:
    a cached grid would keep its full-lattice x and p alive."""
    w = omega(UniformGrid(n, dx).p[: n // 2 + 1], m)
    w.flags.writeable = False
    return w


def omega_multiplier(grid, m: Mass, fn) -> np.ndarray:
    """fn(omega) on every mode of ``grid``, indexed like ``grid.p``.

    fn acts elementwise and receives the read-only omega on the modes
    k = 0 .. n/2, cached per (n, dx, mass) a few grids deep.  Its result is
    mirrored onto the negative momenta, so it equals fn(omega(grid.p, m))
    bit for bit at half the cost.
    """
    half = fn(_half_omega(grid.n, grid.dx, m))
    return np.concatenate((half, half[-2:0:-1]))


def phase_multiplier(grid, m: Mass, t: float) -> np.ndarray:
    """np.exp(-1j * w * t) bit for bit, indexed like ``grid.p``: cos and sin
    of the phase 0.0 - w t (+0.0 at w t = 0) go into the two parts of one new
    complex128 array on k = 0 .. n/2, mirrored in place."""
    h = grid.n // 2 + 1
    out = np.empty(grid.n, dtype=np.complex128)
    re, im = out.real[:h], out.imag[:h]
    np.multiply(_half_omega(grid.n, grid.dx, m), t, out=re)
    np.sin(np.subtract(0.0, re, out=im), out=im)
    np.cos(re, out=re)
    out[h:] = out[h - 2 : 0 : -1]
    return out

"""Relativistic dispersion omega(p) = sqrt(p^2 + m^2) and the field mass.

Applied diagonally in the momentum basis, omega is the square-root
Hamiltonian of the first-order evolution i d/dt psi = omega psi.  It is
nonlocal in position space: acting on any compactly supported state it
produces Compton-scale tails exp(-m |x|), which is the mechanism behind
every acausality diagnostic in this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import PreconditionError

__all__ = ["Mass", "omega"]


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


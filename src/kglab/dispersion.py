"""Relativistic dispersion omega(p) = sqrt(p^2 + m^2) and its powers as
spectral multipliers.

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

from .spectral import Field, PreconditionError, SpectralField, inverse_transform

__all__ = ["Mass", "omega", "apply_omega_power", "OMEGA_EXPONENTS"]

#: the only multiplier powers the laboratory needs (evolution, projection,
#: norm weighting); arbitrary real powers are rejected to keep the
#: contract testable
OMEGA_EXPONENTS = (1.0, -1.0, 0.5, -0.5)

#: absolute ceiling on the zero-mode coefficient below which a massless
#: negative power is still well defined (the mode is dropped)
ZERO_MODE_TOL = 1e-14


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


def apply_omega_power(f: Field, m: Mass, s: float) -> Field:
    """Multiply the momentum coefficients (the cached ``f.spectrum``) by
    omega(p, m)**s.

    s must be one of ``OMEGA_EXPONENTS``.  For s < 0 at m = 0 the zero
    mode is an infrared singularity; it is only accepted when its
    coefficient is below ``ZERO_MODE_TOL`` in magnitude, in which case it
    is dropped.
    """
    if s not in OMEGA_EXPONENTS:
        raise PreconditionError("omega.exponent", f"unsupported exponent {s}; allowed: {OMEGA_EXPONENTS}")
    w = omega(f.grid.p, m)
    coeffs = f.spectrum.coefficients.copy()
    if s < 0 and m.m == 0.0:
        if abs(coeffs[0]) >= ZERO_MODE_TOL:
            raise PreconditionError(
                "omega.infrared",
                "infrared singularity: massless negative power with zero-mode "
                f"coefficient {abs(coeffs[0])} >= {ZERO_MODE_TOL}",
            )
        coeffs[0] = 0.0
        mult = np.ones_like(w)
        mult[1:] = w[1:] ** s
        mult[0] = 0.0
    else:
        mult = w**s
    return inverse_transform(SpectralField(f.grid, coeffs * mult))

"""Positive/negative frequency decomposition and the first-order nonlocal
flow i d/dt psi = omega psi.

Mode convention (m > 0):

    psi_plus_k  = (Phi_k + i Pi_k / w) / 2,
    psi_minus_k = (Phi_k - i Pi_k / w) / 2,

so that psi_plus + psi_minus = Phi and -i w (psi_plus - psi_minus) = Pi
exactly, and evolving the branches with exp(-i w t) / exp(+i w t) and
recombining reproduces the exact second-order evolution, pure mode
algebra.

Spectral positivity is what breaks causality here.  A state may be
compactly supported at one instant, but its forced time derivative
-i omega psi cannot be: omega Phi-hat is not analytic, so the derivative
grows Compton tails exp(-m |x|), and the first-order flow leaks L2 mass
outside the light cone immediately, at any t > 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dispersion import Mass, apply_omega_power, omega
from .evolution import CauchyData, check_margin
from .spectral import Field, PreconditionError, SpectralField, forward_transform, inverse_transform

__all__ = [
    "FrequencySplit",
    "project_positive",
    "evolve_positive",
    "positivity_tail_witness",
    "recombine",
]


@dataclass(frozen=True, eq=False)
class FrequencySplit:
    """Positive and negative frequency amplitudes of one Cauchy datum."""

    psi_plus: Field
    psi_minus: Field
    m: Mass

    def __post_init__(self) -> None:
        if self.psi_plus.grid != self.psi_minus.grid:
            raise PreconditionError("split.grid", "frequency branches must share one grid")

    @property
    def grid(self):
        return self.psi_plus.grid


def project_positive(data: CauchyData) -> FrequencySplit:
    """Split Cauchy data into frequency branches (m > 0; 1/w is singular at m = 0)."""
    data.m.require_positive("frequency projection (1/omega is singular on the zero mode)")
    grid = data.grid
    w = omega(grid.p, data.m)
    F = forward_transform(data.phi).coefficients
    P = forward_transform(data.pi).coefficients
    plus = 0.5 * (F + 1j * P / w)
    minus = 0.5 * (F - 1j * P / w)
    return FrequencySplit(
        psi_plus=inverse_transform(SpectralField(grid, plus)),
        psi_minus=inverse_transform(SpectralField(grid, minus)),
        m=data.m,
    )


def evolve_positive(psi: Field, m: Mass, t: float) -> Field:
    """First-order flow psi_k(t) = exp(-i w t) psi_k(0); unitary per mode."""
    grid = psi.grid
    check_margin(grid, t)
    w = omega(grid.p, m)
    coeffs = forward_transform(psi).coefficients * np.exp(-1j * w * t)
    return inverse_transform(SpectralField(grid, coeffs))


def recombine(split: FrequencySplit, t: float) -> CauchyData:
    """Evolve both branches and reassemble (Phi, Pi) at time t."""
    grid = split.grid
    w = omega(grid.p, split.m)
    plus = forward_transform(split.psi_plus).coefficients * np.exp(-1j * w * t)
    minus = forward_transform(split.psi_minus).coefficients * np.exp(1j * w * t)
    phi = inverse_transform(SpectralField(grid, plus + minus))
    pi = inverse_transform(SpectralField(grid, -1j * w * (plus - minus)))
    return CauchyData(phi, pi, split.m, t0=t)


def positivity_tail_witness(phi_compact: Field, m: Mass) -> Field:
    """Time derivative Pi = -i omega Phi forced by pure positive frequency.

    For compactly supported input the output cannot be: its support radius
    strictly exceeds the input radius and the tail decays at the Compton
    rate m (with an algebraic |x|^(-3/2) correction, see the diagnostics
    module notes on fit windows).
    """
    m.require_positive("the tail witness")
    scaled = apply_omega_power(phi_compact, m, 1.0)
    return Field(phi_compact.grid, -1j * scaled.values)

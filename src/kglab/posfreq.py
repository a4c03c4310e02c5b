"""The first-order nonlocal flow i d/dt psi = omega psi of the
positive-frequency sector.

A positive-frequency amplitude evolves mode by mode as
psi_k(t) = exp(-i w t) psi_k(0).  Spectral positivity is what breaks
causality here.  A state may be compactly supported at one instant, but
its forced time derivative -i omega psi cannot be: omega Phi-hat is not
analytic, so the derivative grows Compton tails exp(-m |x|), and the
first-order flow leaks L2 mass outside the light cone immediately, at
any t > 0.

Both operations multiply the cached coefficient array ``Field.spectrum``
of their input (by exp(-i w t) from :func:`~kglab.dispersion.phase_multiplier`,
by w in the tail witness, which applies its -i to a copy of the samples) and
take one inverse transform in the product's own buffer, so a state evolved
to a time ladder and fed to the witness is transformed once; take that spectrum
before the ladder fans out over threads (see :class:`~kglab.spectral.Field`).
"""

from __future__ import annotations

from .dispersion import Mass, omega_multiplier, phase_multiplier
from .evolution import check_margin
from .spectral import Field, inverse_transform

__all__ = ["evolve_positive", "positivity_tail_witness"]


def evolve_positive(psi: Field, m: Mass, t: float) -> Field:
    """First-order flow psi_k(t) = exp(-i w t) psi_k(0); unitary per mode."""
    grid = psi.grid
    check_margin(grid, t)
    # keep spectrum * <fresh array>: from n = 2^14 numpy swaps the operands to multiply in place
    coeffs = psi.spectrum * phase_multiplier(grid, m, t)
    return inverse_transform(psi, coeffs, coeffs)


def positivity_tail_witness(phi_compact: Field, m: Mass) -> Field:
    """Time derivative Pi = -i omega Phi forced by pure positive frequency.

    For compactly supported input the output cannot be: its support radius
    strictly exceeds the input radius and the tail decays at the Compton
    rate m (with an algebraic |x|^(-3/2) correction, see the diagnostics
    module notes on fit windows).
    """
    m.require_positive("the tail witness")
    coeffs = phi_compact.spectrum * omega_multiplier(phi_compact.grid, m, lambda w: w)
    derivative = inverse_transform(phi_compact, coeffs, coeffs)
    # -1j goes on the samples: inside the inverse FFT it flips the sign of some exact zeros
    return Field(phi_compact.grid, -1j * derivative.values)

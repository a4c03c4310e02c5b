"""kglab: a numerical laboratory for the causal structure of the 1+1
dimensional Klein-Gordon equation.

The package puts two facts side by side, each as an executable check:

* second-order Cauchy evolution is causal with respect to the joint
  support of (Phi, dPhi/dt), exactly so for the local stencil scheme and
  to spectral accuracy for the exact mode evolution, with the light-cone
  support of the Pauli-Jordan commutator kernel verified by quadrature;

* the positive-frequency sector evolved by the nonlocal Hamiltonian
  sqrt(p^2 + m^2) spreads instantly: a state compactly supported at one
  instant leaks outside its light cone at any t > 0, with exponential
  tails on the Compton scale 1/m.

All operations are pure functions of immutable values and use no
randomness; see the README for the CLI experiment runner.
"""

from .spectral import (
    UniformGrid,
    Field,
    forward_transform,
    inverse_transform,
    make_bump,
)
from .dispersion import Mass, omega
from .evolution import (
    CauchyData,
    evolve_spectral,
    evolve_from_rest,
    evolve_local_fd_ladder,
    local_fd_steps,
    energy,
    leapfrog_energy,
)
from .propagator import (
    QuadratureSpec,
    PropagatorSample,
    delta_plus,
    pauli_jordan,
    spacelike_suppression_scan,
    bridge_identity_error,
)
from .posfreq import evolve_positive, positivity_tail_witness
from .diagnostics import (
    TailFit,
    cone_leakage,
    fit_exponential_tail,
    support_radius,
    boundary_floor,
    support_report,
)

__version__ = "0.1.0"

__all__ = [
    "UniformGrid",
    "Field",
    "forward_transform",
    "inverse_transform",
    "make_bump",
    "Mass",
    "omega",
    "CauchyData",
    "evolve_spectral",
    "evolve_from_rest",
    "evolve_local_fd_ladder",
    "local_fd_steps",
    "energy",
    "leapfrog_energy",
    "QuadratureSpec",
    "PropagatorSample",
    "delta_plus",
    "pauli_jordan",
    "spacelike_suppression_scan",
    "bridge_identity_error",
    "evolve_positive",
    "positivity_tail_witness",
    "TailFit",
    "cone_leakage",
    "fit_exponential_tail",
    "support_radius",
    "boundary_floor",
    "support_report",
]

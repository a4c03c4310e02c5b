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
randomness; see the README for the CLI experiment runner.  Each public
name is imported from its module (``from kglab.spectral import Field``),
whose ``__all__`` is its one export list; the package itself exports
only ``__version__``.
"""

__version__ = "0.1.0"

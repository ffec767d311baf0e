"""Coherent states of a relativistic spinless particle with scalar potentials.

Modules:
  numerics       special-function and linear-algebra kernels
  linear_osc     linear scalar potential S = k|x| - m (closed-form series)
  poschl_teller  relativistic Poschl-Teller model and its measure
  evolution      both models' coherent states, ladder and evolution; grid oracle
  oracle         finite-difference spectral solver for H_s
  verify         named verification suites
  cli            command-line front end
"""

from . import evolution, linear_osc, numerics, oracle, poschl_teller
from .linear_osc import CoherentSpec, LinearModel
from .poschl_teller import PTModel

__version__ = "0.1.0"

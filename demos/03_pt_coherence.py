"""Temporal stability of Poschl-Teller coherent states.

The PT spectrum is exactly equally spaced, so a coherent state evolves by
rotating its label, alpha -> alpha e^{-i omega t}, up to a global phase
e^{-i omega lambda t}.  This script verifies the eigenstate property of the
lowering operator, then walks the state around a full period and confirms
it returns to itself.

Run:  python3 demos/03_pt_coherence.py
"""

import math

import numpy as np

from kgcoherent import poschl_teller as pt
from kgcoherent.poschl_teller import PTModel

model = PTModel(m=1.0, omega=1.0)
alpha = 1.0 + 2.0j
state = pt.coherent_coefficients(model, alpha, 60)

out = pt.apply_annihilation(model, state.coefficients)
res = np.linalg.norm(out - alpha * state.coefficients)
print(f"lambda = {model.lam:.12f}")
print(f"|A psi - alpha psi| = {res:.3e}  (eigenstate of the lowering operator)")
print(f"norm of coefficients: {np.sum(np.abs(state.coefficients)**2):.15f}")

print("\nphase coherence along one period:")
times = np.linspace(0.0, 2.0 * math.pi / model.omega, 9)
for t, dev in zip(times, pt.phase_coherence_check(model, alpha, 60, times)):
    print(f"  t = {t:7.4f}   |psi(t) - phase * psi_rotated| = {dev:.3e}")

# the label completes a circle; the state picks up exp(-2 pi i lambda)
t_full = 2.0 * math.pi / model.omega
evolved = pt.evolve(state, t_full)
phase = np.exp(-1j * model.omega * model.lam * t_full)
print(f"\nafter one period: max deviation from global phase "
      f"{np.max(np.abs(evolved - phase * state.coefficients)):.3e}")

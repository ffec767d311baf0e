"""Cross-checking the closed-form series against grid quadrature.

The linear-potential expectation values have two independent routes: the
spectral series in the eigenbasis, and direct quadrature of the synthesized
wavefunction on a grid (derivatives by finite differences for momentum).
Agreement at the 1e-6 level over a lattice of amplitudes and times is the
strongest internal consistency check in the package.

Run:  python3 demos/05_grid_oracle.py
"""

import numpy as np

from kgcoherent import evolution, linear_osc
from kgcoherent.linear_osc import CoherentSpec, LinearModel

model = LinearModel(1.0, 1.0)
grid = evolution.default_grid(model)

print(f"{'alpha':>10} {'t':>6} {'<x> series':>12} {'<x> grid':>12} "
      f"{'<p^2> series':>13} {'<p^2> grid':>13}")
worst = 0.0
for alpha in (0.1 + 0.2j, 1 + 2j, 2 - 1j):
    spec = CoherentSpec(alpha, 50)
    state = evolution.coherent_coefficients(model, alpha, spec.truncation)
    for t in (0.0, 0.7, 3.1, 12.9):
        f = evolution.synthesize(state, grid, t)
        gx, gx2, _ = evolution.position_moments(f)
        gp, gp2 = evolution.momentum_moments(f)
        sx, sp, sx2, sp2 = linear_osc.expectation_series(model, spec, t)
        print(f"{str(alpha):>10} {t:>6.1f} {sx:>12.8f} {gx:>12.8f} "
              f"{sp2:>13.8f} {gp2:>13.8f}")
        for got, want in zip((gx, gp, gx2, gp2), (sx, sp, sx2, sp2)):
            worst = max(worst, abs(got - want) / max(abs(want), 1e-2))

print(f"\nworst scaled deviation over the lattice: {worst:.3e}")

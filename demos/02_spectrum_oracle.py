"""Finite-difference check of the analytic spectra.

Assembles the reduced Schrodinger operator

    H_s = -(1/2m) d^2/dx^2 + (m + S(x))^2 / (2m)

with Dirichlet walls for both scalar potentials, extracts the lowest
eigenvalues by Sturm bisection, maps them to energies E = sqrt(2 m eps),
and compares against the closed forms

    linear:  E_n = sqrt((2n+1) k)
    PT:      E_n = omega (n + lambda)

The linear potential uses uniform nodes.  The Poschl-Teller nodes
x = L sin(pi s / 2), s uniform in [-1, 1], put the walls at the end nodes
+/-L and cluster nodes next to the 1/d^2 wall singularity.  Two resolutions
give the empirical convergence order, which sits near 2 for the three-point
stencil, also for lambda close to 1.

Run:  python3 demos/02_spectrum_oracle.py
"""

from kgcoherent import oracle
from kgcoherent.linear_osc import LinearModel
from kgcoherent.poschl_teller import PTModel


def show(label, spec, analytic):
    rep = oracle.spectrum_compare(spec, analytic)
    print(f"{label}:")
    for n, (fd, ex) in enumerate(zip(rep["energies_fd"], analytic)):
        print(f"  n={n}  fd={fd:.8f}  analytic={ex:.8f}  "
              f"rel err {abs(fd - ex) / ex:.2e}")
    print(f"  max rel error {rep['max_rel_error']:.2e}, "
          f"convergence order {rep['convergence_order']:.3f}\n")


linear = LinearModel(1.0, 1.0)
show("linear S(x) = k|x| - m", oracle.linear_potential(count=2001),
     linear.energies(5))

pt = PTModel(1.0, 1.0)
print(f"PT lambda = {pt.lam:.12f} (golden ratio at m = omega = 1)")
show("relativistic Poschl-Teller", oracle.pt_potential(count=2001),
     pt.energies(5))

light = PTModel(0.5, 2.0)
show(f"Poschl-Teller, m < omega (lambda = {light.lam:.6f})",
     oracle.pt_potential(light.m, light.omega, 2001), light.energies(5))

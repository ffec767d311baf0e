"""Independent finite-difference spectral solver for H_s.

Discretizes H_s = -(1/2m) d^2/dx^2 + (m + S(x))^2 / (2m) with Dirichlet
boundaries by the three-point scheme on increasing nodes and extracts the
lowest eigenvalues by Sturm bisection.  Poschl-Teller nodes cluster at the
walls +/-L (the end nodes), so the 1/d^2 singularity converges at second
order (Boyd, Chebyshev and Fourier Spectral Methods, 2nd ed., ch. 16).  Used
to validate every analytic spectrum from a route that shares no code with them.

spectrum_compare solves three grids: a rough one with 1/ROUGH_FACTOR of
the coarse grid's intervals, to the loose ROUGH_TOL, then the coarse and
the fine one (REFINE_FACTOR times the coarse intervals) to TOL, or to
REL_TOL times the lowest level where that is smaller.
Only the coarse and fine levels are reported.  The rough levels place the
coarse solve's first probes, and the Richardson prediction from the rough
and coarse levels places the fine solve's, so both hinted solves start
close to their levels; Sturm counts alone decide every level.

The node map (PotentialSpec.warp) must be odd, and the uniform parameter s
is made exactly odd, so on a grid centred at 0 the nodes are exact mirror
images.  Then an even potential, as both of the paper's are, gives a
mirror-symmetric matrix, which numerics.sturm_count splits into its even
and odd sectors, so a Sturm pass steps about a quarter of the rows; the
split reads only the matrix, never a closed form.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .numerics import Grid, TridiagonalMatrix, tridiag_smallest_eigenvalues

__all__ = [
    "PotentialSpec",
    "linear_potential",
    "pt_potential",
    "build_hamiltonian",
    "fd_schrodinger_eigenvalues",
    "spectrum_compare",
]

REFINE_FACTOR = 2  # fine/coarse interval ratio of spectrum_compare
ROUGH_FACTOR = 8  # coarse/rough interval ratio of spectrum_compare's hint grid
ROUGH_TOL = 1e-7  # Sturm tolerance of the rough grid, whose levels are only hints
TOL = 1e-10  # Sturm tolerance of the coarse and fine grids ...
REL_TOL = 1e-9  # ... or this share of their lowest level, if smaller


@dataclass(frozen=True)
class PotentialSpec:
    """Mass, scalar potential callable, and discretization domain."""

    m: float
    s: object  # callable x-array -> S(x)
    grid: Grid
    label: str = "custom"
    warp: object = np.positive  # odd, increasing map of [-1, 1] onto itself

    def refined(self, factor):
        g = self.grid
        return replace(self, grid=Grid(g.x_min, g.x_max, factor * (g.count - 1) + 1))

    def nodes(self):
        """Grid centre + half-width * warp(s), s uniform in [-1, 1].

        s is antisymmetrized, which linspace alone is not to the last bit, so
        an odd warp on a grid centred at 0 gives nodes with x == -x[::-1]
        exactly and an even potential a mirror-symmetric Hamiltonian.
        """
        g = self.grid
        half = 0.5 * (g.x_max - g.x_min)
        s = np.linspace(-1.0, 1.0, g.count)
        return (g.x_min + half) + half * self.warp(0.5 * (s - s[::-1]))


def linear_potential(m=1.0, k=1.0, count=4001):
    """S(x) = k|x| - m on a box wide enough that the wall is invisible."""
    half = 12.0 / math.sqrt(k)
    return PotentialSpec(m, lambda x: k * np.abs(x) - m,
                         Grid(-half, half, count), "linear")


def pt_potential(m=1.0, omega=1.0, count=4001):
    """S(x) = -m + m/cos(omega x) on nodes x = L sin(pi s / 2), walls at +/-L."""
    half = math.pi / (2.0 * omega)
    return PotentialSpec(m, lambda x: -m + m / np.cos(omega * x),
                         Grid(-half, half, count), "poschl-teller",
                         lambda s: np.sin(0.5 * math.pi * s))


def build_hamiltonian(spec):
    """Dirichlet tridiagonal discretization of H_s on the interior nodes.

    With h = diff(x) and node weights w_j = (h_{j-1/2} + h_{j+1/2}) / 2, a
    w^{-1/2} similarity keeps it symmetric; uniform h gives 1/(m h^2), -1/(2 m h^2).
    """
    if spec.grid.count - 2 < 100:
        raise ValueError("need at least 100 interior points")
    x = spec.nodes()
    s = np.asarray(spec.s(x[1:-1]), dtype=float)
    if np.any(~np.isfinite(s)):
        raise ValueError("potential is singular on an interior grid point")
    h = np.diff(x)
    w = 0.5 * (h[:-1] + h[1:])
    m = spec.m
    diag = (1.0 / h[:-1] + 1.0 / h[1:]) / (2.0 * m * w) + (m + s) ** 2 / (2.0 * m)
    off = -1.0 / (2.0 * m * h[1:-1] * np.sqrt(w[:-1] * w[1:]))
    return TridiagonalMatrix(diag, off)


def fd_schrodinger_eigenvalues(spec, count):
    """The lowest `count` eigenvalues epsilon_n of the discretized H_s, to TOL."""
    return tridiag_smallest_eigenvalues(build_hamiltonian(spec), count, tol=TOL)


def spectrum_compare(spec, analytic_energies):
    """FD spectrum vs analytic E_n (at most 20) at two resolutions, hinted by a third.

    Converts FD eigenvalues to energies via E = sqrt(2 m epsilon), reports
    relative errors on the fine grid and the empirical convergence order
    from the coarse/fine pair.  Orders below 1.5 mark the run as failed.
    "energies_extrapolated" removes the scheme's h^2 term by Richardson
    extrapolation, (4 E_fine - E_coarse) / 3 for REFINE_FACTOR 2, so its
    relative errors show what the two solves' tolerance and the O(h^4)
    remainder leave.

    Three grids are solved, and only the coarse and fine ones are reported.
    A rough grid of 1/ROUGH_FACTOR the coarse grid's intervals (at least
    101, build_hamiltonian's minimum) is solved to ROUGH_TOL, and the
    coarse solve is hinted within 1% (at least 1e-3) of its levels.  The
    fine solve is hinted about the Richardson prediction of the fine levels
    from the rough and coarse ones, within 4 times the predicted shift (at
    least 1e-7).  Hints only place the first pass's probes and Sturm counts
    alone move a bracket, so a hint that misses its level costs passes,
    never accuracy.  "sturm_passes" holds the Sturm passes of the rough,
    coarse and fine solves.

    The coarse and fine grids are solved to "tol" = min(TOL, REL_TOL L),
    with L the lowest rough level less ROUGH_TOL / 2, a lower bound of the
    rough grid's lowest eigenvalue: an absolute TOL would be a large share
    of the h^2 change that the order reads where the levels are small
    (linear levels are (2n + 1) k / (2m)).  Where L is not positive the
    rough solve gives no scale, and tol is the smallest normal float, so
    brackets close only when no float lies inside them.
    """
    analytic = np.asarray(analytic_energies, dtype=float)
    n_count = analytic.size
    if n_count > 20:
        raise ValueError(f"the oracle compares at most 20 levels, got {n_count}")
    rough, coarse, fine = {}, {}, {}
    intervals = spec.grid.count - 1
    rough_spec = replace(spec, grid=replace(
        spec.grid, count=max(intervals // ROUGH_FACTOR, 101) + 1))
    eps_rough = tridiag_smallest_eigenvalues(
        build_hamiltonian(rough_spec), n_count, tol=ROUGH_TOL, stats=rough)
    floor = float(eps_rough[0]) - 0.5 * ROUGH_TOL
    tol = min(TOL, REL_TOL * floor) if floor > 0.0 else float(np.finfo(float).tiny)
    width = np.maximum(1e-2 * np.abs(eps_rough), 1e-3)
    eps_coarse = tridiag_smallest_eigenvalues(
        build_hamiltonian(spec), n_count, tol=tol,
        brackets=(eps_rough - width, eps_rough + width), stats=coarse)
    # epsilon(h) = epsilon* + C h^2 + O(h^4): the rough-to-coarse change is
    # (1 - R^2) C h^2 for R = h_rough / h, the coarse-to-fine one
    # (1/REFINE_FACTOR^2 - 1) C h^2.  A 102-point coarse grid is its own
    # rough grid (R = 1), which predicts nothing
    ratio2 = (intervals / (rough_spec.grid.count - 1)) ** 2
    gain = (1.0 - REFINE_FACTOR ** -2) / (ratio2 - 1.0) if ratio2 > 1.0 else 0.0
    shift = gain * (eps_coarse - eps_rough)
    width = np.maximum(4.0 * np.abs(shift), 1e-7)
    eps_fine = tridiag_smallest_eigenvalues(
        build_hamiltonian(spec.refined(REFINE_FACTOR)), n_count, tol=tol,
        brackets=(eps_coarse + shift - width, eps_coarse + shift + width),
        stats=fine)
    e_coarse = np.sqrt(2.0 * spec.m * eps_coarse)
    e_fine = np.sqrt(2.0 * spec.m * eps_fine)
    r2 = REFINE_FACTOR ** 2
    e_extrap = (r2 * e_fine - e_coarse) / (r2 - 1)
    err_coarse = np.abs(e_coarse - analytic) / analytic
    err_fine = np.abs(e_fine - analytic) / analytic
    err_extrap = np.abs(e_extrap - analytic) / analytic
    with np.errstate(divide="ignore", invalid="ignore"):
        orders = np.log(err_coarse / err_fine) / math.log(REFINE_FACTOR)
    orders = orders[np.isfinite(orders)]
    order = float(np.median(orders)) if orders.size else float("nan")
    return {
        "label": spec.label,
        "energies_fd": e_fine,
        "energies_analytic": analytic,
        "rel_errors": err_fine,
        "max_rel_error": float(np.max(err_fine)),
        "energies_extrapolated": e_extrap,
        "rel_errors_extrapolated": err_extrap,
        "max_rel_error_extrapolated": float(np.max(err_extrap)),
        "convergence_order": order,
        "converged": bool(order >= 1.5),
        "tol": tol,
        "sturm_passes": {"rough": rough["passes"], "coarse": coarse["passes"],
                         "fine": fine["passes"]},
    }

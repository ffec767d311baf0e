"""Truncated-basis state machinery and quadrature moments.

This is the model-independent oracle: synthesize psi(x, t) on a grid from
coefficients and eigenfunctions, then read <x>, <x^2>, <p>, <p^2> off the
samples (Simpson quadrature, 4th-order finite-difference derivative).
All closed-form expectation series elsewhere are cross-checked against it.
tail_bound bounds the norm a truncated coherent state drops, from its model's law.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .linear_osc import LinearModel
from .numerics import Grid, GridFunction, quadrature

__all__ = [
    "StateVector",
    "SupportError",
    "make_state",
    "default_grid",
    "synthesize",
    "position_moments",
    "momentum_moments",
    "heisenberg_product",
    "lowering_residual",
    "tail_bound",
    "smallest_truncation",
]

HEISENBERG_FLOOR = 0.5 * (1.0 - 1e-5)
_SYNTH_ROWS = 8  # eigenfunction rows per matrix product in synthesize


class SupportError(RuntimeError):
    """The grid fails to contain the state (norm loss or boundary leak)."""


@dataclass(frozen=True)
class StateVector:
    """Coefficients over energy eigenstates of one analytic model."""

    model: object
    coefficients: np.ndarray = field(repr=False)
    energies: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=complex)
        e = np.asarray(self.energies, dtype=float)
        if c.shape != e.shape or c.ndim != 1:
            raise ValueError("coefficients and energies must match in length")
        object.__setattr__(self, "coefficients", c)
        object.__setattr__(self, "energies", e)


def make_state(model, coefficients):
    """Bundle model, coefficients, and the matching energies."""
    coefficients = np.asarray(coefficients, dtype=complex)
    n_max = coefficients.size - 1
    return StateVector(model, coefficients, model.energies(n_max))


def default_grid(model, count=4001):
    """Grid covering the state support: [-model.half_width, model.half_width]."""
    return Grid(-model.half_width, model.half_width, count)


def synthesize(state, grid, t):
    """psi(x, t) = sum_n c_n e^{-i E_n t} u_n(x) sampled on the grid.

    The eigenfunctions come from the model's recursion one row at a time and
    are summed _SYNTH_ROWS rows per matrix product, so the levels x points
    basis (1.6 MB for 51 levels on 4001 points) is never held at once.
    """
    x = grid.points()
    if not isinstance(state.model, LinearModel):
        half = state.model.half_width
        if grid.x_min < -half - 1e-12 or grid.x_max > half + 1e-12:
            raise ValueError("grid exceeds the hard-wall support")
    weights = state.coefficients * np.exp(-1j * state.energies * float(t))
    # the rows are real: real and imaginary weights in one real product
    w = np.stack([weights.real, weights.imag])
    psi = np.zeros((2, x.size))
    block = np.empty((_SYNTH_ROWS, x.size))
    n_max = weights.size - 1
    for n, row in enumerate(state.model.eigenfunction_rows(n_max, x)):
        block[n % _SYNTH_ROWS] = row
        if n % _SYNTH_ROWS == _SYNTH_ROWS - 1 or n == n_max:
            lo = n - n % _SYNTH_ROWS
            psi += w[:, lo:n + 1] @ block[:n + 1 - lo]
    return GridFunction(grid, psi[0] + 1j * psi[1])


def position_moments(f):
    """(<x>, <x^2>, norm) of a GridFunction by Simpson quadrature."""
    x = f.grid.points()
    density = np.abs(f.values) ** 2
    norm = quadrature(GridFunction(f.grid, density)).real
    if norm <= 0.9:
        raise SupportError(f"norm {norm:.6f} <= 0.9: support truncated by grid")
    mean_x = quadrature(GridFunction(f.grid, x * density)).real / norm
    mean_x2 = quadrature(GridFunction(f.grid, x * x * density)).real / norm
    return mean_x, mean_x2, norm


def _derivative(values, h):
    """4th-order central first derivative with one-sided closures."""
    v = values
    d = np.empty_like(v)
    d[2:-2] = (v[:-4] - 8.0 * v[1:-3] + 8.0 * v[3:-1] - v[4:]) / (12.0 * h)
    # one-sided 4th-order stencils at the edges
    fwd = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / (12.0 * h)
    n = v.size
    for i in (0, 1):
        d[i] = np.dot(fwd, v[i:i + 5])
        d[n - 1 - i] = -np.dot(fwd, v[n - 1 - i::-1][:5])
    return d


def momentum_moments(f):
    """(<p>, <p^2>) via psi' : <p> = Int conj(psi)(-i psi'), <p^2> = Int |psi'|^2."""
    edge = max(abs(f.values[0]), abs(f.values[-1]))
    if edge > 1e-6:
        raise SupportError(f"boundary amplitude {edge:.2e} > 1e-6: leak off grid")
    h = f.grid.h
    norm = quadrature(GridFunction(f.grid, np.abs(f.values) ** 2)).real
    dpsi = _derivative(f.values, h)
    mean_p = quadrature(GridFunction(
        f.grid, np.conj(f.values) * (-1j) * dpsi)).real / norm
    mean_p2 = quadrature(GridFunction(f.grid, np.abs(dpsi) ** 2)).real / norm
    return mean_p, mean_p2


def heisenberg_product(state, grid, t):
    """(dx, dp, dx*dp) of the synthesized state at time t."""
    f = synthesize(state, grid, t)
    mean_x, mean_x2, _ = position_moments(f)
    mean_p, mean_p2 = momentum_moments(f)
    var_x = max(mean_x2 - mean_x * mean_x, 0.0)
    var_p = max(mean_p2 - mean_p * mean_p, 0.0)
    dx = math.sqrt(var_x)
    dp = math.sqrt(var_p)
    product = dx * dp
    if product < HEISENBERG_FLOOR:
        raise RuntimeError(
            f"Heisenberg product {product:.8f} below 1/2: numerics inconsistent")
    return dx, dp, product


def lowering_residual(state, t):
    """Distance of the evolved state from the lowering-operator eigenspace.

    Applies out_n = sqrt(n+1) c_{n+1}(t) and returns
    min_mu ||out - mu c(t)|| / ||c(t)|| (mu = <c, out>/<c, c>).
    """
    if not isinstance(state.model, LinearModel):
        raise ValueError("lowering_residual is defined for the linear model")
    c = state.coefficients * np.exp(-1j * state.energies * float(t))
    norm2 = np.vdot(c, c).real
    if norm2 == 0.0:
        raise ValueError("zero state")
    out = np.zeros_like(c)
    n_idx = np.arange(c.size - 1)
    out[:-1] = np.sqrt(n_idx + 1.0) * c[1:]
    mu = np.vdot(c, out) / norm2
    return float(np.linalg.norm(out - mu * c) / math.sqrt(norm2))


def tail_bound(model, mu, n):
    """Bound on the norm the coherent state at |alpha|^2 = mu drops past level n.

    The weights past n fall by at most q_n = model.weight_step(mu, n) per
    step, so they hold at most |c_n|^2 q_n / (1 - q_n), or inf while q_n >= 1.
    mu must be below 2^100, which keeps the levels searched below 2^102.
    """
    if mu == 0.0:
        return 0.0
    return _tail_bound(model, mu, n, _checked_log_norm(model, mu))


def smallest_truncation(model, mu, bound):
    """Smallest n >= 1 with tail_bound(model, mu, n) <= bound: the bound is inf
    until q_n < 1 and falls with n after that, so doubling and bisection find
    n in O(log n) bound evaluations and O(1) memory, all with one
    model.log_norm(mu)."""
    if mu == 0.0:
        return 1
    log_norm = _checked_log_norm(model, mu)
    lo, hi = 0, 1
    while _tail_bound(model, mu, hi, log_norm) > bound:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        passes = _tail_bound(model, mu, mid, log_norm) <= bound
        lo, hi = (lo, mid) if passes else (mid, hi)
    return hi


def _checked_log_norm(model, mu):
    if not mu < 2.0 ** 100:
        raise ValueError(f"|alpha|^2 = {mu:g} is too large to truncate (limit 2^100)")
    return model.log_norm(mu)


def _tail_bound(model, mu, n, log_norm):
    # tail_bound at mu > 0, given model.log_norm(mu)
    q = model.weight_step(mu, n)
    if q >= 1.0:
        return math.inf
    # |c_n|^2 <= 1, also where rounding of the log weights says otherwise
    log_w = min(model.log_weight(mu, n) - log_norm, 0.0)
    return math.exp(log_w) * q / (1.0 - q)

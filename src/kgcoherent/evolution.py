"""Coherent-state machinery shared by both models, and the quadrature oracle.

A model keeps only its law: energies, weight_step, log_weight and log_norm,
the lowering factor lowering(n), eigenfunction rows, half_width and its hard
wall (inf for the linear model).  From these, a read-only ladder per (model,
truncation) holds the levels, log q_n at |alpha| = 1, the energies and the
lowering factors, in an LRU cache of _LADDERS entries.  A StateVector is one
row, or rows, of coefficients; evolve, apply_annihilation and
lowering_residual read its ladder, so both models take one code path.
synthesize samples psi(x, t) on a grid, and position_moments and
momentum_moments read <x>, <x^2>, <p>, <p^2> off it (Simpson quadrature,
4th-order finite-difference derivative): the oracle of every closed-form
series.  tail_bound bounds the norm a truncated coherent state drops.
"""

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .numerics import Grid, GridFunction, quadrature

__all__ = [
    "StateVector",
    "SupportError",
    "make_state",
    "evolve",
    "apply_annihilation",
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
# Ladders held at once: every new model (each benchmark job, CLI call or test)
# adds one; 16 ladders of a few hundred levels are tens of KB.
_LADDERS = 16


class SupportError(RuntimeError):
    """The grid fails to contain the state (norm loss or boundary leak)."""


class _Ladder(NamedTuple):
    """Label- and time-independent arrays of one (model, truncation N), all read-only."""

    n: np.ndarray  # levels 0..N as floats
    log_q1: np.ndarray  # log q_k at mu = 1, k = 0..N-1
    energies: np.ndarray  # E_n, n = 0..N
    lowering: np.ndarray  # model.lowering(n), n = 0..N-1


@functools.lru_cache(maxsize=_LADDERS)
def _ladder(model, truncation):
    """The _Ladder of (model, truncation), built once while among the _LADDERS
    most recently used; every caller shares its arrays, so they are read-only."""
    n = np.arange(truncation + 1.0)
    ladder = _Ladder(n, np.log(model.weight_step(1.0, n[:-1])),
                     model.energies(truncation), model.lowering(n[:-1]))
    for table in ladder:
        table.flags.writeable = False
    return ladder


@dataclass(frozen=True, eq=False)
class StateVector:
    """Coefficients over one model's levels 0..N: one row, or a 2-D array
    with one row per state; energies and lowering come from the ladder.

    Equality and hash are by identity: compare coefficients with numpy.
    """

    model: object
    coefficients: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=complex)
        if c.ndim not in (1, 2):
            raise ValueError("coefficients must be one row or a 2-D array of rows")
        object.__setattr__(self, "coefficients", c)


make_state = StateVector  # make_state(model, coefficients), the older name


def _evolved_row(state, t, caller):
    # evolve(state, t) at one time, for a one-row state only
    if state.coefficients.ndim != 1:
        raise ValueError(f"{caller} takes a one-row state")
    return evolve(state, float(t))


def evolve(state, t):
    """Coefficients c_n e^{-i E_n t} of the state at time t.

    t is one time, which keeps the shape of state.coefficients, or a 1-D
    array of times for a one-row state, which gives one row per time.
    """
    c = state.coefficients
    times = np.asarray(t, dtype=float)
    if times.ndim and c.ndim > 1:
        raise ValueError("evolve takes one time for a multi-row state")
    energies = _ladder(state.model, c.shape[-1] - 1).energies
    # E t rounded once as a real product
    return c * np.exp(-1j * (energies * times[..., None]))


def apply_annihilation(model, c):
    """Lowering action on one row or rows: out_n = model.lowering(n) c_{n+1}, out_N = 0."""
    c = np.asarray(c, dtype=complex)
    out = np.zeros_like(c)
    out[..., :-1] = c[..., 1:] * _ladder(model, c.shape[-1] - 1).lowering
    return out


def default_grid(model, count=4001):
    """Grid covering the state support: [-model.half_width, model.half_width]."""
    return Grid(-model.half_width, model.half_width, count)


def synthesize(state, grid, t):
    """psi(x, t) = sum_n c_n e^{-i E_n t} u_n(x) sampled on the grid.

    The eigenfunctions come from the model's recursion one row at a time and
    are summed _SYNTH_ROWS rows per matrix product, so the levels x points
    basis (1.6 MB for 51 levels on 4001 points) is never held at once.
    """
    weights = _evolved_row(state, t, "synthesize")
    wall = state.model.wall
    if grid.x_min < -wall - 1e-12 or grid.x_max > wall + 1e-12:
        raise ValueError("grid exceeds the hard-wall support")
    x = grid.points()
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
    """Distance of the state evolved to time t from the lowering-operator
    eigenspace, for either model.

    With c = evolve(state, t) and out = apply_annihilation(model, c), returns
    min_mu ||out - mu c|| / ||c|| (mu = <c, out>/<c, c>).  A linear coherent
    state leaves the eigenspace as it evolves; a Poschl-Teller one, whose
    spectrum is equally spaced, stays in it to rounding.
    """
    c = _evolved_row(state, t, "lowering_residual")
    norm2 = np.vdot(c, c).real
    if norm2 == 0.0:
        raise ValueError("zero state")
    out = apply_annihilation(state.model, c)
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

"""Linear scalar potential S(x) = k|x| - m for a relativistic spinless particle.

The relativistic spectrum is E_n = sqrt((2n+1) k); the underlying
Schrodinger problem is a harmonic oscillator with m*omega = k, so the
eigenfunctions are Hermite functions.  Annihilation-operator coherent
states built on the positive-energy sector carry the usual Poissonian
coefficients (evolution.coherent_coefficients, on LinearModel.weight_step);
their expectation values evolve with the non-equally-spaced relativistic
phases, which is what the closed-form series below encode.  The
t-independent part of the series (alpha, the untruncated weights |c_n|^2,
the gaps E_n - E_{n+1} and E_n - E_{n+2}, and the truncation's
evolution.tail_bound) is one read-only table per (model, spec), in an LRU
cache of _TABLES entries.  An array of t is taken _BLOCK_CELLS (t, n) cells
at a time: a block costs its phase matrices t (E_n - E_{n+j}), one cos and
one sin of each, and three compensated sums, exactly rounded per t, so a t
gives the same bits alone or in any block.
"""

import functools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import evolution
from .numerics import compensated_sum

__all__ = [
    "LinearModel",
    "CoherentSpec",
    "TimeSeries",
    "VarianceError",
    "coherent_coefficients",
    "expectation_series",
    "check_series_limit",
    "uncertainties",
    "time_series",
]

_VAR_CLAMP = -1e-10
_MU_MAX = -math.log(sys.float_info.min)  # largest |alpha|^2 of the series
# Series tables held at once: every new (model, spec) (each benchmark job, CLI
# call or test) adds one; 16 tables of a few hundred floats are tens of KB.
_TABLES = 16
# (t, n) cells of one block of the series over an array of t: 80 times at
# N = 50, so each of a block's dozen temporaries is 32 KB.  numerics'
# 2^15-cell blocks ran slower here, their temporaries no longer in cache.
_BLOCK_CELLS = 1 << 12


class VarianceError(RuntimeError):
    """A variance came out negative beyond round-off tolerance."""


@dataclass(frozen=True)
class LinearModel:
    """Mass m and coupling k (natural units); omega = k/m."""

    m: float = 1.0
    k: float = 1.0

    def __post_init__(self):
        if not (self.m > 0.0):
            raise ValueError("mass must be positive")
        if not (self.k > 0.0):
            raise ValueError("coupling must be positive")

    @property
    def omega(self):
        return self.k / self.m

    @property
    def half_width(self):
        """12/sqrt(k): [-L, L] holds the low states to far below rounding."""
        return 12.0 / math.sqrt(self.k)

    wall = math.inf  # no hard wall: the eigenfunctions reach every x

    @staticmethod
    def lowering(n):
        """(a c)_n / c_{n+1} = sqrt(n + 1); array n too."""
        return np.sqrt(n + 1.0)

    @staticmethod
    def weight_step(mu, n):
        """q_n = |c_{n+1}|^2 / |c_n|^2 = mu / (n + 1), mu = |alpha|^2; array n too."""
        return mu / (n + 1.0)

    @staticmethod
    def log_weight(mu, n):
        """log(e^-mu mu^n / n!) = log |c_n|^2 + log_norm(mu); one level n < 2^102, mu > 0.

        From n = 16 on it is -mu phi((n - mu)/mu) - log(2 pi n)/2 - s(n), with
        phi(t) = (1 + t) log(1 + t) - t and s(n) the Stirling remainder of
        lgamma(n + 1), so no two terms of size n log n cancel: near n = mu
        the direct form rounds by about 70 n eps, which past n ~ 1e13 is more
        than the slack of evolution.tail_bound (about 0.02 in the log).
        """
        if n < 16:
            return n * math.log(mu) - math.lgamma(n + 1.0) - mu
        num, den = mu.as_integer_ratio()
        d = (int(n) * den - num) / den  # n - mu, rounded once
        t = d / mu
        if abs(t) < 0.25:
            # mu phi(t) = d t sum_j (-t)^j / ((j + 1)(j + 2)), to 1e-17 by j = 28
            series = 0.0
            for j in range(28, -1, -1):
                series = series * -t + 1.0 / ((j + 1) * (j + 2))
            dev = d * t * series
        else:
            dev = n * math.log(n / mu) - d
        inv = 1.0 / (n * n)
        stirling = (1.0 - inv * (1.0 / 30.0 - inv * (1.0 / 105.0 - inv / 140.0))) / (12.0 * n)
        return -dev - 0.5 * math.log(2.0 * math.pi * n) - stirling

    @staticmethod
    def log_norm(mu):
        """log of the sum of exp(log_weight(mu, n)) over all n: 0, the weights
        being the Poisson probabilities."""
        return 0.0

    def eigenfunction_rows(self, n_max, x):
        """Yield u_0..u_{n_max} sampled on the array x, one row at a time.

        The stable three-term recursion holds only its last two rows.
        """
        x = np.asarray(x, dtype=float)
        xi = math.sqrt(self.k) * x
        prev = (self.k / math.pi) ** 0.25 * np.exp(-0.5 * xi * xi)
        yield prev
        if n_max >= 1:
            cur = math.sqrt(2.0) * xi * prev
            yield cur
            for n in range(1, n_max):
                prev, cur = cur, (math.sqrt(2.0 / (n + 1)) * xi * cur
                                  - math.sqrt(n / (n + 1.0)) * prev)
                yield cur

    def energies(self, n_max):
        """E_0..E_{n_max}, E_n = sqrt((2n+1) k) (positive branch).

        The Schrodinger eigenvalue is E_n^2 / (2m) = (n + 1/2) omega.
        """
        return np.sqrt((2.0 * np.arange(n_max + 1) + 1.0) * self.k)


@dataclass(frozen=True)
class CoherentSpec:
    """Annihilation-operator eigenvalue alpha and truncation order N."""

    alpha: complex
    truncation: int = 50

    def __post_init__(self):
        if self.truncation < 1:
            raise ValueError("truncation must be >= 1")
        if not (math.isfinite(abs(self.alpha))):
            raise ValueError("alpha must be finite")


@dataclass(frozen=True, eq=False)  # equality and hash by identity
class TimeSeries:
    t: np.ndarray
    mean_x: np.ndarray
    mean_p: np.ndarray
    var_x: np.ndarray
    var_p: np.ndarray
    dx: np.ndarray
    dp: np.ndarray
    product: np.ndarray
    tail: float  # bound on the norm the truncation drops (evolution.tail_bound)


def coherent_coefficients(spec):
    """The linear state of evolution.coherent_coefficients as a bare array
    c_0..c_N: kept because perfbench/workloads.py calls it."""
    return evolution.coherent_coefficients(
        LinearModel(), spec.alpha, spec.truncation).coefficients


class _SeriesTable(NamedTuple):
    """The t-independent part of the series of one (model, spec); arrays read-only."""

    a: float  # Re alpha
    b: float  # Im alpha
    r2: float  # |alpha|^2
    weights: np.ndarray  # e^{-|alpha|^2} |alpha|^{2n} / n!, n = 0..N
    gap1: np.ndarray  # E_n - E_{n+1}, n = 0..N
    gap2: np.ndarray  # E_n - E_{n+2}, n = 0..N
    tail: float  # evolution.tail_bound(model, |alpha|^2, N)


def check_series_limit(spec):
    """ValueError if |alpha|^2 is above _MU_MAX = 708.4, the linear series'
    limit, where e^{-|alpha|^2} is subnormal: no truncation passes there."""
    alpha = complex(spec.alpha)
    r2 = alpha.real * alpha.real + alpha.imag * alpha.imag
    if r2 > _MU_MAX:
        raise ValueError(f"|alpha|^2 = {r2:g} is above the linear series' limit "
                         f"{_MU_MAX:.4f}, where e^-|alpha|^2 is subnormal")


@functools.lru_cache(maxsize=_TABLES)
def _table(model, spec):
    """The _SeriesTable of (model, spec), built once while among the _TABLES
    most recently used; every caller shares its arrays, so they are read-only.
    The weights are untruncated, as the closed form's |alpha|^2 + 1/2 assumes;
    ValueError past |alpha|^2 = _MU_MAX (check_series_limit)."""
    alpha = complex(spec.alpha)
    a, b = alpha.real, alpha.imag
    r2 = a * a + b * b
    n_max = spec.truncation
    tail = evolution.tail_bound(model, r2, n_max)
    check_series_limit(spec)
    energies = model.energies(n_max + 2)
    # weights e^{-|alpha|^2} |alpha|^{2n} / n!, a running product
    weights = np.cumprod(np.concatenate(([math.exp(-r2)],
                                         model.weight_step(r2, np.arange(n_max)))))
    gap1 = energies[:n_max + 1] - energies[1:n_max + 2]
    gap2 = energies[:n_max + 1] - energies[2:n_max + 3]
    for array in (weights, gap1, gap2):
        array.flags.writeable = False
    return _SeriesTable(a, b, r2, weights, gap1, gap2, tail)


def _series_terms(table, t):
    """The three compensated sums of the closed-form series at t, a float or a
    column of times (shape (B, 1)), which give floats or arrays of B; only
    the phases (E_n - E_{n+j}) t depend on t."""
    a, b, w = table.a, table.b, table.weights
    th1 = table.gap1 * t
    th2 = table.gap2 * t
    cos1, sin1 = np.cos(th1), np.sin(th1)
    sx = compensated_sum(w * (a * cos1 - b * sin1))
    sp = compensated_sum(w * (a * sin1 + b * cos1))
    cross = compensated_sum(
        w * ((a * a - b * b) * np.cos(th2) - 2.0 * a * b * np.sin(th2)))
    return sx, sp, cross


def expectation_series(model, spec, t):
    """Closed-form <x>, <p>, <x^2>, <p^2> at time t (series over n <= N).

    t is one time, which gives four floats, or a 1-D array, which gives four
    arrays, summed _BLOCK_CELLS (t, n) cells at a time; each value has the
    same bits either way.  ValueError for |alpha|^2 >= 2^100
    (evolution.tail_bound cannot bound the truncation) and above
    _MU_MAX = 708.4 (the weights underflow).
    """
    table = _table(model, spec)
    if getattr(t, "ndim", 0) == 0:  # a float, a numpy scalar or a 0-d array
        sx, sp, cross = _series_terms(table, float(t))
    elif t.ndim == 1:
        t = np.asarray(t, dtype=float)
        sums = np.empty((3, t.size))
        rows = max(1, _BLOCK_CELLS // table.weights.size)
        for i in range(0, t.size, rows):
            sums[:, i:i + rows] = _series_terms(table, t[i:i + rows, None])
        sx, sp, cross = sums
    else:
        raise ValueError("t must be one time or a 1-D array")
    k, r2 = model.k, table.r2
    mean_x = math.sqrt(2.0 / k) * sx
    mean_p = math.sqrt(2.0 * k) * sp
    mean_x2 = (r2 + 0.5) / k + cross / k
    mean_p2 = k * (r2 + 0.5) - k * cross
    return mean_x, mean_p, mean_x2, mean_p2


def uncertainties(model, spec, t):
    """(dx, dp, dx*dp) from the closed-form series at time t."""
    ts = time_series(model, spec, [t])
    return float(ts.dx[0]), float(ts.dp[0]), float(ts.product[0])


def time_series(model, spec, t_grid):
    """Sampled means and uncertainties over a strictly increasing t grid, from
    one expectation_series call over the whole grid, and the truncation's
    tail bound (reported, not checked)."""
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size == 0:
        raise ValueError("t_grid must be nonempty")
    if t_grid.size > 1 and not np.all(np.diff(t_grid) > 0.0):
        raise ValueError("t_grid must be strictly increasing")
    mean_x, mean_p, mean_x2, mean_p2 = expectation_series(model, spec, t_grid)
    var_x = mean_x2 - mean_x ** 2
    var_p = mean_p2 - mean_p ** 2
    bad = (var_x < _VAR_CLAMP) | (var_p < _VAR_CLAMP)
    if bad.any():
        i = int(np.argmax(bad))
        raise VarianceError(
            f"negative variance beyond round-off at t={t_grid[i]}: "
            f"var_x={var_x[i]:.3e}, var_p={var_p[i]:.3e}")
    dx = np.sqrt(np.maximum(var_x, 0.0))
    dp = np.sqrt(np.maximum(var_p, 0.0))
    return TimeSeries(t=t_grid, mean_x=mean_x, mean_p=mean_p,
                      var_x=var_x, var_p=var_p, dx=dx, dp=dp,
                      product=dx * dp, tail=_table(model, spec).tail)

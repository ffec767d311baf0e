"""Relativistic Poschl-Teller potential: equally spaced spectrum and
annihilation-operator coherent states.

The scalar potential S(x) = -m + m/cos(omega x) on [-L, L], L = pi/(2 omega),
gives E_n = omega (n + lambda) with lambda = 1/2 + sqrt(4 m^2/omega^2 + 1)/2.
Eigenfunctions are evaluated through the Gegenbauer form
(cos wx)^lambda C_n^lambda(sin wx), which has a stable recursion.  The
model's law is its weight steps (PTModel.weight_step), whose running
products are the coherent states, and its lowering factors
(n + 1 + lambda) D(n, lambda) from the ladder algebra.
coherent_coefficients, evolve and apply_annihilation are evolution's,
re-exported here: coherent states are evolution.StateVectors built on
evolution's cached ladder of the model, so a call pays only its
label-dependent work.  The resolution-of-unity measure weight is a Bessel-K
construction whose moments are verified numerically: each moment's tail
cutoff is the first rung of its geometric ladder where the tail bound
holds, and the ladders of all moments are probed together, one weight call
per chunk of eight rungs over every moment still open.  The integral below
the cutoff is the package's one Simpson rule (numerics.quadrature) in
u = sqrt(x), on each moment's own grid, doubled until it settles.  The
Simpson levels are batched too: a level is one weight call over the new
samples of every moment still open and one quadrature call over their
rows, in s = u / u_max on one unit grid, and numerics.bessel_k_many splits
the wide z range of such a call into bands.  The phase-coherence check
takes one time or an array of times, in one array computation.
"""

import math
from dataclasses import dataclass

import numpy as np

from .evolution import (StateVector, _ladder, apply_annihilation,
                        coherent_coefficients, evolve)
from .numerics import Grid, GridFunction, bessel_k_many, log_gamma, quadrature

__all__ = [
    "PTModel",
    "lambda_of",
    "ladder_coeff",
    "apply_annihilation",
    "coherent_coefficients",
    "evolve",
    "phase_coherence_check",
    "g_weight",
    "measure_weight",
    "verify_measure_moments",
]


def lambda_of(m, omega):
    """Spectral offset lambda = 1/2 + sqrt(4 m^2/omega^2 + 1)/2 (> 1).

    Raises ValueError when 4 m^2/omega^2 is not finite in double precision,
    or when m/omega is so small (below about 1e-8) that lambda rounds to 1.
    """
    if not (m > 0.0 and omega > 0.0):
        raise ValueError("m and omega must be positive")
    ratio = 4.0 * m * m / (omega * omega) if omega * omega > 0.0 else math.inf
    if not math.isfinite(ratio):
        raise ValueError(f"m = {m:g}, omega = {omega:g}: 4 m^2/omega^2 is not finite")
    lam = 0.5 + 0.5 * math.sqrt(ratio + 1.0)
    if not lam > 1.0:
        raise ValueError(
            f"m/omega = {m / omega:g} is too small: lambda rounds to 1")
    return lam


@dataclass(frozen=True)
class PTModel:
    """Mass m and frequency omega; eigenfunctions live on [-L, L]."""

    m: float = 1.0
    omega: float = 1.0

    def __post_init__(self):
        lambda_of(self.m, self.omega)  # validates positivity

    @property
    def lam(self):
        return lambda_of(self.m, self.omega)

    @property
    def half_width(self):
        return math.pi / (2.0 * self.omega)

    wall = half_width  # the hard walls at +/- L, where every u_n vanishes

    def lowering(self, n):
        """(A c)_n / c_{n+1} = (n + 1 + lambda) D(n, lambda); array n too.  Not
        from weight_step, so the eigenstate check tests the coefficients."""
        lam = self.lam
        return (n + 1.0 + lam) * ladder_coeff(n, lam)

    def energies(self, n_max):
        """E_0..E_{n_max}, E_n = omega (n + lambda): exactly equally spaced."""
        return self.omega * (np.arange(n_max + 1) + self.lam)

    def weight_step(self, mu, n):
        """q_n = |c_{n+1}|^2 / |c_n|^2 = mu (n + lambda) / ((n + 1)(n + 2 lambda)
        (n + 1 + lambda)) at mu = |alpha|^2; n may be an array."""
        lam = self.lam
        return mu / (n + 1.0) * (n + lam) / ((n + 2.0 * lam) * (n + 1.0 + lam))

    def log_weight(self, mu, n):
        """log(mu^n lambda / (n! (2 lambda)_n (n + lambda))) = log |c_n|^2 +
        log_norm(mu); one level n < 2^102, mu > 0."""
        lam = self.lam
        return n * math.log(mu) - log_gamma(n + 1.0) + (
            log_gamma(2.0 * lam) - log_gamma(n + 2.0 * lam)
            + math.log(lam / (n + lam)))

    def log_norm(self, mu):
        """log of the sum of exp(log_weight(mu, n)) over the 4096 levels about
        its largest term: all of it to rounding while |alpha| < 1e5 (terms fall
        as exp(-(n - |alpha|)^2 / |alpha|)), a lower bound past that; mu > 0."""
        b = 2.0 * self.lam
        peak = math.ceil((math.sqrt((b - 1.0) ** 2 + 4.0 * mu) - b - 1.0) / 2.0)
        start = max(0, peak - 2048)
        rel = np.cumsum(np.log(self.weight_step(mu, np.arange(start, start + 4095.0))))
        top = max(0.0, rel.max())
        return (self.log_weight(mu, start) + top
                + math.log(math.exp(-top) + np.exp(rel - top).sum()))

    def _log_basis_norm(self, n):
        lam = self.lam
        return 0.5 * (math.log(self.omega) + log_gamma(n + 1.0)
                      + math.log(n + lam) + 2.0 * log_gamma(lam)
                      + (2.0 * lam - 1.0) * math.log(2.0)
                      - math.log(math.pi) - log_gamma(2.0 * lam + n))

    def eigenfunction_rows(self, n_max, x):
        """Yield u_0..u_{n_max} sampled on the array x, one row at a time.

        The Gegenbauer recursion holds only its last two polynomials.
        """
        x = np.asarray(x, dtype=float)
        lam = self.lam
        wx = self.omega * x
        inside = np.abs(x) <= self.half_width
        c = np.where(inside, np.cos(wx), 0.0)
        c = np.maximum(c, 0.0)
        s = np.sin(wx)
        env = np.where(c > 0.0, c ** lam, 0.0)
        poly_prev = np.ones_like(x)
        yield math.exp(self._log_basis_norm(0)) * env
        if n_max >= 1:
            poly_cur = 2.0 * lam * s
            yield math.exp(self._log_basis_norm(1)) * env * poly_cur
            for n in range(2, n_max + 1):
                poly_prev, poly_cur = poly_cur, (
                    2.0 * (n + lam - 1.0) * s * poly_cur
                    - (n + 2.0 * lam - 2.0) * poly_prev) / n
                yield math.exp(self._log_basis_norm(n)) * env * poly_cur


def ladder_coeff(n, lam):
    """D(n, lambda) = sqrt((n+1)(2 lambda + n) / ((n+lambda)(n+1+lambda))).

    n is one level (gives a float) or an array of levels (gives an array).
    """
    n = np.asarray(n, dtype=float)
    if np.any(n < 0):
        raise ValueError("n must be >= 0")
    if not (lam > 1.0):
        raise ValueError("lambda must exceed 1")
    d = np.sqrt((n + 1.0) * (2.0 * lam + n) / ((n + lam) * (n + 1.0 + lam)))
    return d if d.ndim else float(d)


def phase_coherence_check(model, alpha, truncation, t):
    """Residual of evolve(psi_alpha, t) vs e^{-i omega lam t} psi_{alpha e^{-i omega t}}.

    t is one time (gives a float) or a 1-D array of times (gives one
    residual per time).  psi_alpha and every rotated state come from one
    coefficient call.  Each rotated state is the closed form at the rotated
    label: re-phasing psi_alpha instead would make the check vacuous.
    """
    times = np.atleast_1d(np.asarray(t, dtype=float))
    if times.ndim > 1:
        raise ValueError("t must be one time or a 1-D array of times")
    alpha = complex(alpha)
    labels = np.concatenate(([alpha], alpha * np.exp(-1j * model.omega * times)))
    states = coherent_coefficients(model, labels, truncation).coefficients
    evolved = evolve(StateVector(model, states[0]), times)
    # E_0 = omega lambda: the ground level's phase on every rotated state
    ground = _ladder(model, truncation).energies[0]
    target = np.exp(-1j * (ground * times[:, None])) * states[1:]
    res = np.linalg.norm(evolved - target, axis=1) / np.linalg.norm(states[0])
    return res if np.ndim(t) else float(res[0])


# ---------------------------------------------------------------------------
# resolution-of-unity measure


def g_weight(model, x):
    """G(x) = 2 x^{lambda - 1/2} K_{2 lambda - 1}(2 sqrt(x)); moments n! Gamma(n + 2 lambda)."""
    lam = model.lam
    nu = 2.0 * lam - 1.0
    x = np.asarray(x, dtype=float)
    if np.any(~(x > 0.0)):
        raise ValueError("g_weight requires x > 0")
    z = 2.0 * np.sqrt(x)
    vals = 2.0 * x ** (lam - 0.5) * bessel_k_many(nu, z)
    return vals if vals.ndim else float(vals)


def measure_weight(model, x):
    """Candidate measure weight W(x) = (lambda - 1) G(x) - x G'(x).

    With the Bessel derivative identity this reduces to
    W = x^{lambda} (K_{nu-1} + K_{nu+1})(2 sqrt(x)) - x^{lambda - 1/2} K_nu(2 sqrt(x)),
    nu = 2 lambda - 1.
    """
    lam = model.lam
    nu = 2.0 * lam - 1.0
    x = np.asarray(x, dtype=float)
    if np.any(~(x > 0.0)):
        raise ValueError("measure_weight requires x > 0")
    z = 2.0 * np.sqrt(x)
    k_lo, k_mid, k_hi = bessel_k_many((nu - 1.0, nu, nu + 1.0), z)
    vals = x ** lam * (k_lo + k_hi) - x ** (lam - 0.5) * k_mid
    return vals if vals.ndim else float(vals)


def moment_target(model, n):
    """n! (n + lambda) Gamma(2 lambda + n), the required n-th moment."""
    lam = model.lam
    return math.exp(log_gamma(n + 1.0) + math.log(n + lam)
                    + log_gamma(2.0 * lam + n))


def _moment_cutoffs(model, tol, targets, weight):
    """First rung x = (n + lam + 6)^2 1.4^j, j < 60, with a negligible tail,
    for each moment n < len(targets).

    The tail beyond x is bounded by x^n |W(x)| (sqrt(x) + 1).  All moments'
    ladders are probed together: one weight call per chunk of eight rungs
    over every n still open, which keeps the z range of one Bessel-K table
    narrow.  Raises RuntimeError naming the lowest n whose ladder never
    meets the bound.
    """
    n = np.arange(len(targets))
    # stdlib float powers: a ** 2 and numpy's a * a can differ in the last bit
    starts = [(k + model.lam + 6.0) ** 2 for k in range(n.size)]
    ladders = np.cumprod(np.c_[starts, np.full((n.size, 59), 1.4)], axis=1)
    bounds = 1e-2 * tol * np.asarray(targets, dtype=float)
    cutoffs = np.empty(n.size)
    open_n = n
    for first in range(0, ladders.shape[1], 8):
        rungs = ladders[open_n, first:first + 8]
        w = np.abs(weight(model, rungs.ravel())).reshape(rungs.shape)
        tail = rungs ** open_n[:, None] * w * (np.sqrt(rungs) + 1.0)
        met = tail <= bounds[open_n, None]
        done = met.any(axis=1)
        cutoffs[open_n[done]] = rungs[done, np.argmax(met[done], axis=1)]
        open_n = open_n[~done]
        if not open_n.size:
            return cutoffs
    lowest = open_n[0]
    raise RuntimeError(
        f"moment n={lowest}: tail bound not met up to x={ladders[lowest, -1]:g}")


def _moment_integrals(model, tol, targets, cutoffs, weight):
    """Integrals of x^n * weight over (0, cutoffs[n]] for each moment n.

    With x = u^2, moment n integrates 2 u^{2n+1} W(u^2) on u in [0, u_n],
    u_n = sqrt(cutoffs[n]), by the Simpson rule in s = u / u_n on one unit
    grid.  Every moment keeps its own nodes: with a power-of-two interval
    count, u_n s rounds exactly as a grid on [0, u_n] would.  All moments
    start from 256 intervals, and those whose value moved by more than
    0.1 tol target at the last doubling double again, at most 6 times,
    evaluating only the new midpoints.  Each level is one weight call over
    the new samples of every moment still open, and one quadrature call
    over their rows.  The integrand vanishes at u = 0 for both weights, so
    that sample is 0 rather than a call at x = 0.  Returns the values and
    whether each moment converged.
    """
    n = np.arange(len(targets))
    u_max = np.sqrt(cutoffs)[:, None]
    bounds = 0.1 * tol * np.asarray(targets, dtype=float)

    def integrand(rows, s):
        u = u_max[rows] * s
        w = weight(model, (u * u).ravel()).reshape(u.shape)
        return 2.0 * u ** (2 * rows + 1)[:, None] * w

    def integrate(rows, grid, f):
        return u_max[rows, 0] * quadrature(GridFunction(grid, f)).real

    grid = Grid(0.0, 1.0, 257)
    f = np.zeros((n.size, grid.count))
    f[:, 1:] = integrand(n, grid.points()[1:])
    values = integrate(n, grid, f)
    converged = np.zeros(n.size, dtype=bool)
    open_n = n
    for _ in range(6):
        grid = Grid(0.0, 1.0, 2 * grid.count - 1)
        fine = np.empty((open_n.size, grid.count))
        fine[:, 0::2] = f
        fine[:, 1::2] = integrand(open_n, grid.points()[1::2])
        new_values = integrate(open_n, grid, fine)
        done = np.abs(new_values - values[open_n]) <= bounds[open_n]
        values[open_n] = new_values
        converged[open_n[done]] = True
        open_n, f = open_n[~done], fine[~done]
        if not open_n.size:
            break
    return values, converged


def verify_measure_moments(model, n_max=10, tol=1e-6, weight=None):
    """Check moments of the candidate weight against n! (n+lam) Gamma(2 lam + n).

    Returns one record per n with the measured value, target, relative
    error, and pass flag; quadrature non-convergence is reported per n.
    """
    if n_max > 12:
        raise ValueError("n_max above 12 exceeds double-precision quadrature")
    if tol < 1e-8:
        raise ValueError("tol below 1e-8 is not resolvable here")
    if weight is None:
        weight = measure_weight
    targets = [moment_target(model, n) for n in range(n_max + 1)]
    cutoffs = _moment_cutoffs(model, tol, targets, weight)
    values, flags = _moment_integrals(model, tol, targets, cutoffs, weight)
    report = []
    for n, (target, value, converged) in enumerate(
            zip(targets, values.tolist(), flags.tolist())):
        rel_err = abs(value - target) / target
        report.append({
            "n": n,
            "value": float(value),
            "target": float(target),
            "rel_err": float(rel_err),
            "converged": bool(converged),
            "passed": bool(converged and rel_err <= tol),
        })
    return report

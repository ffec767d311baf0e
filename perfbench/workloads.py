"""Seeded workloads of the kgcoherent benchmark, with their output witnesses.

Each workload is a fixed round of jobs. The seed varies the values inside a
round, never the kinds or sizes, so every run holds the same job mix. A job
has three steps:

* ``run`` is the timed call through the package's public entry points;
* ``observe`` reads what the job produced, untimed, and keeps a small record;
* ``witness`` compares that record with an independent reference after the
  timed loop, and returns ``(check, error, tolerance)`` triples.

A job whose witness error exceeds its tolerance counts as failed. scipy and
mpmath are imported only inside the witnesses, after the peak memory of the
timed loop has been read.
"""

import json
import math
import os

import numpy as np

from kgcoherent import cli, evolution, linear_osc, oracle
from kgcoherent import poschl_teller as pt

# Bounds published by the checks in ``kgcoherent.verify``.
EIGENSTATE_BOUND = 1e-10        # pt_eigenstate_residual
PHASE_BOUND = 1e-12             # pt_phase_coherence_residual
SERIES_VS_GRID_BOUND = 1e-6     # linear_series_vs_quadrature
MEASURE_TOL = 1e-6              # measure_moment_n*

# ``tridiag_smallest_eigenvalues`` narrows brackets to this width by default.
SOLVER_TOL = 1e-10
# ``cli._fmt`` prints CSV values with this many significant digits.
CSV_DIGITS = 9


class JobFailed(Exception):
    """A job's output is missing or malformed, so no witness can be computed."""


def _uniform(rng, lo, hi):
    # Six decimals, so the value on a command line is the value the job used.
    return round(rng.uniform(lo, hi), 6)


def _alpha(rng):
    return [_uniform(rng, -2.0, 2.0), _uniform(rng, -2.0, 2.0)]


def _alpha_arg(alpha):
    # ``--alpha=<a>``: argparse reads a separate "-1.2+0.3i" as a flag.
    return f"--alpha={alpha[0]:.6f}{alpha[1]:+.6f}i"


class FigureSeries:
    """``kgcoherent evolve``: the breathing-uncertainty series behind fig1-fig11."""

    name = "figure_series"
    why = ("the fig1-fig11 path: per-t series loop, pure-Python compensated sums "
           "and row-by-row CSV; never calls Sturm, Bessel-K or log-gamma")
    truncation = 50
    dt = 0.05
    sampled_rows = 4

    def round(self, rng, out_dir):
        jobs = []
        for t1, samples in ((50, 1001), (100, 2001)):
            alpha = _alpha(rng)
            path = os.path.join(out_dir, f"series-{samples}.csv")
            jobs.append({
                "kind": f"evolve-{samples}",
                "alpha": alpha,
                "t1": t1,
                "samples": samples,
                "rows": sorted(rng.sample(range(samples), self.sampled_rows)),
                "path": path,
                "argv": ["evolve", _alpha_arg(alpha), "--trunc", str(self.truncation),
                         "--t1", str(t1), "--dt", str(self.dt), "-o", path],
            })
        return jobs

    def run(self, job):
        return cli.main(job["argv"])

    def observe(self, job, result):
        if result != 0:
            raise JobFailed(f"cli.main returned {result}")
        with open(job["path"], encoding="utf-8") as fh:
            header = fh.readline().strip()
            if header != cli.CSV_HEADER:
                raise JobFailed(f"CSV header {header!r}")
            table = np.loadtxt(fh, delimiter=",", ndmin=2)
        if table.shape != (job["samples"], 6):
            raise JobFailed(f"CSV shape {table.shape}, want ({job['samples']}, 6)")
        if not np.all(np.isfinite(table)):
            raise JobFailed("CSV holds a non-finite value")
        t_expected = np.arange(job["samples"]) * self.dt
        return {
            "t_error": float(np.max(np.abs(table[:, 0] - t_expected))),
            "min_product": float(table[:, 3].min()),
            "rows": [[job["rows"][i]] + table[job["rows"][i]].tolist()
                     for i in range(len(job["rows"]))],
        }

    def witness(self, job, obs):
        # The grid must be the requested one, to the printed precision of t.
        yield "t_grid", obs["t_error"], _half_unit(job["t1"])
        # Heisenberg floor dx*dp >= 1/2 on every printed row.
        yield "heisenberg_floor", max(0.0, 0.5 - obs["min_product"]), _half_unit(0.5)
        a, b = job["alpha"]
        for row in obs["rows"]:
            index, printed = row[0], row[2:]
            exact = _series_mp(a, b, self.truncation, index * self.dt)
            # CSV rounding plus a float64 round-off allowance that grows with
            # |alpha|^2, the scale of the second moments.
            slack = 1e-12 * (1.0 + a * a + b * b)
            for column, got, want in zip(("dx", "dp", "product", "ex", "ep"),
                                         printed, exact):
                tol = max(_half_unit(got), _half_unit(want)) + slack
                yield f"mpmath_{column}", abs(got - want), tol


def _half_unit(value):
    """Half a unit in the last place printed by ``cli._fmt``."""
    value = abs(float(value))
    if value == 0.0:
        return 0.0
    return 0.5 * 10.0 ** (math.floor(math.log10(value)) - (CSV_DIGITS - 1))


def _series_mp(a, b, truncation, t, k=1.0):
    """(dx, dp, dx*dp, <x>, <p>) of the linear-model series at 40 digits.

    ``evolve`` runs the linear model with its default m = k = 1.  The time is
    the float64 grid value the program used.
    """
    import mpmath

    with mpmath.workdps(40):
        a, b, k, t = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(k), mpmath.mpf(t)
        r2 = a * a + b * b
        energy = [mpmath.sqrt((2 * n + 1) * k) for n in range(truncation + 3)]
        sx = sp = cross = mpmath.mpf(0)
        weight = mpmath.exp(-r2)
        for n in range(truncation + 1):
            th1 = (energy[n] - energy[n + 1]) * t
            th2 = (energy[n] - energy[n + 2]) * t
            c1, s1 = mpmath.cos(th1), mpmath.sin(th1)
            sx += weight * (a * c1 - b * s1)
            sp += weight * (a * s1 + b * c1)
            cross += weight * ((a * a - b * b) * mpmath.cos(th2)
                               - 2 * a * b * mpmath.sin(th2))
            weight = weight * r2 / (n + 1)
        mean_x = mpmath.sqrt(2 / k) * sx
        mean_p = mpmath.sqrt(2 * k) * sp
        dx = mpmath.sqrt((r2 + mpmath.mpf(0.5)) / k + cross / k - mean_x ** 2)
        dp = mpmath.sqrt(k * (r2 + mpmath.mpf(0.5)) - k * cross - mean_p ** 2)
        return tuple(float(v) for v in (dx, dp, dx * dp, mean_x, mean_p))


class SpectralOracle:
    """``kgcoherent oracle``: finite-difference spectra of both potentials."""

    name = "spectral_oracle"
    why = ("the FD spectral oracle for both potentials: nearly all of a job is "
           "numerics.sturm_count row loops; never touches the series or Bessel code")
    # (model, points, levels): models alternate, and each (model, points)
    # pair covers two of the level counts 4, 6, 8, 10.
    slots = (("linear", 2001, 4), ("pt", 2001, 10), ("linear", 4001, 6),
             ("pt", 4001, 8), ("linear", 2001, 10), ("pt", 2001, 4),
             ("linear", 4001, 8), ("pt", 4001, 6))
    refine_factor = 2   # ``oracle.spectrum_compare`` default, used by the CLI

    def round(self, rng, out_dir):
        jobs = []
        for model, points, levels in self.slots:
            flag = "k" if model == "linear" else "omega"
            param = _uniform(rng, 0.5, 2.0)
            # With m < omega (lambda < 1.62) the fixed wall inset of
            # ``oracle.pt_potential`` sets an error floor that the
            # convergence-order check rejects (exit 1, e.g. m=0.5, omega=2),
            # so PT jobs draw m in [omega, 2]. The range is part of the job's
            # input, so that widening it is a visible change.
            m_range = [0.5 if model == "linear" else param, 2.0]
            m = _uniform(rng, *m_range)
            path = os.path.join(out_dir, "oracle.json")
            jobs.append({
                "kind": f"oracle-{model}-{points}",
                "model": model, "m": m, "m_range": m_range, flag: param,
                "levels": levels, "points": points, "path": path,
                "argv": ["oracle", "--model", model, f"--m={m}", f"--{flag}={param}",
                         "--n", str(levels), "--points", str(points), "-o", path],
            })
        return jobs

    def run(self, job):
        return cli.main(job["argv"])

    def observe(self, job, result):
        with open(job["path"], encoding="utf-8") as fh:
            payload = json.load(fh)
        if result != 0 or payload.get("passed") is not True:
            raise JobFailed(f"exit {result}, passed={payload.get('passed')}")
        fd = [level["fd"] for level in payload["levels"]]
        if len(fd) != job["levels"]:
            raise JobFailed(f"{len(fd)} levels, want {job['levels']}")
        return {"fd": fd}

    def witness(self, job, obs):
        from scipy.linalg import eigh_tridiagonal

        if job["model"] == "linear":
            spec = oracle.linear_potential(job["m"], job["k"], job["points"])
        else:
            spec = oracle.pt_potential(job["m"], job["omega"], job["points"])
        matrix = oracle.build_hamiltonian(spec.refined(self.refine_factor))
        eps = eigh_tridiagonal(matrix.diag, matrix.offdiag, eigvals_only=True,
                               select="i", select_range=(0, job["levels"] - 1))
        # Sturm counts locate an eigenvalue to the bracket width plus a few
        # roundings of the largest matrix entry.
        norm = float(np.max(np.abs(matrix.diag)) + 2.0 * np.max(np.abs(matrix.offdiag)))
        eps_tol = SOLVER_TOL + 16.0 * np.finfo(float).eps * norm
        m = job["m"]
        for n, (got, e) in enumerate(zip(obs["fd"], eps)):
            want = math.sqrt(2.0 * m * e)
            # E = sqrt(2 m eps), so dE = m d(eps) / E.
            yield f"eigh_tridiagonal_E{n}", abs(got - want), m * eps_tol / want


class CoherentChecks:
    """Poschl-Teller coherence, Bessel-K measure moments and a grid oracle."""

    name = "coherent_checks"
    why = ("Bessel-K, log-gamma and quadrature kernels, not Sturm; uses linear_osc "
           "through single-t expectation_series, unlike figure_series")
    truncation = 60
    alphas = 5
    times = 10
    weight_points = 4
    grid_points = 4001
    grid_times = 4
    linear_truncation = 50
    n_max = 10

    def round(self, rng, out_dir):
        return [{
            "kind": "coherent",
            "m": _uniform(rng, 0.5, 2.0),
            "omega": _uniform(rng, 0.5, 2.0),
            "alphas": [_alpha(rng) for _ in range(self.alphas)],
            "times": [_uniform(rng, 0.0, 12.0) for _ in range(self.times)],
            "weight_x": [round(math.exp(rng.uniform(math.log(0.05), math.log(50.0))), 6)
                         for _ in range(self.weight_points)],
            "linear_k": _uniform(rng, 0.5, 2.0),
            "linear_alpha": _alpha(rng),
            "grid_times": [_uniform(rng, 0.0, 12.0) for _ in range(self.grid_times)],
        }]

    def run(self, job):
        model = pt.PTModel(job["m"], job["omega"])
        states = []
        phase = []
        for alpha in job["alphas"]:
            alpha = complex(*alpha)
            state = pt.coherent_coefficients(model, alpha, self.truncation)
            states.append((alpha, state.coefficients,
                           pt.apply_annihilation(model, state.coefficients)))
            phase.extend(pt.phase_coherence_check(model, alpha, self.truncation, t)
                         for t in job["times"])
        moments = pt.verify_measure_moments(model, n_max=self.n_max, tol=MEASURE_TOL)
        weights = pt.measure_weight(model, np.array(job["weight_x"]))

        lin = linear_osc.LinearModel(1.0, job["linear_k"])
        spec = linear_osc.CoherentSpec(complex(*job["linear_alpha"]),
                                       self.linear_truncation)
        state = evolution.make_state(lin, linear_osc.coherent_coefficients(spec))
        grid = evolution.default_grid(lin, self.grid_points)
        pairs = []
        for t in job["grid_times"]:
            f = evolution.synthesize(state, grid, t)
            mean_x, mean_x2, _ = evolution.position_moments(f)
            mean_p, mean_p2 = evolution.momentum_moments(f)
            pairs.append(((mean_x, mean_p, mean_x2, mean_p2),
                          linear_osc.expectation_series(lin, spec, t)))
        return states, phase, moments, weights, pairs

    def observe(self, job, result):
        states, phase, moments, weights, pairs = result
        eigen = [float(np.linalg.norm(lowered - alpha * c) / np.linalg.norm(c))
                 for alpha, c, lowered in states]
        unconverged = [r["n"] for r in moments if not (r["converged"] and r["passed"])]
        if unconverged:
            raise JobFailed(f"measure moments n={unconverged} not converged/passed")
        grid = [abs(got - want) / max(abs(want), 1e-2)
                for quad, series in pairs for got, want in zip(quad, series)]
        return {"eigen": eigen, "phase": [float(p) for p in phase],
                "moments": [r["rel_err"] for r in moments],
                "weights": [float(w) for w in weights], "grid": grid}

    def witness(self, job, obs):
        from scipy.special import kv

        yield "pt_eigenstate_residual", max(obs["eigen"]), EIGENSTATE_BOUND
        yield "pt_phase_coherence_residual", max(obs["phase"]), PHASE_BOUND
        yield "measure_moment_rel_err", max(obs["moments"]), MEASURE_TOL
        yield "linear_series_vs_quadrature", max(obs["grid"]), SERIES_VS_GRID_BOUND
        # W(x) = x^lam (K_{nu-1} + K_{nu+1})(2 sqrt x) - x^(lam-1/2) K_nu(2 sqrt x)
        lam = 0.5 + 0.5 * math.sqrt(4.0 * (job["m"] / job["omega"]) ** 2 + 1.0)
        nu = 2.0 * lam - 1.0
        for x, got in zip(job["weight_x"], obs["weights"]):
            z = 2.0 * math.sqrt(x)
            outer = x ** lam * (kv(nu - 1.0, z) + kv(nu + 1.0, z))
            inner = x ** (lam - 0.5) * kv(nu, z)
            # trapezoid K_nu converges to 1e-13 relative; allow 1e-10 of the
            # larger term, since the two terms partly cancel.
            yield "measure_weight_vs_kv", abs(got - (outer - inner)), 1e-10 * max(outer, inner)


WORKLOADS = {w.name: w for w in (FigureSeries(), SpectralOracle(), CoherentChecks())}

"""Acceptance criteria, one test per criterion, with a pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
report.  Tolerances are fixed here and match the package's published
contracts.
"""

import math
import time

import numpy as np
import pytest

from kgcoherent import evolution, linear_osc, oracle, poschl_teller
from kgcoherent.linear_osc import CoherentSpec, LinearModel
from kgcoherent.poschl_teller import PTModel

LINEAR = LinearModel(1.0, 1.0)
PT = PTModel(1.0, 1.0)
ALPHA_SMALL = 0.1 + 0.2j
ALPHA_LARGE = 1 + 2j


def report(name, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


@pytest.fixture(scope="module")
def fig1_series():
    spec = CoherentSpec(ALPHA_SMALL, 50)
    t_grid = np.arange(0.0, 50.0001, 0.05)
    start = time.monotonic()
    ts = linear_osc.time_series(LINEAR, spec, t_grid)
    return ts, time.monotonic() - start


def test_01_fig1_reproduction(fig1_series):
    ts, elapsed = fig1_series
    lo, hi = ts.product.min(), ts.product.max()
    ok = lo >= 0.4999 and hi <= 0.515 and elapsed <= 10.0
    report("criterion 1 (fig1 envelope)",
           ok, f"product in [{lo:.6f}, {hi:.6f}], runtime {elapsed:.2f}s")


def test_02_heisenberg_floor():
    floor = 0.5 * (1.0 - 1e-6)
    worst = math.inf
    t_lattice = np.linspace(0.0, 20.0, 41)
    for alpha in (0.0, ALPHA_SMALL, ALPHA_LARGE, 2 - 1j):
        spec = CoherentSpec(alpha, 50)
        for t in t_lattice:
            worst = min(worst, linear_osc.uncertainties(LINEAR, spec, t)[2])
    grid = evolution.default_grid(LINEAR)
    for alpha in (ALPHA_SMALL, ALPHA_LARGE):
        state = evolution.coherent_coefficients(LINEAR, alpha, 50)
        for t in (0.0, 1.7, 8.4):
            worst = min(worst, evolution.heisenberg_product(state, grid, t)[2])
    report("criterion 2 (Heisenberg floor)", worst >= floor,
           f"min product {worst:.9f} >= {floor:.9f}")


def test_03_oracle_equivalence():
    grid = evolution.default_grid(LINEAR)
    worst = 0.0
    for alpha in (ALPHA_SMALL, ALPHA_LARGE, 2 - 1j, 0.5):
        spec = CoherentSpec(alpha, 50)
        state = evolution.coherent_coefficients(LINEAR, alpha, 50)
        for t in (0.0, 0.7, 3.1, 12.9):
            f = evolution.synthesize(state, grid, t)
            mean_x, mean_x2, _ = evolution.position_moments(f)
            mean_p, mean_p2 = evolution.momentum_moments(f)
            series = linear_osc.expectation_series(LINEAR, spec, t)
            for got, want in zip((mean_x, mean_p, mean_x2, mean_p2), series):
                # relative error with a floor, so near-zero targets are
                # judged at absolute tolerance 1e-8
                worst = max(worst, abs(got - want) / max(abs(want), 1e-2))
    report("criterion 3 (series vs quadrature)", worst <= 1e-6,
           f"worst relative deviation {worst:.3e} <= 1e-6")


def test_04_spectral_verification():
    start = time.monotonic()
    rep_lin = oracle.spectrum_compare(
        oracle.linear_potential(count=4001), LINEAR.energies(8))
    rep_pt = oracle.spectrum_compare(
        oracle.pt_potential(count=4001), PT.energies(8))
    elapsed = time.monotonic() - start
    ok = (rep_lin["max_rel_error"] <= 1e-3 and rep_pt["max_rel_error"] <= 1e-3
          and 1.8 <= rep_lin["convergence_order"] <= 2.2
          and 1.8 <= rep_pt["convergence_order"] <= 2.2
          and elapsed <= 30.0)
    report("criterion 4 (FD spectra)", ok,
           f"linear err {rep_lin['max_rel_error']:.2e} "
           f"order {rep_lin['convergence_order']:.2f}; "
           f"pt err {rep_pt['max_rel_error']:.2e} "
           f"order {rep_pt['convergence_order']:.2f}; {elapsed:.1f}s")


def test_05_pt_equal_spacing():
    e = PT.energies(61)
    gaps = np.diff(e)
    exact = all(PT.omega * (n + 1 + PT.lam) == e[n + 1] for n in range(61))
    report("criterion 5 (equal spacing)",
           exact and np.allclose(gaps, PT.omega, rtol=1e-13),
           f"max |gap - omega| = {np.max(np.abs(gaps - PT.omega)):.2e}")


def test_06_pt_eigenstate_property():
    worst = 0.0
    for alpha in (0.5, 1.0, 1 + 0.5j, 1 + 2j, 2.0, 2j, 2 - 1j):
        state = poschl_teller.coherent_coefficients(PT, alpha, 60)
        out = poschl_teller.apply_annihilation(PT, state.coefficients)
        worst = max(worst, float(
            np.linalg.norm(out - alpha * state.coefficients)
            / np.linalg.norm(state.coefficients)))
    report("criterion 6 (PT eigenstate)", worst <= 1e-10,
           f"worst residual {worst:.3e} <= 1e-10")


def test_07_pt_phase_coherence():
    worst = max(
        poschl_teller.phase_coherence_check(PT, alpha, 60, t)
        for alpha in (0.5, 1.0, 1 + 0.5j, 1 + 2j, 2 - 1j)
        for t in np.linspace(0.0, 12.0, 20))
    report("criterion 7 (phase coherence)", worst <= 1e-12,
           f"worst residual {worst:.3e} <= 1e-12")


def test_08_linear_decoherence():
    state = evolution.coherent_coefficients(LINEAR, ALPHA_LARGE, 50)
    at_zero = evolution.lowering_residual(state, 0.0)
    at_one = evolution.lowering_residual(state, 1.0)
    report("criterion 8 (decoherence)", at_zero <= 1e-12 and at_one > 1e-3,
           f"residual t=0: {at_zero:.2e}, t=1: {at_one:.2e}")


def test_09_measure_moments():
    rep = poschl_teller.verify_measure_moments(PT, 10, 1e-6)
    ok = all(r["passed"] for r in rep)
    control = poschl_teller.verify_measure_moments(
        PT, 2, 1e-6, weight=poschl_teller.g_weight)
    ok = ok and not any(r["passed"] for r in control)
    worst = max(r["rel_err"] for r in rep)
    report("criterion 9 (measure moments)", ok,
           f"worst rel err {worst:.2e} <= 1e-6; negative control fails")


def test_10_normalization():
    worst = 0.0
    for alpha in (0.5, 1 + 0.5j, 2.0, 2j, 2 - 1j):
        for model, truncation in ((LINEAR, 50), (PT, 60)):
            c = evolution.coherent_coefficients(model, alpha, truncation).coefficients
            worst = max(worst, abs(float(np.sum(np.abs(c) ** 2)) - 1.0))
    report("criterion 10 (normalization)", worst <= 1e-10,
           f"worst |norm - 1| = {worst:.2e} <= 1e-10")


def test_11_squeezing_out_of_phase(fig1_series):
    ts, _ = fig1_series
    dx = ts.dx - ts.dx.mean()
    dp = ts.dp - ts.dp.mean()
    corr = float(np.corrcoef(dx, dp)[0, 1])
    report("criterion 11 (squeezing anti-phase)", corr <= -0.5,
           f"Pearson correlation {corr:.3f} <= -0.5")


def test_12_large_alpha_envelope():
    # companion to criterion 2: long-time boundedness for alpha = 1+2i
    spec = CoherentSpec(ALPHA_LARGE, 50)
    early = linear_osc.time_series(LINEAR, spec, np.arange(0.0, 50.0001, 0.05))
    late = linear_osc.time_series(LINEAR, spec, np.arange(50.0, 100.0001, 0.05))
    ratio = late.product.max() / early.product.max()
    report("envelope check (figs 2-3, 6-7)", 0.9 <= ratio <= 1.1,
           f"late/early max product ratio {ratio:.3f} in [0.9, 1.1]")

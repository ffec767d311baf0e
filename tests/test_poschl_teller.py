"""Relativistic Poschl-Teller: spectrum, ladder algebra, coherent states, measure."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import eval_gegenbauer, gammaln

from kgcoherent import evolution, poschl_teller as pt, verify
from kgcoherent.evolution import StateVector, lowering_residual, make_state
from kgcoherent.linear_osc import LinearModel
from kgcoherent.numerics import Grid, GridFunction, quadrature
from kgcoherent.poschl_teller import (
    PTModel,
    apply_annihilation,
    coherent_coefficients,
    evolve,
    g_weight,
    ladder_coeff,
    lambda_of,
    measure_weight,
    phase_coherence_check,
    verify_measure_moments,
)

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def eigenfunction_basis(model, n_max, x):
    """Rows u_0..u_{n_max} of the model's eigenfunctions, sampled on x."""
    return np.array(list(model.eigenfunction_rows(n_max, x)))


class TestLambdaAndSpectrum:
    def test_lambda_unit(self):
        assert lambda_of(1.0, 1.0) == pytest.approx(GOLDEN, rel=1e-15)

    def test_lambda_heavy(self):
        assert lambda_of(2.0, 1.0) == pytest.approx(2.5615528128088303, rel=1e-14)

    def test_lambda_light_mass_limit(self):
        assert lambda_of(1e-7, 1.0) == pytest.approx(1.0, abs=1e-9)
        assert lambda_of(1e-7, 1.0) > 1.0

    def test_lambda_rounding_to_one_rejected(self):
        # 4 m^2/omega^2 = 4e-18 is lost against 1, so lambda == 1.0 exactly
        with pytest.raises(ValueError, match=r"m/omega = 1e-09 is too small"):
            lambda_of(1e-9, 1.0)
        with pytest.raises(ValueError, match=r"m/omega"):
            PTModel(1e-9, 1.0)

    @pytest.mark.parametrize("m,omega", [(1e200, 1e-200), (1e200, 1.0),
                                         (math.inf, 1.0)])
    def test_lambda_out_of_range_rejected(self, m, omega):
        # omega^2 underflows to 0 or m^2 overflows: no finite lambda
        with pytest.raises(ValueError, match=r"m = .*, omega = .*not finite"):
            lambda_of(m, omega)

    def test_ground_energy(self):
        assert PTModel(1, 1).energies(0)[0] == pytest.approx(GOLDEN, rel=1e-15)

    def test_level_five(self):
        assert PTModel(1, 1).energies(5)[5] == pytest.approx(5.0 + GOLDEN, rel=1e-15)

    def test_exact_equal_spacing(self):
        m = PTModel(1.3, 0.7)
        e = m.energies(60)
        # bitwise identity of the formula omega * (n + lam)
        for n in range(60):
            assert e[n + 1] - e[n] == pytest.approx(m.omega, rel=1e-13)
            assert m.omega * ((n + 1) + m.lam) == e[n + 1]

    def test_validation(self):
        with pytest.raises(ValueError):
            lambda_of(-1.0, 1.0)
        with pytest.raises(ValueError):
            PTModel(1.0, 0.0)


class TestEigenfunctions:
    def test_odd_parity_at_origin(self):
        assert eigenfunction_basis(PTModel(1, 1), 1, [0.0])[1, 0] == 0.0

    def test_vanishes_at_wall(self):
        # cos(omega L) only reaches ~6e-17 in floats; (cos)^lam crushes it
        m = PTModel(1, 1)
        u0 = eigenfunction_basis(m, 0, [m.half_width, -m.half_width])[0]
        assert abs(u0[0]) < 1e-20
        assert abs(u0[1]) < 1e-20

    def test_zero_outside_wall(self):
        m = PTModel(1, 1)
        assert eigenfunction_basis(m, 4, [m.half_width * 1.5])[4, 0] == 0.0

    def test_orthonormality(self):
        m = PTModel(1, 1)
        g = Grid(-m.half_width, m.half_width, 4001)
        basis = eigenfunction_basis(m, 8, g.points())
        for i in range(9):
            for j in range(i, 9):
                val = quadrature(GridFunction(g, basis[i] * basis[j])).real
                assert val == pytest.approx(1.0 if i == j else 0.0, abs=1e-8)

    def test_basis_matches_scipy(self):
        # independent route: scipy's Gegenbauer polynomials, normalized by
        # h_n = int (1-t^2)^(lam-1/2) C_n^2 dt
        #     = pi 2^(1-2 lam) Gamma(n + 2 lam) / (n! (n + lam) Gamma(lam)^2)
        # and the Jacobian omega of t = sin(omega x)
        m = PTModel(2, 0.5)
        lam = m.lam
        x = np.linspace(-0.9 * m.half_width, 0.9 * m.half_width, 9)
        wx = m.omega * x
        basis = eigenfunction_basis(m, 7, x)
        for n in (0, 1, 4, 7):
            log_h = (math.log(math.pi) + (1.0 - 2.0 * lam) * math.log(2.0)
                     + gammaln(n + 2.0 * lam) - gammaln(n + 1.0)
                     - math.log(n + lam) - 2.0 * gammaln(lam))
            want = (math.exp(0.5 * (math.log(m.omega) - log_h))
                    * np.cos(wx) ** lam * eval_gegenbauer(n, lam, np.sin(wx)))
            for i in range(x.size):
                assert basis[n, i] == pytest.approx(want[i], rel=1e-11, abs=1e-13)


class TestLadder:
    def test_d0_golden(self):
        assert ladder_coeff(0, GOLDEN) == pytest.approx(
            math.sqrt(2.0 / (GOLDEN + 1.0)), rel=1e-14)

    def test_d1_lambda2(self):
        # (n+1)(2 lam + n) / ((n+lam)(n+1+lam)) = 2*5 / (3*4)
        assert ladder_coeff(1, 2.0) == pytest.approx(math.sqrt(10.0 / 12.0),
                                                     rel=1e-14)

    def test_asymptote(self):
        lam = 1.8
        assert abs(ladder_coeff(10_000, lam) - 1.0) < 1e-3
        for n in range(100):
            assert 0.0 < ladder_coeff(n, lam) < math.sqrt(2.0)

    def test_array_matches_scalar_calls(self):
        lam = 1.8
        got = ladder_coeff(np.arange(100), lam)
        assert isinstance(ladder_coeff(7, lam), float)
        assert got.tolist() == [ladder_coeff(n, lam) for n in range(100)]
        # the closed form one level at a time in stdlib floats
        assert got.tolist() == [
            math.sqrt((n + 1.0) * (2.0 * lam + n) / ((n + lam) * (n + 1.0 + lam)))
            for n in range(100)]

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            ladder_coeff(np.array([0, 1, -1]), 1.8)

    def test_annihilate_matches_levelwise_formula(self):
        m = PTModel(1.3, 0.7)
        lam = m.lam
        rng = np.random.default_rng(5)
        c = rng.normal(size=40) + 1j * rng.normal(size=40)
        want = [c[n + 1] * ((n + 1.0 + lam) * math.sqrt(
                    (n + 1.0) * (2.0 * lam + n) / ((n + lam) * (n + 1.0 + lam))))
                for n in range(39)] + [0.0]
        assert apply_annihilation(m, c).tolist() == want

    def test_annihilate_first_excited(self):
        m = PTModel(1, 1)
        c = np.zeros(4, dtype=complex)
        c[1] = 1.0
        out = apply_annihilation(m, c)
        want = (1.0 + m.lam) * ladder_coeff(0, m.lam)
        assert out[0] == pytest.approx(want, rel=1e-14)
        assert np.all(out[1:] == 0.0)

    def test_annihilate_ground(self):
        m = PTModel(1, 1)
        c = np.zeros(4, dtype=complex)
        c[0] = 1.0
        assert np.all(apply_annihilation(m, c) == 0.0)


class TestCoherentState:
    def test_vacuum(self):
        m = PTModel(1, 1)
        state = coherent_coefficients(m, 0.0, 10)
        assert state.coefficients[0] == 1.0
        assert np.sum(np.abs(state.coefficients) ** 2) == 1.0

    def test_first_ratio(self):
        m = PTModel(1, 1)
        state = coherent_coefficients(m, 1.0, 60)
        want = math.sqrt(1.0 / (2.0 * (1.0 + m.lam)))
        assert abs(state.coefficients[1] / state.coefficients[0]) == \
            pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.5, 1 + 0.5j, 2 - 1j, 3.0, -2.5j])
    def test_unit_norm(self, alpha):
        state = coherent_coefficients(PTModel(1, 1), alpha, 60)
        assert np.sum(np.abs(state.coefficients) ** 2) == pytest.approx(
            1.0, abs=1e-10)

    @pytest.mark.parametrize("alpha", [0.5, 1 + 0.5j, 2 - 1j])
    def test_recursion_consistency(self, alpha):
        # a c_n = alpha c_n level by level; the last level has no c_{N+1}
        m = PTModel(1, 1)
        c = coherent_coefficients(m, alpha, 60).coefficients
        lowered = apply_annihilation(m, c)[:-1]
        want = alpha * c[:-1]
        rel = np.abs(lowered - want) / np.abs(want)
        assert np.max(rel) <= 1e-13

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1 + 0.5j, 1 + 2j, 2 - 1j])
    def test_eigenstate_of_lowering(self, alpha):
        m = PTModel(1, 1)
        state = coherent_coefficients(m, alpha, 60)
        out = apply_annihilation(m, state.coefficients)
        res = np.linalg.norm(out - alpha * state.coefficients) \
            / np.linalg.norm(state.coefficients)
        assert res <= 1e-10

    def test_eigenstate_check_is_not_an_identity(self, monkeypatch):
        # Lowering factors built from 1/sqrt(weight_step(1, n)) would follow
        # any change of the coefficients, and pt_eigenstate_residual would
        # check an identity.  Perturb one weight step by 1e-6 and build the
        # verify suite's model anew: the residual must see it.
        step = PTModel.weight_step

        def perturbed(self, mu, n):
            return step(self, mu, n) * np.where(np.asarray(n) == 2, 1.0 + 1e-6, 1.0)

        monkeypatch.setattr(PTModel, "weight_step", perturbed)
        evolution._ladder.cache_clear()
        try:
            checks = {c["name"]: c["value"] for c in verify.verify_coherence()}
        finally:
            evolution._ladder.cache_clear()
        assert checks["pt_eigenstate_residual"] > 1e-10

    def test_validation(self):
        with pytest.raises(ValueError):
            coherent_coefficients(PTModel(1, 1), 1.0, 0)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, complex(1.0, -math.inf)])
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha must be finite"):
            coherent_coefficients(PTModel(1, 1), alpha, 10)
        with pytest.raises(ValueError, match="alpha must be finite"):
            coherent_coefficients(PTModel(1, 1), np.array([0.5, alpha, 0.0]), 10)

    @pytest.mark.parametrize("m", [LinearModel(0.7, 1.3), PTModel(1.3, 0.7)],
                             ids=["linear", "pt"])
    def test_label_array_rows_equal_scalar_calls(self, m):
        # one constructor serves both models: PT's name is evolution's
        assert coherent_coefficients is evolution.coherent_coefficients
        alphas = np.array([0.5, 0.0, 1 + 2j, -2.5j, 1e-300, 3 - 1j, 0.0])
        state = coherent_coefficients(m, alphas, 60)
        assert state.coefficients.shape == (alphas.size, 61)
        assert isinstance(state, StateVector) and state.model == m
        for alpha, row in zip(alphas, state.coefficients):
            one = coherent_coefficients(m, alpha, 60)
            assert one.coefficients.ndim == 1
            assert one.coefficients.tolist() == row.tolist()
        assert state.coefficients[1].tolist() == [1.0] + [0.0] * 60
        if isinstance(m, LinearModel):
            # Poisson amplitudes |alpha|^n / sqrt(n!) in stdlib floats,
            # renormalized over levels 0..60
            for alpha, row in zip(alphas.tolist(), state.coefficients):
                amp = [abs(alpha) ** n / math.sqrt(math.factorial(n)) for n in range(61)]
                norm = math.sqrt(math.fsum(a * a for a in amp))
                want = np.array([cmath.rect(a / norm, n * cmath.phase(alpha))
                                 for n, a in enumerate(amp)])
                assert np.all(np.abs(row - want) <= 1e-13 * np.abs(want))

    def test_label_matrix_rejected(self):
        with pytest.raises(ValueError, match="1-D array of labels"):
            coherent_coefficients(PTModel(1, 1), np.ones((2, 2)), 10)


class TestEvolution:
    def test_identity_at_t0(self):
        m = PTModel(1, 1)
        state = coherent_coefficients(m, 1 + 1j, 40)
        assert np.allclose(evolve(state, 0.0), state.coefficients)

    def test_full_revolution_global_phase(self):
        m = PTModel(1, 1)
        state = coherent_coefficients(m, 1 + 1j, 40)
        t = 2.0 * math.pi / m.omega
        phase = cmath.exp(-2j * math.pi * m.lam)
        assert np.allclose(evolve(state, t), phase * state.coefficients,
                           atol=1e-12)

    def test_phase_coherence_zero_time(self):
        assert phase_coherence_check(PTModel(1, 1), 1.0, 60, 0.0) == 0.0

    def test_phase_coherence_sample(self):
        assert phase_coherence_check(PTModel(1, 1), 1 + 0.5j, 60, 0.7) <= 1e-12

    @settings(deadline=None, max_examples=60)
    @given(m=st.floats(0.05, 5.0), omega=st.floats(0.2, 5.0),
           radius=st.floats(0.0, 3.0), angle=st.floats(-math.pi, math.pi),
           t=st.floats(0.0, 12.0))
    def test_phase_coherence_property(self, m, omega, radius, angle, t):
        # label rotation: evolving psi_alpha equals psi_{alpha e^{-i omega t}}
        # up to the global phase e^{-i omega lam t}
        alpha = cmath.rect(radius, angle)
        assert phase_coherence_check(PTModel(m, omega), alpha, 60, t) <= 1e-12

    def test_phase_coherence_lattice(self):
        m = PTModel(1, 1)
        worst = max(phase_coherence_check(m, alpha, 60, t)
                    for alpha in (0.5, 1.0, 1 + 0.5j, 1 + 2j, 2 - 1j)
                    for t in np.linspace(0.0, 12.0, 20))
        assert worst <= 1e-12

    @pytest.mark.parametrize("alpha", [0.0, 1 + 0.5j, 2 - 1j])
    def test_time_array_equals_scalar_calls(self, alpha):
        m = PTModel(1.3, 0.7)
        times = np.linspace(0.0, 12.0, 20)
        got = phase_coherence_check(m, alpha, 60, times)
        assert got.shape == times.shape
        assert got.tolist() == [phase_coherence_check(m, alpha, 60, t) for t in times]
        assert isinstance(phase_coherence_check(m, alpha, 60, 0.7), float)

    def test_evolve_time_array_rows(self):
        m = PTModel(1.3, 0.7)
        state = coherent_coefficients(m, 1 + 1j, 40)
        times = np.array([0.0, 0.7, 5.5])
        rows = evolve(state, times)
        assert rows.shape == (3, 41)
        for t, row in zip(times, rows):
            assert row.tolist() == evolve(state, t).tolist()

    def test_rotated_states_come_from_closed_form(self, monkeypatch):
        # Perturb every built state by a factor that depends on Re(label).
        # The rotated labels differ from alpha, so a check that builds them
        # from the closed form sees the perturbation; one that re-phased
        # psi_alpha's coefficients would still read ~0.
        builder = pt.coherent_coefficients

        def perturbed(model, alpha, truncation=60):
            state = builder(model, alpha, truncation)
            scale = 1.0 + 1e-3 * np.real(alpha)
            return StateVector(model, state.coefficients * np.asarray(scale)[..., None])

        m = PTModel(1, 1)
        times = np.array([0.7, 2.0, 4.0])
        assert np.all(phase_coherence_check(m, 1 + 0.5j, 60, times) <= 1e-12)
        monkeypatch.setattr(pt, "coherent_coefficients", perturbed)
        assert np.all(phase_coherence_check(m, 1 + 0.5j, 60, times) > 1e-8)
        assert phase_coherence_check(m, 1 + 0.5j, 60, 0.7) > 1e-8


# Reference coherent-state arithmetic, level by level from the model's fields
# with no cached table: the library's ladder must reproduce it bit for bit.

def reference_coefficients(model, alpha, truncation):
    labels = np.asarray(alpha, dtype=complex)
    r = np.abs(labels).reshape(-1, 1)
    n = np.arange(truncation + 1)
    lam = model.lam
    k = n[:-1]
    q1 = 1.0 / (k + 1.0) * (k + lam) / ((k + 2.0 * lam) * (k + 1.0 + lam))
    with np.errstate(divide="ignore"):
        log_q = 2.0 * np.log(r) + np.log(q1)
    log_terms = np.cumsum(np.c_[np.zeros(r.shape), log_q], axis=1)
    peak = log_terms.max(axis=1, keepdims=True)
    log_s = peak + np.log(np.exp(log_terms - peak).sum(axis=1, keepdims=True))
    phase = np.arctan2(labels.imag, labels.real).reshape(-1, 1)
    c = np.exp(0.5 * (log_terms - log_s) + 1j * (phase * n))
    return c if labels.ndim else c[0]


def reference_energies(model, n):
    if isinstance(model, LinearModel):
        return np.sqrt((2.0 * n + 1.0) * model.k)
    return model.omega * (n + model.lam)


def reference_lowering(model, c):
    n = np.arange(c.size - 1)
    if isinstance(model, LinearModel):
        factor = np.sqrt(n + 1.0)
    else:
        lam = model.lam
        d = np.sqrt((n + 1.0) * (2.0 * lam + n) / ((n + lam) * (n + 1.0 + lam)))
        factor = (n + 1.0 + lam) * d
    out = np.zeros_like(c)
    out[:-1] = c[1:] * factor
    return out


def reference_evolve(model, c, t):
    times = np.asarray(t, dtype=float)[..., None]
    return c * np.exp(-1j * (reference_energies(model, np.arange(c.shape[-1])) * times))


def reference_phase_check(model, alpha, truncation, times):
    labels = np.concatenate(([alpha], alpha * np.exp(-1j * model.omega * times)))
    states = reference_coefficients(model, labels, truncation)
    evolved = reference_evolve(model, states[0], times)
    target = np.exp(-1j * model.omega * model.lam * times)[:, None] * states[1:]
    return np.linalg.norm(evolved - target, axis=1) / np.linalg.norm(states[0])


LADDER_MODELS = [(1.0, 1.0), (0.5, 2.0), (0.02, 2.0)]
LADDER_LABELS = [0.0, 1.3 - 0.4j, np.array([0.0, 0.5j, -2.0 + 1.0j, 3.0])]
LADDER_TIMES = np.array([0.0, 0.7, 5.5, 11.9])


class TestCachedLadder:
    """Both models' coefficients, lowering, evolution and the PT phase check
    read evolution's one cached ladder per (model, truncation); it moves no
    output by a bit."""

    @pytest.mark.parametrize("m,omega", LADDER_MODELS)
    @pytest.mark.parametrize("truncation", [1, 60, 200])
    @pytest.mark.parametrize("label", LADDER_LABELS, ids=["zero", "scalar", "array"])
    def test_outputs_equal_reference(self, m, omega, truncation, label):
        model = PTModel(m, omega)
        c = coherent_coefficients(model, label, truncation).coefficients
        assert np.array_equal(c, reference_coefficients(model, label, truncation))
        for alpha, row in zip(np.atleast_1d(label), np.atleast_2d(c)):
            assert np.array_equal(apply_annihilation(model, row),
                                  reference_lowering(model, row))
            state = make_state(model, row)
            for t in (LADDER_TIMES[2], LADDER_TIMES):
                assert np.array_equal(evolve(state, t), reference_evolve(model, row, t))
            want = reference_phase_check(model, complex(alpha), truncation, LADDER_TIMES)
            assert np.array_equal(
                phase_coherence_check(model, alpha, truncation, LADDER_TIMES), want)
            assert phase_coherence_check(model, alpha, truncation, 0.7) == want[1]
        # a multi-label state evolves at one time, row by row
        state = coherent_coefficients(model, label, truncation)
        assert np.array_equal(evolve(state, 0.7), reference_evolve(model, c, 0.7))

    @pytest.mark.parametrize("m,k", [(1.0, 1.0), (0.5, 2.0), (2.0, 0.3)])
    @pytest.mark.parametrize("truncation", [1, 50, 200])
    def test_linear_ladder_equals_reference(self, m, k, truncation):
        # lowering sqrt(n + 1) and energies sqrt((2n + 1) k), one level at a
        # time in stdlib floats (both square roots are correctly rounded)
        model = LinearModel(m, k)
        ladder = evolution._ladder(model, truncation)
        assert ladder.lowering.tolist() == [math.sqrt(n + 1.0) for n in range(truncation)]
        assert ladder.energies.tolist() == [
            math.sqrt((2.0 * n + 1.0) * k) for n in range(truncation + 1)]
        rng = np.random.default_rng(truncation)
        c = rng.normal(size=truncation + 1) + 1j * rng.normal(size=truncation + 1)
        assert np.array_equal(apply_annihilation(model, c), reference_lowering(model, c))
        state = make_state(model, c)
        for t in (LADDER_TIMES[2], LADDER_TIMES):
            assert np.array_equal(evolve(state, t), reference_evolve(model, c, t))
        # the residual at t reads the same evolved and lowered vectors
        ct = reference_evolve(model, c, 0.7)
        out = reference_lowering(model, ct)
        mu = np.vdot(ct, out) / np.vdot(ct, ct).real
        want = np.linalg.norm(out - mu * ct) / np.linalg.norm(ct)
        assert lowering_residual(state, 0.7) == pytest.approx(want, rel=1e-14)

    def test_tables_are_read_only(self):
        for model in (PTModel(0.5, 2.0), LinearModel(0.5, 2.0)):
            for table in evolution._ladder(model, 60):
                assert not table.flags.writeable
                with pytest.raises(ValueError):
                    table[0] = 1.0

    def test_models_and_truncations_keep_their_own_tables(self):
        # (1, 1) and (2, 2) share lambda but not omega, (0.5, 2) and (0.5, 1)
        # share m, and the linear (1, 1) and (1, 2) share m; PT and linear
        # models with equal fields are distinct keys.  Interleaved calls must
        # each read their own model's table.
        pairs = [(PTModel(1.0, 1.0), PTModel(2.0, 2.0)),
                 (PTModel(0.5, 2.0), PTModel(0.5, 1.0)),
                 (LinearModel(1.0, 1.0), LinearModel(1.0, 2.0)),
                 (LinearModel(1.0, 1.0), PTModel(1.0, 1.0))]
        c = reference_coefficients(PTModel(1.0, 1.0), 1 + 0.5j, 60)
        for a, b in pairs:
            for model in (a, b, a, b):
                assert np.array_equal(evolve(make_state(model, c), 0.7),
                                      reference_evolve(model, c, 0.7))
                assert np.array_equal(apply_annihilation(model, c),
                                      reference_lowering(model, c))
        model = PTModel(0.5, 2.0)
        for truncation in (200, 60, 200, 1):
            c = coherent_coefficients(model, 2.0 - 1j, truncation).coefficients
            assert c.size == truncation + 1
            assert np.array_equal(c, reference_coefficients(model, 2.0 - 1j, truncation))
            assert np.array_equal(apply_annihilation(model, c), reference_lowering(model, c))

    def test_cache_is_bounded(self):
        # every benchmark job and CLI call builds a new model: the cache
        # must keep only the most recent ladders
        for k in range(3 * evolution._LADDERS):
            coherent_coefficients(PTModel(1.0 + k / 64.0, 1.0), 0.5, 60)
            evolve(make_state(LinearModel(1.0, 1.0 + k / 64.0), np.ones(4)), 0.7)
        info = evolution._ladder.cache_info()
        assert info.maxsize == evolution._LADDERS
        assert info.currsize <= evolution._LADDERS


class TestMeasure:
    def test_g_moment_identity(self):
        # Mellin identity: integral of x^n G equals n! Gamma(n + 2 lam)
        m = PTModel(1, 1)
        rep = verify_measure_moments(m, 3, 1e-6, weight=g_weight)
        for r in rep:
            lam = m.lam
            want = math.exp(pt.log_gamma(r["n"] + 1.0)
                            + pt.log_gamma(r["n"] + 2.0 * lam))
            assert r["value"] == pytest.approx(want, rel=1e-6)

    def test_moment_zero(self):
        m = PTModel(1, 1)
        rep = verify_measure_moments(m, 0, 1e-6)
        assert rep[0]["passed"]
        assert rep[0]["target"] == pytest.approx(
            m.lam * math.exp(pt.log_gamma(2.0 * m.lam)), rel=1e-13)

    def test_moment_three(self):
        m = PTModel(1, 1)
        rep = verify_measure_moments(m, 3, 1e-6)
        want = 6.0 * (3.0 + m.lam) * math.exp(pt.log_gamma(2.0 * m.lam + 3.0))
        assert rep[3]["value"] == pytest.approx(want, rel=1e-6)

    def test_all_moments_to_ten(self):
        rep = verify_measure_moments(PTModel(1, 1), 10, 1e-6)
        assert all(r["passed"] for r in rep)

    def test_loose_tolerance_also_passes(self):
        rep = verify_measure_moments(PTModel(1, 1), 4, 1e-1)
        assert all(r["passed"] for r in rep)

    def test_negative_control_fails(self):
        # G alone misses the derivative term: moments land at target/(n+lam)
        m = PTModel(1, 1)
        rep = verify_measure_moments(m, 1, 1e-6, weight=g_weight)
        for r in rep:
            assert not r["passed"]
            assert r["value"] / r["target"] == pytest.approx(
                1.0 / (r["n"] + m.lam), rel=1e-5)

    def test_weight_empirically_positive(self):
        # not claimed analytically; checked on a sample lattice and reported
        m = PTModel(1, 1)
        x = np.geomspace(1e-3, 200.0, 200)
        assert np.all(measure_weight(m, x) > 0.0)

    @pytest.mark.parametrize("weight", [measure_weight, g_weight])
    def test_weight_keeps_input_shape(self, weight):
        # a number or a 0-d array gives a float, an array its own shape
        m = PTModel(1, 1)
        x = np.array([[0.5, 2.0], [7.0, 30.0]])
        assert weight(m, np.array(2.0)) == weight(m, 2.0)
        assert isinstance(weight(m, np.array(2.0)), float)
        np.testing.assert_array_equal(weight(m, x), weight(m, x.ravel()).reshape(2, 2))

    def test_weight_domain(self):
        with pytest.raises(ValueError):
            measure_weight(PTModel(1, 1), -1.0)

    def test_weight_overflow_raises(self):
        # nu = 2 lambda - 1 = 120: K_nu(2 sqrt(x)) overflows double precision
        with pytest.raises(OverflowError, match=r"overflows.*nu=1\d\d.*z=1.41"):
            measure_weight(PTModel(60, 1), [0.5, 2.0])

    @pytest.mark.parametrize("weight", [measure_weight, g_weight])
    @pytest.mark.parametrize("m,omega", [(1.0, 1.0), (0.5, 2.0), (2.0, 0.5),
                                         (1.3, 0.7)])
    def test_cutoff_matches_one_probe_ladder(self, m, omega, weight):
        def ladder_cutoff(model, n, tol, target):
            # reference: the ladder probed one rung per weight call
            x = (n + model.lam + 6.0) ** 2
            for _ in range(60):
                w = abs(float(np.atleast_1d(weight(model, np.array([x])))[0]))
                if x ** n * w * (math.sqrt(x) + 1.0) <= 1e-2 * tol * target:
                    return x
                x *= 1.4
            raise AssertionError("reference ladder exhausted")

        model = PTModel(m, omega)
        targets = [pt.moment_target(model, n) for n in range(11)]
        got = pt._moment_cutoffs(model, 1e-6, targets, weight)
        assert got.tolist() == [ladder_cutoff(model, n, 1e-6, target)
                                for n, target in enumerate(targets)]

    @pytest.mark.parametrize("weight", [measure_weight, g_weight])
    def test_integral_matches_interleaved_simpson(self, weight):
        def interleaved(model, n, x_cut, tol, target):
            # reference: interleave u and midpoints, Simpson sum written out
            def f_of(u):
                return 2.0 * u ** (2 * n + 1) * weight(model, u * u)

            def simpson(u, f):
                return ((u[1] - u[0]) / 3.0) * (
                    f[0] + f[-1] + 4.0 * np.sum(f[1:-1:2]) + 2.0 * np.sum(f[2:-1:2]))

            u = np.linspace(0.0, math.sqrt(x_cut), 257)
            f = np.r_[0.0, f_of(u[1:])]
            value = simpson(u, f)
            for _ in range(6):
                mids = 0.5 * (u[:-1] + u[1:])
                u = np.insert(u, np.arange(1, u.size), mids)
                f = np.insert(f, np.arange(1, f.size), f_of(mids))
                new = simpson(u, f)
                if abs(new - value) <= 0.1 * tol * target:
                    return new, True
                value = new
            return value, False

        # lambda = 2.42, 1.0001 and 10.5, on the cutoffs of tol 1e-6.  The
        # batched levels drop moments as they settle: at 1.0001 moment 0
        # needs three doublings, and at 10.5 integrated to tol 1e-8 a higher
        # moment stays open after a lower one
        for m, omega, tol in ((1.3, 0.7, 1e-6), (0.02, 2.0, 1e-6),
                              (5.0, 0.5, 1e-6), (5.0, 0.5, 1e-8)):
            model = PTModel(m, omega)
            targets = [pt.moment_target(model, n) for n in range(11)]
            cutoffs = pt._moment_cutoffs(model, 1e-6, targets, weight)
            values, flags = pt._moment_integrals(model, tol, targets, cutoffs,
                                                 weight)
            for n, (target, x_cut) in enumerate(zip(targets, cutoffs.tolist())):
                want, want_converged = interleaved(model, n, x_cut, tol, target)
                # same nodes; the weight's Bessel tables and the sums are
                # batched differently, so the values agree to rounding
                assert values[n] == pytest.approx(want, rel=0.0, abs=1e-14 * target)
                assert flags[n] == want_converged

    def test_cutoff_unmet_raises(self):
        # x^-2.6 decays fast enough for the tail bounds of n = 0 and 1 on the
        # ladder, not for n = 2; a weight that never decays has no cutoff
        def power_law(model, x):
            return x ** -2.6

        def flat(model, x):
            return np.ones_like(x)

        m = PTModel(1, 1)
        targets = [pt.moment_target(m, n) for n in range(3)]
        assert np.all(np.isfinite(pt._moment_cutoffs(m, 1e-6, targets[:2], power_law)))
        with pytest.raises(RuntimeError, match=r"moment n=2: tail bound not met"):
            pt._moment_cutoffs(m, 1e-6, targets, power_law)
        with pytest.raises(RuntimeError, match=r"moment n=2: tail bound not met"):
            verify_measure_moments(m, 2, weight=power_law)
        with pytest.raises(RuntimeError, match=r"n=0"):
            verify_measure_moments(m, 0, weight=flat)

    def test_verifier_validation(self):
        with pytest.raises(ValueError):
            verify_measure_moments(PTModel(1, 1), 13)
        with pytest.raises(ValueError):
            verify_measure_moments(PTModel(1, 1), 2, tol=1e-9)

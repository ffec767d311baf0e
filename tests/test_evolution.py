"""Grid synthesis and quadrature moments: the model-independent oracle."""

import math
import tracemalloc

import numpy as np
import pytest

from kgcoherent import evolution, linear_osc, poschl_teller
from kgcoherent.evolution import (
    SupportError,
    default_grid,
    heisenberg_product,
    lowering_residual,
    make_state,
    momentum_moments,
    position_moments,
    synthesize,
)
from kgcoherent.linear_osc import CoherentSpec, LinearModel
from kgcoherent.numerics import Grid, GridFunction, quadrature
from kgcoherent.poschl_teller import PTModel


def eigenfunction_basis(model, n_max, x):
    """Rows u_0..u_{n_max} of the model's eigenfunctions, sampled on x."""
    return np.array(list(model.eigenfunction_rows(n_max, x)))


def linear_coherent_state(alpha, truncation=50, model=None):
    model = model or LinearModel(1, 1)
    return evolution.coherent_coefficients(model, alpha, truncation)


class TestStateVector:
    def test_equality_and_hash_are_identity(self):
        # generated __eq__/__hash__ would compare the coefficient arrays:
        # == raised "truth value ... ambiguous" and hash raised TypeError
        m = PTModel(1, 1)
        state = poschl_teller.coherent_coefficients(m, 1.0, 10)
        other = poschl_teller.coherent_coefficients(m, 1.0, 10)
        assert state == state
        assert state != other
        assert hash(state) == hash(state)
        assert len({state, other, state}) == 2
        assert np.array_equal(state.coefficients, other.coefficients)


class TestSynthesize:
    def test_stationary_density(self):
        m = LinearModel(1, 1)
        c = np.zeros(6, dtype=complex)
        c[0] = 1.0
        state = make_state(m, c)
        grid = default_grid(m)
        f0 = synthesize(state, grid, 0.0)
        f1 = synthesize(state, grid, 2.7)
        assert np.allclose(np.abs(f0.values), np.abs(f1.values), atol=1e-14)

    def test_unit_norm(self):
        state = linear_coherent_state(0.1 + 0.2j)
        grid = default_grid(state.model)
        f = synthesize(state, grid, 0.0)
        norm = quadrature(GridFunction(grid, np.abs(f.values) ** 2)).real
        assert norm == pytest.approx(1.0, abs=1e-8)

    def test_pt_wall_values(self):
        m = PTModel(1, 1)
        state = make_state(m, poschl_teller.coherent_coefficients(m, 1.0, 40).coefficients)
        f = synthesize(state, default_grid(m), 0.3)
        assert abs(f.values[0]) < 1e-15
        assert abs(f.values[-1]) < 1e-15

    def test_pt_grid_outside_support_rejected(self):
        m = PTModel(1, 1)
        state = make_state(m, poschl_teller.coherent_coefficients(m, 1.0, 10).coefficients)
        with pytest.raises(ValueError):
            synthesize(state, Grid(-2.0, 2.0, 101), 0.0)

    def test_norm_conserved_in_time(self):
        state = linear_coherent_state(1 + 2j)
        grid = default_grid(state.model)
        norms = []
        for t in (0.0, 1.0, 5.0, 20.0):
            f = synthesize(state, grid, t)
            norms.append(quadrature(GridFunction(grid, np.abs(f.values) ** 2)).real)
        assert max(norms) - min(norms) < 1e-10

    def test_peak_memory_stays_near_the_real_basis(self):
        # rows are summed a block at a time, so neither the 51 x 4001 basis
        # nor a complex copy of it (2x its size) is ever held
        state = linear_coherent_state(1 + 2j)
        grid = default_grid(state.model, 4001)
        synthesize(state, grid, 0.7)  # warm-up: imports, caches
        basis_bytes = state.coefficients.size * grid.count * 8  # 51 x 4001 floats
        tracemalloc.start()
        try:
            synthesize(state, grid, 0.7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < basis_bytes / 2

    @pytest.mark.parametrize("truncation", [3, 50])
    def test_matches_full_basis_product(self, truncation):
        # reference: the whole basis at once; 4 and 51 rows cover a lone
        # partial block and full blocks with a partial one after them
        pt_model = PTModel(1.3, 0.7)
        for state in (linear_coherent_state(1 + 2j, truncation),
                      poschl_teller.coherent_coefficients(pt_model, 0.8 - 0.4j, truncation)):
            grid = default_grid(state.model, 4001)
            basis = eigenfunction_basis(state.model, truncation, grid.points())
            energies = state.model.energies(truncation)
            w = state.coefficients * np.exp(-1j * energies * 0.7)
            want = w.real @ basis + 1j * (w.imag @ basis)
            got = synthesize(state, grid, 0.7).values
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


class TestPositionMoments:
    def test_gaussian_ground_state(self):
        m = LinearModel(1, 1)
        c = np.zeros(3, dtype=complex)
        c[0] = 1.0
        f = synthesize(make_state(m, c), default_grid(m), 0.0)
        mean_x, mean_x2, norm = position_moments(f)
        assert mean_x == pytest.approx(0.0, abs=1e-10)
        assert mean_x2 == pytest.approx(0.5, abs=1e-8)
        assert norm == pytest.approx(1.0, abs=1e-8)

    def test_first_excited(self):
        m = LinearModel(1, 1)
        c = np.zeros(3, dtype=complex)
        c[1] = 1.0
        f = synthesize(make_state(m, c), default_grid(m), 0.0)
        _, mean_x2, _ = position_moments(f)
        assert mean_x2 == pytest.approx(1.5, abs=1e-8)

    def test_support_truncation_error(self):
        m = LinearModel(1, 1)
        c = np.zeros(3, dtype=complex)
        c[0] = 1.0
        narrow = Grid(-0.5, 0.5, 201)
        f = synthesize(make_state(m, c), narrow, 0.0)
        with pytest.raises(SupportError):
            position_moments(f)


class TestMomentumMoments:
    def test_real_function_zero_momentum(self):
        m = LinearModel(1, 1)
        c = np.zeros(4, dtype=complex)
        c[2] = 1.0
        f = synthesize(make_state(m, c), default_grid(m), 0.0)
        mean_p, _ = momentum_moments(f)
        assert mean_p == pytest.approx(0.0, abs=1e-10)

    def test_ground_state_p2(self):
        m = LinearModel(1, 1)
        c = np.zeros(3, dtype=complex)
        c[0] = 1.0
        f = synthesize(make_state(m, c), default_grid(m), 0.0)
        _, mean_p2 = momentum_moments(f)
        assert mean_p2 == pytest.approx(0.5, abs=1e-7)

    def test_coherent_momentum_at_t0(self):
        f = synthesize(linear_coherent_state(0.1 + 0.2j),
                       default_grid(LinearModel(1, 1)), 0.0)
        mean_p, _ = momentum_moments(f)
        assert mean_p == pytest.approx(math.sqrt(2.0) * 0.2, abs=1e-6)

    def test_boundary_leak_error(self):
        g = Grid(-1.0, 1.0, 201)
        f = GridFunction(g, np.ones(201, dtype=complex))
        with pytest.raises(SupportError):
            momentum_moments(f)


class TestHeisenbergProduct:
    def test_stationary_ground_state(self):
        m = LinearModel(1, 1)
        c = np.zeros(3, dtype=complex)
        c[0] = 1.0
        dx, dp, prod = heisenberg_product(make_state(m, c), default_grid(m), 0.0)
        assert prod == pytest.approx(0.5, abs=1e-6)

    def test_matches_closed_form(self):
        m = LinearModel(1, 1)
        spec = CoherentSpec(0.1 + 0.2j, 50)
        state = evolution.coherent_coefficients(m, spec.alpha, spec.truncation)
        grid = default_grid(m)
        want = linear_osc.time_series(m, spec, [0.0, 7.3]).product
        for t, closed_form in zip((0.0, 7.3), want):
            _, _, prod = heisenberg_product(state, grid, t)
            assert prod == pytest.approx(closed_form, abs=1e-6)

    def test_pt_state_bounded_below(self):
        m = PTModel(1, 1)
        state = make_state(m, poschl_teller.coherent_coefficients(m, 1.0, 60).coefficients)
        _, _, prod = heisenberg_product(state, default_grid(m), 0.0)
        assert prod >= 0.5

    def test_grid_refinement_stable(self):
        m = LinearModel(1, 1)
        state = linear_coherent_state(0.1 + 0.2j, model=m)
        coarse = heisenberg_product(state, default_grid(m, 4001), 1.3)
        fine = heisenberg_product(state, default_grid(m, 8001), 1.3)
        assert abs(coarse[2] - fine[2]) < 1e-8


class TestLoweringResidual:
    def test_zero_at_t0(self):
        assert lowering_residual(linear_coherent_state(0.7 - 0.3j), 0.0) <= 1e-12

    def test_grows_under_evolution(self):
        assert lowering_residual(linear_coherent_state(1 + 2j), 1.0) > 1e-3

    def test_vacuum_defined_as_zero(self):
        state = linear_coherent_state(0.0, truncation=5)
        assert lowering_residual(state, 0.0) == 0.0

    # The paper's contrast, one function on both models: the linear spectrum
    # is not equally spaced, so its state leaves the lowering eigenspace; the
    # PT state only rotates its label and stays in it to rounding.
    @pytest.mark.parametrize("t", [1.0, 5.0, 12.9])
    def test_linear_state_leaves_the_eigenspace(self, t):
        assert lowering_residual(linear_coherent_state(1 + 2j), t) > 0.1

    @pytest.mark.parametrize("t", [0.0, 1.0, 5.0, 12.9])
    @pytest.mark.parametrize("m,omega", [(1.0, 1.0), (0.5, 2.0), (0.02, 2.0)])
    def test_pt_state_stays_in_the_eigenspace(self, m, omega, t):
        state = poschl_teller.coherent_coefficients(PTModel(m, omega), 1 + 2j, 60)
        assert lowering_residual(state, t) <= 1e-12

    def test_pt_residual_sees_a_non_eigenstate(self):
        m = PTModel(1, 1)
        c = poschl_teller.coherent_coefficients(m, 1 + 2j, 60).coefficients
        c[3] *= 1.0 + 1e-6
        assert lowering_residual(make_state(m, c), 1.0) > 1e-9

    def test_zero_state_rejected(self):
        state = make_state(LinearModel(1, 1), np.zeros(4, dtype=complex))
        with pytest.raises(ValueError):
            lowering_residual(state, 0.0)


class TestStateVector:
    def test_coefficients_beyond_rows_rejected(self):
        m = LinearModel(1, 1)
        for c in (np.complex128(1.0), np.zeros((2, 3, 4), dtype=complex)):
            with pytest.raises(ValueError, match="one row or a 2-D array"):
                evolution.StateVector(m, c)

    def test_pt_coherent_state_is_a_state_vector(self):
        m = PTModel(1, 1)
        state = poschl_teller.coherent_coefficients(m, np.array([0.5, 1 + 2j]), 10)
        assert isinstance(state, evolution.StateVector) and state.model == m
        assert make_state is evolution.StateVector
        assert poschl_teller.evolve is evolution.evolve
        assert poschl_teller.apply_annihilation is evolution.apply_annihilation


class TestOneRowOnly:
    """A multi-row state evolves at one time; the calls that read one state
    reject it rather than pair rows with times or sum rows together."""

    def rows(self):
        m = PTModel(1, 1)
        return poschl_teller.coherent_coefficients(m, np.array([0.5, 1 + 1j]), 10)

    @pytest.mark.parametrize("times", [[0.0, 0.7], [0.0, 0.7, 5.5]])
    def test_evolve_rejects_times_on_rows(self, times):
        with pytest.raises(ValueError, match="one time for a multi-row state"):
            evolution.evolve(self.rows(), np.array(times))
        assert evolution.evolve(self.rows(), 0.7).shape == (2, 11)

    def test_synthesize_rejects_rows(self):
        state = self.rows()
        with pytest.raises(ValueError, match="synthesize takes a one-row state"):
            synthesize(state, default_grid(state.model, 101), 0.0)

    def test_lowering_residual_rejects_rows(self):
        rows = np.stack([linear_coherent_state(a).coefficients for a in (0.5, 1 + 2j)])
        with pytest.raises(ValueError, match="lowering_residual takes a one-row state"):
            lowering_residual(make_state(LinearModel(1, 1), rows), 1.0)


def weights(model, alpha, truncation):
    """|c_n|^2, n = 0..truncation, of the model's coherent-state coefficients."""
    return np.abs(evolution.coherent_coefficients(model, alpha, truncation).coefficients) ** 2


MODELS = [LinearModel(1, 1), PTModel(1, 1), PTModel(0.5, 2.0)]


class TestCoherentLaw:
    """Each model's weight_step, log_weight and log_norm, and the truncation
    tail built from them."""

    @pytest.mark.parametrize("model", MODELS, ids=str)
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1 + 2j, -8j])
    def test_weight_step_is_coefficient_ratio(self, model, alpha):
        w = weights(model, alpha, 121)
        q = model.weight_step(abs(alpha) ** 2, np.arange(121))
        np.testing.assert_allclose(w[1:], q * w[:-1], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("model,alpha,n", [
        (MODELS[0], 1 + 2j, 20), (MODELS[0], 8.0, 121), (MODELS[1], 5.0, 16),
        (MODELS[1], 100.0, 146), (MODELS[2], 3 - 1j, 12)], ids=str)
    def test_tail_bound_brackets_dropped_weight(self, model, alpha, n):
        # w_n q / (1 - q) >= w_{n+1} (1 + q + q^2 ...) >= the weight past n
        mu = abs(alpha) ** 2
        dropped = math.fsum(weights(model, alpha, 4 * n)[n + 1:])
        q = model.weight_step(mu, n)
        tail = evolution.tail_bound(model, mu, n)
        assert dropped * (1.0 - 1e-12) <= tail <= dropped / (1.0 - q) * (1.0 + 1e-12)

    @pytest.mark.parametrize("model,mu", [
        (MODELS[0], 64.0), (MODELS[0], 1e8), (MODELS[1], 1e4), (MODELS[1], 1e8),
        (MODELS[2], 50.0), (MODELS[0], 1e30)], ids=str)
    def test_smallest_truncation_is_smallest(self, model, mu):
        # at mu = 1e30 a direct n log mu - lgamma(n + 1) - mu rounds by ~1e16
        n = evolution.smallest_truncation(model, mu, 1e-10)
        assert evolution.tail_bound(model, mu, n) <= 1e-10
        assert evolution.tail_bound(model, mu, n - 1) > 1e-10

    def test_search_reads_the_norm_once(self, monkeypatch):
        # a PT norm is a 4095-level window sum; the search needs it once
        calls = []
        log_norm = PTModel.log_norm
        monkeypatch.setattr(PTModel, "log_norm",
                            lambda model, mu: calls.append(mu) or log_norm(model, mu))
        assert evolution.smallest_truncation(MODELS[1], 1e4, 1e-10) == 146
        assert calls == [1e4]

    @pytest.mark.parametrize("mu", [0.3, 64.0, 1e4, 1e8])
    def test_linear_log_weight_matches_direct_form(self, mu):
        # the Stirling form (n >= 16) against the direct form, whose rounding
        # of about 70 n eps is small at these n
        model = MODELS[0]
        for n in sorted({0, 1, 15, 16, 17, 40, int(0.5 * mu), int(0.8 * mu),
                         int(mu), int(mu + 7.0 * math.sqrt(mu)) + 1, int(3 * mu) + 20}):
            direct = n * math.log(mu) - math.lgamma(n + 1.0) - mu
            assert model.log_weight(mu, n) == pytest.approx(
                direct, rel=1e-14, abs=1e-13 + 100.0 * n * np.finfo(float).eps)
        assert model.log_norm(mu) == 0.0

    @pytest.mark.parametrize("radius", [0.5, 5.0, 50.0])
    def test_pt_log_norm_matches_logsumexp(self, radius):
        model, mu = MODELS[2], radius * radius
        log_w = np.array([model.log_weight(mu, n) for n in range(1000)])
        top = log_w.max()
        direct = top + math.log(np.exp(log_w - top).sum())
        assert model.log_norm(mu) == pytest.approx(direct, rel=1e-12, abs=1e-14)

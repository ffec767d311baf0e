"""Linear scalar potential: spectrum, eigenfunctions, coherent-state series."""

import math
import sys

import numpy as np
import pytest
from scipy.special import eval_hermite

from kgcoherent import evolution, linear_osc
from kgcoherent.linear_osc import (
    CoherentSpec,
    LinearModel,
    VarianceError,
    coherent_coefficients,
    expectation_series,
    time_series,
    uncertainties,
)
from kgcoherent.numerics import Grid, GridFunction, compensated_sum, quadrature

# times in one block of the series at N = 50
BLOCK = linear_osc._BLOCK_CELLS // 51


def reference_series(model, spec, t):
    """expectation_series with every array rebuilt at each t: the formula the
    cached series table must reproduce bit for bit."""
    t = float(t)
    alpha = complex(spec.alpha)
    a, b = alpha.real, alpha.imag
    r2 = a * a + b * b
    n_max = spec.truncation
    energies = model.energies(n_max + 2)
    w = np.cumprod(np.concatenate(([math.exp(-r2)],
                                   model.weight_step(r2, np.arange(n_max)))))
    th1 = (energies[:n_max + 1] - energies[1:n_max + 2]) * t
    th2 = (energies[:n_max + 1] - energies[2:n_max + 3]) * t
    sx = compensated_sum(w * (a * np.cos(th1) - b * np.sin(th1)))
    sp = compensated_sum(w * (a * np.sin(th1) + b * np.cos(th1)))
    cross = compensated_sum(
        w * ((a * a - b * b) * np.cos(th2) - 2.0 * a * b * np.sin(th2)))
    k = model.k
    return (math.sqrt(2.0 / k) * sx, math.sqrt(2.0 * k) * sp,
            (r2 + 0.5) / k + cross / k, k * (r2 + 0.5) - k * cross)


def eigenfunction_basis(model, n_max, x):
    """Rows u_0..u_{n_max} of the model's eigenfunctions, sampled on x."""
    return np.array(list(model.eigenfunction_rows(n_max, x)))


class TestSpectrum:
    def test_ground_level(self):
        assert LinearModel(1, 1).energies(0)[0] == 1.0

    def test_first_excited(self):
        assert LinearModel(1, 1).energies(1)[1] == pytest.approx(math.sqrt(3.0))

    def test_coupling_scaling(self):
        assert LinearModel(1, 4).energies(0)[0] == pytest.approx(2.0)

    def test_spacing_shrinks(self):
        m = LinearModel(1, 1)
        e = m.energies(20)
        gaps = np.diff(e)
        assert np.all(gaps > 0)
        assert np.all(np.diff(gaps) < 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            LinearModel(0.0, 1.0)
        with pytest.raises(ValueError):
            LinearModel(1.0, -1.0)


class TestEigenfunctions:
    def test_gaussian_peak(self):
        u0 = eigenfunction_basis(LinearModel(1, 1), 0, [0.0])[0, 0]
        assert u0 == pytest.approx(0.75112554446494248, rel=1e-13)

    def test_odd_parity(self):
        assert eigenfunction_basis(LinearModel(1, 1), 1, [0.0])[1, 0] == 0.0

    def test_unit_norm(self):
        m = LinearModel(1, 1)
        g = Grid(-12.0, 12.0, 4001)
        u3 = eigenfunction_basis(m, 3, g.points())[3]
        val = quadrature(GridFunction(g, u3 * u3)).real
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_basis_matches_scipy(self):
        # independent route: scipy's Hermite polynomials times the
        # closed-form norm (k/pi)^(1/4) / sqrt(2^n n!)
        m = LinearModel(1, 2.5)
        x = np.linspace(-3, 3, 7)
        xi = math.sqrt(m.k) * x
        basis = eigenfunction_basis(m, 12, x)
        for n in (0, 1, 5, 12):
            want = ((m.k / math.pi) ** 0.25 / math.sqrt(2.0 ** n * math.factorial(n))
                    * eval_hermite(n, xi) * np.exp(-0.5 * xi * xi))
            for i in range(x.size):
                assert basis[n, i] == pytest.approx(want[i], rel=1e-11, abs=1e-13)


class TestCoefficients:
    def test_vacuum(self):
        c = coherent_coefficients(CoherentSpec(0.0, 5))
        assert c[0] == 1.0
        assert np.all(c[1:] == 0.0)

    def test_norm_saturates(self):
        c = coherent_coefficients(CoherentSpec(0.1 + 0.2j, 50))
        assert np.sum(np.abs(c) ** 2) == pytest.approx(1.0, abs=1e-14)
        # unit norm over 0..N also where N = 50 drops 1.2e-2 of the Poisson weight
        c = coherent_coefficients(CoherentSpec(6.0, 50))
        assert np.sum(np.abs(c) ** 2) == pytest.approx(1.0, abs=1e-14)

    def test_is_the_shared_constructor(self):
        spec = CoherentSpec(1 - 0.5j, 40)
        want = evolution.coherent_coefficients(LinearModel(2.0, 0.5), spec.alpha, 40)
        assert np.array_equal(coherent_coefficients(spec), want.coefficients)

    def test_ratio(self):
        c = coherent_coefficients(CoherentSpec(1.0, 2))
        assert c[2] / c[0] == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-13)

    def test_validation(self):
        with pytest.raises(ValueError):
            CoherentSpec(1.0, 0)


class TestExpectationSeries:
    def test_vacuum_constants(self):
        m = LinearModel(1, 2.0)
        for t in (0.0, 1.3, 9.9):
            ex, ep, ex2, ep2 = expectation_series(m, CoherentSpec(0.0, 50), t)
            assert ex == 0.0 and ep == 0.0
            assert ex2 == pytest.approx(1.0 / (2 * m.k), rel=1e-14)
            assert ep2 == pytest.approx(m.k / 2.0, rel=1e-14)

    def test_t0_collapse(self):
        m = LinearModel(1, 1)
        spec = CoherentSpec(0.1 + 0.2j, 50)
        ex, ep, _, _ = expectation_series(m, spec, 0.0)
        assert ex == pytest.approx(math.sqrt(2.0) * 0.1, rel=1e-12)
        assert ep == pytest.approx(math.sqrt(2.0) * 0.2, rel=1e-12)

    def test_t0_coherent_variances(self):
        m = LinearModel(1, 1)
        for alpha in (0.3, 0.1 + 0.2j, 1 + 2j, 2 - 1j):
            ex, ep, ex2, ep2 = expectation_series(m, CoherentSpec(alpha, 60), 0.0)
            assert ex2 - ex * ex == pytest.approx(0.5, abs=1e-10)
            assert ep2 - ep * ep == pytest.approx(0.5, abs=1e-10)

    def test_parity_in_alpha(self):
        m = LinearModel(1, 1)
        for t in (0.0, 0.7, 3.1):
            plus = expectation_series(m, CoherentSpec(0.4 + 0.9j, 50), t)
            minus = expectation_series(m, CoherentSpec(-0.4 - 0.9j, 50), t)
            assert minus[0] == pytest.approx(-plus[0], rel=1e-12, abs=1e-14)
            assert minus[1] == pytest.approx(-plus[1], rel=1e-12, abs=1e-14)
            assert minus[2] == pytest.approx(plus[2], rel=1e-13)
            assert minus[3] == pytest.approx(plus[3], rel=1e-13)


class TestSeriesTable:
    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("alpha", [0.0, 0.1 + 0.2j, 1 + 2j, -2 + 0.5j, 3.0])
    @pytest.mark.parametrize("truncation", [1, 50, 80])
    def test_matches_per_t_formula(self, k, alpha, truncation):
        model, spec = LinearModel(1.0, k), CoherentSpec(alpha, truncation)
        for t in (0.0, 0.05, 12.9, 100.0):
            got = expectation_series(model, spec, t)
            want = reference_series(model, spec, t)
            assert [v.hex() for v in got] == [v.hex() for v in want]

    def test_time_series_stacks_expectation_series(self):
        model, spec = LinearModel(0.7, 1.3), CoherentSpec(-2 + 0.5j, 60)
        t_grid = np.linspace(0.0, 40.0, 301)
        ts = time_series(model, spec, t_grid)
        mean_x, mean_p, mean_x2, mean_p2 = np.array(
            [expectation_series(model, spec, t) for t in t_grid]).T
        assert np.array_equal(ts.mean_x, mean_x)
        assert np.array_equal(ts.mean_p, mean_p)
        assert np.array_equal(ts.var_x, mean_x2 - mean_x ** 2)
        assert np.array_equal(ts.var_p, mean_p2 - mean_p ** 2)

    @pytest.mark.parametrize("size", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2001])
    def test_array_rows_equal_scalar_calls(self, size):
        # a lone partial block, one full block, a full block then one row,
        # and many blocks
        model, spec = LinearModel(1.0, 1.0), CoherentSpec(1 + 2j, 50)
        t_grid = 0.05 * np.arange(size)
        got = expectation_series(model, spec, t_grid)
        want = np.array([expectation_series(model, spec, t) for t in t_grid]).T
        for array, column in zip(got, want):
            assert isinstance(array, np.ndarray) and array.shape == (size,)
            assert array.tobytes() == column.tobytes()

    def test_zero_d_t_gives_floats(self):
        model, spec = LinearModel(1.0, 2.0), CoherentSpec(-2 + 0.5j, 30)
        want = expectation_series(model, spec, 1.25)
        assert all(type(v) is float for v in want)
        for t in (np.float64(1.25), np.array(1.25)):
            got = expectation_series(model, spec, t)
            assert all(type(v) is float for v in got)
            assert got == want

    def test_two_d_t_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            expectation_series(LinearModel(), CoherentSpec(0.5, 10), np.zeros((2, 3)))

    def test_arrays_read_only(self):
        table = linear_osc._table(LinearModel(1.0, 1.0), CoherentSpec(1 + 2j, 50))
        for array in (table.weights, table.gap1, table.gap2):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_cache_is_bounded(self):
        # every benchmark job, CLI call and test builds a new (model, spec)
        for j in range(3 * linear_osc._TABLES):
            expectation_series(LinearModel(1.0, 1.0 + j / 64.0),
                               CoherentSpec(0.5 + j / 64.0, 50), 0.3)
        info = linear_osc._table.cache_info()
        assert info.maxsize == linear_osc._TABLES
        assert info.currsize <= linear_osc._TABLES

    def test_equal_fields_share_a_table(self):
        table = linear_osc._table
        assert (table(LinearModel(1.0, 2.0), CoherentSpec(1 + 2j, 50))
                is table(LinearModel(1, 2), CoherentSpec(complex(1, 2), 50)))
        base = table(LinearModel(1.0, 2.0), CoherentSpec(1 + 2j, 50))
        for model, spec in ((LinearModel(1.0, 2.5), CoherentSpec(1 + 2j, 50)),
                            (LinearModel(1.5, 2.0), CoherentSpec(1 + 2j, 50)),
                            (LinearModel(1.0, 2.0), CoherentSpec(1 - 2j, 50)),
                            (LinearModel(1.0, 2.0), CoherentSpec(1 + 2j, 51))):
            assert table(model, spec) is not base

    def test_tail_reported(self):
        # N = 50 drops about 1.2e-2 of the norm at alpha = 6, where dx*dp
        # reads 1.20 at t = 0 instead of 1/2
        ts = time_series(LinearModel(1, 1), CoherentSpec(6.0, 50), [0.0])
        assert ts.tail == pytest.approx(1.2e-2, rel=0.01)
        assert ts.product[0] == pytest.approx(1.20, abs=0.005)
        assert time_series(LinearModel(1, 1), CoherentSpec(8.0, 50), [0.0]).tail == math.inf
        assert time_series(LinearModel(1, 1), CoherentSpec(0.0, 5), [0.0]).tail == 0.0

    def test_tail_is_evolution_tail_bound(self):
        model, spec = LinearModel(1.0, 2.0), CoherentSpec(-2 + 0.5j, 30)
        assert time_series(model, spec, [0.0, 1.0]).tail == evolution.tail_bound(
            model, 4.25, 30)

    def test_tail_beyond_limit_raises(self):
        with pytest.raises(ValueError, match="too large to truncate"):
            time_series(LinearModel(1, 1), CoherentSpec(2.0 ** 50, 50), [0.0])

    def test_weight_underflow_limit(self):
        # the first weight e^{-|alpha|^2} is normal up to |alpha|^2 = 708.3964;
        # past it the weights lost digits silently (dx*dp = 0.49973 at 730);
        # var_x = <x^2> - <x>^2 cancels about 2 |alpha|^2 = 1417 to 1/2
        limit = -math.log(sys.float_info.min)
        ts = time_series(LinearModel(1, 1), CoherentSpec(math.sqrt(limit), 1500), [0.0])
        assert ts.product[0] == pytest.approx(0.5, abs=1e-10)
        for mu in (708.4, 730.0, 900.0):
            with pytest.raises(ValueError, match="linear series' limit 708.3964"):
                time_series(LinearModel(1, 1), CoherentSpec(math.sqrt(mu), 2000), [0.0])


class TestUncertainties:
    def test_vacuum(self):
        m = LinearModel(1, 1)
        for t in (0.0, 5.0):
            dx, dp, prod = uncertainties(m, CoherentSpec(0.0, 50), t)
            assert dx == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-13)
            assert dp == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-13)
            assert prod == pytest.approx(0.5, rel=1e-13)

    def test_small_alpha_nearly_coherent(self):
        m = LinearModel(1, 1)
        _, _, prod = uncertainties(m, CoherentSpec(0.1 + 0.2j, 50), 0.0)
        assert 0.50 <= prod <= 0.51

    def test_heisenberg_floor(self):
        m = LinearModel(1, 1)
        for alpha in (0.1 + 0.2j, 1 + 2j, 2 - 1j):
            spec = CoherentSpec(alpha, 50)
            for t in np.linspace(0.0, 30.0, 61):
                _, _, prod = uncertainties(m, spec, t)
                assert prod >= 0.5 * (1.0 - 1e-6)

    def test_matches_time_series(self):
        m = LinearModel(1, 1.3)
        spec = CoherentSpec(1 - 0.7j, 50)
        t_grid = np.linspace(0.0, 20.0, 9)
        ts = time_series(m, spec, t_grid)
        for i, t in enumerate(t_grid):
            assert uncertainties(m, spec, t) == (ts.dx[i], ts.dp[i], ts.product[i])

    def test_negative_variance_names_first_bad_t(self, monkeypatch):
        # <x^2> below <x>^2 at t >= 2 only; time_series passes the whole grid
        def series(model, spec, t):
            ones = np.ones_like(t)
            return ones, 0.0 * ones, np.where(t >= 2.0, 0.5, 2.0), ones

        monkeypatch.setattr(linear_osc, "expectation_series", series)
        m, spec = LinearModel(1, 1), CoherentSpec(0.5, 10)
        with pytest.raises(VarianceError, match=r"at t=2\.5: var_x=-5\.000e-01"):
            uncertainties(m, spec, 2.5)
        with pytest.raises(VarianceError, match=r"at t=2\.0:"):
            time_series(m, spec, [0.0, 1.0, 2.0, 3.0])


class TestTimeSeries:
    def test_stationary_vacuum(self):
        m = LinearModel(1, 1)
        ts = time_series(m, CoherentSpec(0.0, 50), [0.0, 1.0, 2.0])
        for field in (ts.mean_x, ts.mean_p, ts.dx, ts.dp, ts.product):
            assert np.max(np.abs(field - field[0])) < 1e-14

    def test_fig1_envelope(self):
        m = LinearModel(1, 1)
        ts = time_series(m, CoherentSpec(0.1 + 0.2j, 50),
                         np.arange(0.0, 50.0001, 0.05))
        assert ts.product.min() >= 0.4999
        assert ts.product.max() <= 0.515

    def test_invariants(self):
        ts = time_series(LinearModel(1, 1), CoherentSpec(1 + 2j, 50),
                         np.linspace(0.0, 10.0, 101))
        assert np.allclose(ts.dx, np.sqrt(ts.var_x))
        assert np.allclose(ts.dp, np.sqrt(ts.var_p))
        assert np.allclose(ts.product, ts.dx * ts.dp)

    def test_grid_validation(self):
        m = LinearModel(1, 1)
        with pytest.raises(ValueError):
            time_series(m, CoherentSpec(0.0, 5), [])
        with pytest.raises(ValueError):
            time_series(m, CoherentSpec(0.0, 5), [1.0, 0.5])

    def test_equality_and_hash_are_identity(self):
        # generated __eq__/__hash__ would compare the arrays: == raised
        # "truth value ... ambiguous" and hash raised TypeError
        spec = CoherentSpec(1 + 2j, 50)
        ts = time_series(LinearModel(1, 1), spec, [0.0, 1.0])
        other = time_series(LinearModel(1, 1), spec, [0.0, 1.0])
        assert ts == ts
        assert ts != other
        assert hash(ts) == hash(ts)
        assert len({ts, other, ts}) == 2
        assert np.array_equal(ts.product, other.product)

    def test_long_time_envelope_bounded(self):
        # large alpha: the [50, 100] band stays inside the [0, 50] envelope +-10%
        m = LinearModel(1, 1)
        spec = CoherentSpec(1 + 2j, 50)
        early = time_series(m, spec, np.arange(0.0, 50.0001, 0.05))
        late = time_series(m, spec, np.arange(50.0, 100.0001, 0.05))
        assert late.product.max() <= 1.1 * early.product.max()
        assert late.product.max() >= 0.9 * early.product.max()


class TestDecoherence:
    def test_evolved_state_leaves_lowering_eigenspace(self):
        m = LinearModel(1, 1)
        state = evolution.coherent_coefficients(m, 1 + 2j, 50)
        assert evolution.lowering_residual(state, 0.0) <= 1e-12
        assert evolution.lowering_residual(state, 1.0) > 1e-3

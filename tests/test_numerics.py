"""Kernel tests: frozen high-precision references, recurrences, quadrature."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import kv

from kgcoherent import numerics
from kgcoherent.linear_osc import LinearModel
from kgcoherent.oracle import (
    build_hamiltonian,
    linear_potential,
    pt_potential,
    spectrum_compare,
)
from kgcoherent.poschl_teller import PTModel
from kgcoherent.numerics import (
    _BLOCK_CELLS,
    _PIVMIN,
    Grid,
    GridFunction,
    TridiagonalMatrix,
    bessel_k_many,
    compensated_sum,
    log_gamma,
    quadrature,
    sturm_count,
    tridiag_smallest_eigenvalues,
)

# 35-digit mpmath references, computed once and frozen.
LOG_GAMMA_GOLDEN = 0.92166819017498053883646266683160755  # ln Gamma(3.2360680)
BESSEL_GOLDEN = 2.2158719795660497654985912520934739      # K_{2.236068}(1)


class TestLogGamma:
    def test_gamma_one(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)

    def test_gamma_half(self):
        assert log_gamma(0.5) == pytest.approx(
            0.57236494292470008707, rel=1e-14)

    def test_golden_point(self):
        assert log_gamma(3.2360680) == pytest.approx(LOG_GAMMA_GOLDEN, rel=1e-12)

    def test_functional_equation(self):
        for x in np.geomspace(0.5, 100.0, 60):
            lhs = log_gamma(x + 1.0) - log_gamma(x)
            assert lhs == pytest.approx(math.log(x), rel=1e-12, abs=1e-12)

    def test_large_argument(self):
        # ln Gamma(1e6) against Stirling evaluated in extended precision
        assert log_gamma(1e6) == pytest.approx(12815504.569147611, rel=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            log_gamma(bad)


def _k(nu, z):
    return float(bessel_k_many(nu, [z])[0])


class TestBesselK:
    def test_half_order_closed_form(self):
        for z in (1.0, 2.0):
            want = math.sqrt(math.pi / (2 * z)) * math.exp(-z)
            assert _k(0.5, z) == pytest.approx(want, rel=1e-12)

    def test_golden_point(self):
        assert _k(2.236068, 1.0) == pytest.approx(BESSEL_GOLDEN, rel=1e-10)

    def test_brute_force_quadrature_oracle(self):
        # independent fixed trapezoid at 10x the resolution the kernel settles at
        nu, z = 2.236068, 1.0
        t = np.linspace(0.0, 30.0, 300001)
        f = np.exp(-z * np.cosh(t)) * np.cosh(nu * t)
        want = np.trapezoid(f, t)
        assert _k(nu, z) == pytest.approx(want, rel=1e-10)

    def test_recurrence(self):
        for nu in (0.3, 1.0, 2.7, 6.0):
            for z in (0.01, 0.5, 3.0, 20.0):
                lhs = _k(nu + 1.0, z)
                rhs = _k(nu - 1.0, z) if nu >= 1.0 else _k(1.0 - nu, z)
                rhs += (2.0 * nu / z) * _k(nu, z)
                assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            bessel_k_many(0.5, [0.0])
        with pytest.raises(ValueError):
            bessel_k_many(-1.0, [1.0])

    def test_subnormal_z_rejected(self):
        # 46 / z overflows, so the integration cutoff would be infinite
        with pytest.raises(ValueError, match=r"z=1e-310 is too small"):
            bessel_k_many(0.5, [1e-310, 1.0])
        assert bessel_k_many(0.5, [1e-300])[0] == pytest.approx(
            math.sqrt(math.pi / 2e-300), rel=1e-12)

    @pytest.mark.parametrize("z", [20.0, 25.0, 30.0, 40.0])
    @pytest.mark.parametrize("nu", [0.5, 1.5, 6.0, 20.0])
    def test_single_point_large_z(self, nu, z):
        # the cutoff is set against K's own e^{-z} scale, not an absolute level
        assert _k(nu, z) == pytest.approx(kv(nu, z), rel=1e-12, abs=0.0)

    def test_order_sequence_matches_per_order_calls(self):
        nus = (0.3, 1.3, 2.3, 7.0)
        z = np.geomspace(0.005, 45.0, 24).reshape(4, 6)
        many = bessel_k_many(nus, z)
        assert many.shape == (len(nus),) + z.shape
        for row, nu in zip(many, nus):
            np.testing.assert_allclose(row, bessel_k_many(nu, z), rtol=1e-14)

    @pytest.mark.parametrize("nus", [2.3, (1.3, 2.3, 3.3)])
    def test_wide_call_matches_scipy(self, nus):
        # z over six decades: many bands, each with its own cutoff and step;
        # K underflows past z ~ 700, where both sides read 0 or subnormal
        z = np.geomspace(1e-3, 1e3, 241)
        want = kv(np.reshape(nus, (-1, 1)), z).reshape(np.shape(nus) + z.shape)
        np.testing.assert_allclose(bessel_k_many(nus, z), want, rtol=1e-13,
                                   atol=np.finfo(float).tiny)

    def test_order_lattice_matches_scipy(self):
        # the stop rule accepts a sum once a halving moves it by at most 3e-7
        # and relies on the next error being below (3e-7)^2 < 1e-13: hold it
        # to that across orders 0-40 and z from the long-cutoff end to the
        # fine-step end, in bands of several z each
        orders = (0.0, 0.3, 1.0, 1.62, 2.6, 5.0, 10.0, 21.0, 40.0)
        z = np.geomspace(0.02, 100.0, 300)
        want = kv(np.reshape(orders, (-1, 1)), z)
        np.testing.assert_allclose(bessel_k_many(orders, z), want, rtol=1e-13,
                                   atol=np.finfo(float).tiny)

    def test_band_equals_call_on_band_alone(self):
        # reference bands: each from its smallest z up to _BAND_RATIO times it
        nus = (1.3, 2.3, 3.3)
        z = np.geomspace(1e-3, 1e3, 241)
        whole = bessel_k_many(nus, z)
        bands = 0
        start = 0
        while start < z.size:
            stop = start + int(np.sum(z[start:] <= numerics._BAND_RATIO * z[start]))
            np.testing.assert_array_equal(whole[:, start:stop],
                                          bessel_k_many(nus, z[start:stop]))
            bands += 1
            start = stop
        assert bands >= 5
        # the input order does not change which points share a table, and
        # values return to their own places; a point's row within the
        # table's matrix product may change its last bit
        perm = np.random.default_rng(5).permutation(z.size)
        np.testing.assert_allclose(bessel_k_many(nus, z[perm]), whole[:, perm],
                                   rtol=1e-15, atol=0.0)

    def test_overflow_raises(self):
        # K_200(5) = 4.9e292, but cosh(200 t) overflows inside the integral
        with pytest.raises(OverflowError, match=r"nu=200.*z=1"):
            bessel_k_many(200.0, [1.0, 5.0])
        # in a call of several bands the message names the first bad z in
        # the caller's order; z = 100 and 300 share a band that converges
        with pytest.raises(OverflowError,
                           match=r"nu=200, z=20 \(2 value\(s\) not finite\)"):
            bessel_k_many((0.5, 200.0), [300.0, 100.0, 20.0, 5.0])

    def test_unconverged_raises(self, monkeypatch):
        # one halving of the 0.5 step moves the sum at z = 3 by about 9e-7,
        # above the 3e-7 the stop rule accepts; the kernel must say so
        # instead of returning its last iterate
        monkeypatch.setattr(numerics, "_HALVINGS", 1)
        with pytest.raises(RuntimeError, match=r"not converged.*nu=\[1.5\].*z in \[2, 3\]"):
            bessel_k_many(1.5, [2.0, 3.0])
        # three halvings settle z <= 40 but not z = 100: the message names
        # the band that failed, not the whole call
        monkeypatch.setattr(numerics, "_HALVINGS", 3)
        with pytest.raises(RuntimeError, match=r"nu=\[1.5\].*z in \[40, 120\]"):
            bessel_k_many(1.5, [120.0, 0.01, 1.0, 2.0, 40.0, 100.0])


class TestCompensatedSum:
    def test_cancellation(self):
        assert compensated_sum([1.0, 1e-16, -1.0]) == 1e-16

    def test_empty(self):
        assert compensated_sum([]) == 0.0

    def test_many_tenths(self):
        assert compensated_sum([0.1] * 100000) == pytest.approx(1e4, abs=1e-9)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            compensated_sum([1.0, float("inf")])

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            compensated_sum(np.array([1.0, float("nan"), 2.0]))

    @given(st.lists(st.floats(min_value=-1e12, max_value=1e12,
                              allow_nan=False), max_size=200))
    def test_matches_fsum(self, xs):
        assert compensated_sum(xs) == pytest.approx(math.fsum(xs), rel=1e-15,
                                                    abs=1e-300)


class TestQuadrature:
    def test_constant(self):
        g = Grid(0.0, 1.0, 101)
        assert quadrature(GridFunction(g, np.ones(101))).real == pytest.approx(
            1.0, abs=1e-12)

    def test_parabola(self):
        g = Grid(0.0, 1.0, 101)
        x = g.points()
        assert quadrature(GridFunction(g, x * x)).real == pytest.approx(
            1.0 / 3.0, abs=1e-8)

    def test_gaussian(self):
        g = Grid(-8.0, 8.0, 2001)
        x = g.points()
        val = quadrature(GridFunction(g, np.exp(-x * x))).real
        assert val == pytest.approx(math.sqrt(math.pi), abs=1e-10)

    def test_even_count_rejected(self):
        g = Grid(0.0, 1.0, 100)
        with pytest.raises(ValueError, match="odd point count, got 100"):
            quadrature(GridFunction(g, np.ones(100)))


class TestTridiagonalEigen:
    def test_known_3x3(self):
        m = TridiagonalMatrix([2.0, 2.0, 2.0], [-1.0, -1.0])
        eigs = tridiag_smallest_eigenvalues(m, 3)
        want = [2.0 - math.sqrt(2.0), 2.0, 2.0 + math.sqrt(2.0)]
        assert np.allclose(eigs, want, atol=1e-9)

    def test_dirichlet_laplacian(self):
        n = 100
        h = 1.0 / (n + 1)
        m = TridiagonalMatrix(np.full(n, 2.0 / h**2), np.full(n - 1, -1.0 / h**2))
        eigs = tridiag_smallest_eigenvalues(m, 6)
        j = np.arange(1, 7)
        want = (2.0 / h**2) * (1.0 - np.cos(j * math.pi * h))
        assert np.allclose(eigs, want, rtol=1e-10)

    def test_sturm_counts_bracket_each_eigenvalue(self):
        rng = np.random.default_rng(7)
        m = TridiagonalMatrix(rng.normal(size=40), rng.normal(size=39))
        eigs = tridiag_smallest_eigenvalues(m, 10)
        for j, e in enumerate(eigs):
            below = int(sturm_count(m, e - 1e-7)[0])
            above = int(sturm_count(m, e + 1e-7)[0])
            assert below <= j
            assert above >= j + 1

    def test_bracket_hint_that_misses_falls_back_to_gershgorin(self):
        # the hint sits far from the eigenvalue 0, where float spacing (6e-5)
        # exceeds the hint's width; the solver restarts from [g_lo, g_hi]
        m = TridiagonalMatrix([0.0, 1e12], [0.0])
        eig = tridiag_smallest_eigenvalues(
            m, 1, tol=1e-10, brackets=([5e11], [5e11 + 1e-10]))
        assert abs(eig[0]) <= 1e-10

    def test_partly_missed_hints_give_unhinted_eigenvalues(self):
        n = 60
        m = TridiagonalMatrix(np.arange(n, dtype=float), np.full(n - 1, 0.3))
        plain = tridiag_smallest_eigenvalues(m, 5)
        lo = plain - 1e-3
        hi = plain + 1e-3
        lo[[1, 3]] += 0.5  # these two hints miss their eigenvalue
        hi[[1, 3]] += 0.5
        hinted = tridiag_smallest_eigenvalues(m, 5, brackets=(lo, hi))
        np.testing.assert_allclose(hinted, plain, rtol=0.0, atol=1e-10)

    def test_count_validation(self):
        m = TridiagonalMatrix([1.0, 2.0], [0.5])
        with pytest.raises(ValueError):
            tridiag_smallest_eigenvalues(m, 3)
        with pytest.raises(ValueError, match="tol must be positive"):
            tridiag_smallest_eigenvalues(m, 1, tol=0.0)

    # Gershgorin brackets of width 1e200 and 1e100 need over 60 rounds of 17x
    @pytest.mark.parametrize("diag,want", [([0.0, 1e200], [0.0]),
                                           ([0.0, 1e100, 3.0], [0.0, 3.0])])
    def test_wide_bracket_converges(self, diag, want):
        m = TridiagonalMatrix(diag, np.zeros(len(diag) - 1))
        eigs = tridiag_smallest_eigenvalues(m, len(want))
        np.testing.assert_allclose(eigs, want, rtol=0.0, atol=1e-10)

    def test_overflowing_gershgorin_bracket_raises(self):
        m = TridiagonalMatrix([1e308, -1e308], [1e308])
        with np.errstate(over="ignore"), \
                pytest.raises(OverflowError, match="Gershgorin bracket overflows"):
            tridiag_smallest_eigenvalues(m, 1)

    def test_open_bracket_raises(self, monkeypatch):
        # too few rounds must be reported, not answered with a midpoint: one
        # pass, the ladder about 0, closes 0 with its rung at 0.45 tol but
        # leaves 3 in a bracket of about 2.8e3
        monkeypatch.setattr(numerics, "_max_rounds", lambda width, tol: 1)
        m = TridiagonalMatrix([0.0, 1e100, 3.0], [0.0, 0.0])
        with pytest.raises(RuntimeError,
                           match=r"levels \[1\] not narrowed to tol=1e-10 "
                                 r"in 1 rounds; final bracket widths "
                                 r"\[2795\.\d+\]"):
            tridiag_smallest_eigenvalues(m, 2)

    def test_wide_bracket_pass_count(self):
        # the level at 3 sits next to 0 in a bracket reaching 1e100; the
        # three-point anchor and the closing rungs settle it in 6 passes
        stats = {}
        m = TridiagonalMatrix([0.0, 1e100, 3.0], [0.0, 0.0])
        tridiag_smallest_eigenvalues(m, 2, stats=stats)
        assert stats["passes"] <= 6

    def test_bracket_centred_within_tol_closes_in_one_pass(self):
        # an isolated bracket whose centre lies within 0.45 tol of its
        # eigenvalue is closed by its innermost rungs in one pass
        n = 100
        h = 1.0 / (n + 1)
        m = TridiagonalMatrix(np.full(n, 2.0 / h**2), np.full(n - 1, -1.0 / h**2))
        want = (2.0 / h**2) * (1.0 - np.cos(np.arange(1, 7) * math.pi * h))
        stats = {}
        got = tridiag_smallest_eigenvalues(
            m, 6, brackets=(want - 1e-3, want + 1e-3), stats=stats)
        assert stats["passes"] == 1
        np.testing.assert_allclose(got, want, rtol=0.0, atol=0.5e-10)

    @pytest.mark.parametrize("corrupt", ["nan", "inf", "-inf", "noise", "alternate"])
    def test_corrupt_logdet_costs_passes_not_accuracy(self, monkeypatch, corrupt):
        # log|det| only places probes; Sturm counts alone move the brackets.
        # "alternate" leaves every other probe's log|det| true and moves the
        # rest by O(1), so bracket ends and third anchor points are corrupt
        # apart as well as together, and the quadratic fit stays finite and
        # often lands inside the bracket, at the wrong place
        rng = np.random.default_rng(3)
        real = numerics.sturm_count

        def corrupted(matrix, x, logdet=None):
            count = real(matrix, x, logdet)
            if logdet is not None and corrupt == "alternate":
                logdet[::2] += rng.normal(size=logdet[::2].shape)
            elif logdet is not None:
                logdet[...] = (rng.normal(scale=1e3, size=logdet.shape)
                               if corrupt == "noise" else float(corrupt))
            return count

        monkeypatch.setattr(numerics, "sturm_count", corrupted)
        n = 200
        laplacian = TridiagonalMatrix(np.full(n, 2.0), np.full(n - 1, -1.0))
        random = TridiagonalMatrix(rng.normal(size=40), rng.normal(size=39))
        for matrix, count in ((laplacian, 12), (random, 10)):
            dense = (np.diag(matrix.diag) + np.diag(matrix.offdiag, 1)
                     + np.diag(matrix.offdiag, -1))
            want = np.linalg.eigvalsh(dense)[:count]
            got = tridiag_smallest_eigenvalues(matrix, count)
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10)

    @settings(deadline=None)
    @given(st.data())
    def test_matches_eigvalsh(self, data):
        # mirror-symmetric (split into sectors) and asymmetric matrices, repeated
        # eigenvalues included (zero couplings)
        n = data.draw(st.integers(1, 24))
        entry = st.one_of(st.integers(-3, 3).map(float),
                          st.floats(-100.0, 100.0, allow_nan=False))
        diag = data.draw(st.lists(entry, min_size=n, max_size=n))
        off = data.draw(st.lists(entry, min_size=n - 1, max_size=n - 1))
        if data.draw(st.booleans()):
            diag = diag[:(n + 1) // 2] + diag[:n // 2][::-1]
            off = off[:n // 2] + off[:(n - 1) // 2][::-1]
        matrix = TridiagonalMatrix(diag, off)
        count = data.draw(st.integers(1, n))
        dense = (np.diag(matrix.diag) + np.diag(matrix.offdiag, 1)
                 + np.diag(matrix.offdiag, -1))
        want = np.linalg.eigvalsh(dense)[:count]
        got = tridiag_smallest_eigenvalues(matrix, count)
        assert np.all(np.abs(got - want) <= np.maximum(1e-10, np.spacing(want)))

    # bounds are the passes of the schedule plus one
    def test_pass_counts(self, monkeypatch):
        calls = []
        real = numerics.sturm_count

        def counted(matrix, x, logdet=None):
            calls.append(matrix.dim)
            return real(matrix, x, logdet)

        monkeypatch.setattr(numerics, "sturm_count", counted)
        for spec, analytic, rough_max, coarse_max, fine_max in (
                (pt_potential(count=2001), PTModel(1, 1).energies(7), 5, 4, 4),
                (linear_potential(count=2001), LinearModel(1, 1).energies(7),
                 6, 5, 3)):
            calls.clear()
            rep = spectrum_compare(spec, analytic)
            rough = calls.count((spec.grid.count - 1) // 8 - 1)
            coarse = calls.count(spec.grid.count - 2)
            fine = calls.count(2 * spec.grid.count - 3)
            assert rough + coarse + fine == len(calls)
            assert rep["sturm_passes"] == {"rough": rough, "coarse": coarse,
                                           "fine": fine}
            assert rough <= rough_max
            assert coarse <= coarse_max and fine <= fine_max

    def test_matrix_validation(self):
        with pytest.raises(ValueError):
            TridiagonalMatrix([1.0, 2.0], [0.5, 0.5])
        with pytest.raises(ValueError):
            TridiagonalMatrix([1.0, float("nan")], [0.5])


def _guard(d):
    return np.where(np.abs(d) < _PIVMIN, -_PIVMIN, d)


def guarded_sturm_count(matrix, x, logdet=None):
    """Reference: the guarded pivot recurrence, one row at a time, with
    log|det| summed over the same pivots."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    diag = matrix.diag
    off2 = matrix.offdiag ** 2
    d = _guard(diag[0] - x)
    count = (d < 0.0).astype(np.int64)
    total = np.log(np.abs(d))
    for i in range(1, diag.size):
        d = _guard(diag[i] - x - off2[i - 1] / d)
        count += d < 0.0
        total += np.log(np.abs(d))
    if logdet is not None:
        logdet[...] = total
    return count


def twisted_sturm_count(matrix, x):
    """Reference, one row at a time: guarded forward pivots of rows 0..k-1
    and backward pivots from the last row up to k + 1 meet in the guarded
    twist gamma_k, k = (rows - 1) // 2.  A mirror-symmetric matrix splits
    into its even and odd sectors, which share the forward pivots."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    diag, off = matrix.diag, matrix.offdiag
    n = diag.size
    e = np.concatenate([[0.0], off ** 2])  # e[i] couples rows i-1 and i
    r = (n - 1) // 2
    if n < 2 or not is_mirror_symmetric(matrix):
        sectors = [(diag, e)]
    elif n % 2:  # rows 0..r with the centre coupled by sqrt(2) b_{r-1}; 0..r-1
        sectors = [(diag[:r + 1], np.append(e[:r], 2.0 * e[r])), (diag[:r], e[:r])]
    else:  # rows 0..r ending in a_r + b_r and a_r - b_r
        sectors = [(np.append(diag[:r], diag[r] + off[r]), e[:r + 1]),
                   (np.append(diag[:r], diag[r] - off[r]), e[:r + 1])]
    k = (sectors[0][0].size - 1) // 2
    count = np.zeros(x.size, dtype=np.int64)
    d = np.ones_like(x)
    for i in range(k):
        d = _guard(diag[i] - x - e[i] / d)
        count += len(sectors) * (d < 0.0)
    for a, ea in sectors:
        g, eb = np.ones_like(x), 0.0
        for i in range(a.size - 1, k, -1):
            g = _guard(a[i] - x - eb / g)
            count += g < 0.0
            eb = ea[i]
        count += _guard(a[k] - x - ea[k] / d - eb / g) < 0.0
    return count


def is_mirror_symmetric(matrix):
    return (np.array_equal(matrix.diag, matrix.diag[::-1])
            and np.array_equal(matrix.offdiag, matrix.offdiag[::-1]))


@st.composite
def small_integer_tridiagonals(draw):
    """Integer-valued entries and half-integer shifts: shifts land on
    diagonal entries and couplings vanish, so pivots hit exact zero and
    0/0.  Half the draws mirror their first half, so the count splits into
    sectors, and half have 1-4 rows, so a side of the twist may be empty.
    The shift counts give one block of the whole matrix, blocks of a few
    rows, and one row per block."""
    n = draw(st.integers(1, 4) | st.integers(5, 40))
    mirrored = draw(st.booleans())
    n_diag, n_off = ((n + 1) // 2, n // 2) if mirrored else (n, n - 1)
    diag = draw(st.lists(st.integers(-4, 4), min_size=n_diag, max_size=n_diag))
    off = draw(st.lists(st.integers(-2, 2), min_size=n_off, max_size=n_off))
    if mirrored:
        diag += diag[:n // 2][::-1]
        off += off[:(n - 1) // 2][::-1]
    values = draw(st.lists(st.integers(-16, 16), min_size=1, max_size=8))
    size = draw(st.sampled_from([1, 3, _BLOCK_CELLS // 5, _BLOCK_CELLS + 5]))
    shifts = np.resize(np.asarray(values, dtype=float) / 2.0, size)
    return TridiagonalMatrix(diag, off), shifts


class TestSturmCount:
    @settings(deadline=None)
    @given(small_integer_tridiagonals())
    def test_matches_guarded_recurrence(self, case):
        # the twisted factorization rounds differently from the plain
        # forward recurrence, so it is held bit for bit to its own
        # row-by-row reference
        matrix, shifts = case
        got = sturm_count(matrix, shifts)
        assert got.dtype == np.int64
        assert np.array_equal(got, twisted_sturm_count(matrix, shifts))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 9, 30, 31])
    @pytest.mark.parametrize("mirrored", [False, True])
    def test_matches_twisted_reference_beside_eigenvalues(self, n, mirrored):
        # within a few ulps of an eigenvalue the count hangs on the rounding
        # of every pivot, so this holds the order of operations too
        rng = np.random.default_rng(n)
        for _ in range(20):
            diag = rng.normal(size=n)
            off = rng.normal(size=n - 1)
            if mirrored:
                diag[n - n // 2:] = diag[:n // 2][::-1]
                off[n - 1 - (n - 1) // 2:] = off[:(n - 1) // 2][::-1]
            matrix = TridiagonalMatrix(diag, off)
            eigs = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1)
                                      + np.diag(off, -1))
            shifts = (eigs[:, None]
                      + np.spacing(eigs)[:, None] * np.arange(-3, 4)).ravel()
            assert np.array_equal(sturm_count(matrix, shifts),
                                  twisted_sturm_count(matrix, shifts))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 17, 40, 61, 200])
    def test_fold_matches_eigvalsh_counts(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            half = rng.normal(size=(n + 1) // 2)
            diag = np.concatenate([half, half[:n // 2][::-1]])
            half = rng.normal(size=n // 2)
            off = np.concatenate([half, half[:(n - 1) // 2][::-1]])
            matrix = TridiagonalMatrix(diag, off)
            assert is_mirror_symmetric(matrix)
            eigs = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1)
                                      + np.diag(off, -1))
            shifts = rng.uniform(eigs[0] - 1.0, eigs[-1] + 1.0, size=64)
            gap = np.abs(shifts[:, None] - eigs).min(axis=1)
            shifts = shifts[gap >= 1e-6]
            want = np.searchsorted(eigs, shifts)  # eigenvalues below each shift
            assert np.array_equal(sturm_count(matrix, shifts), want)

    def test_fold_on_oracle_matrix(self, monkeypatch):
        # the oracle's PT matrix folds; the solve must match the unfolded one,
        # which takes log|det| from the row-by-row reference too
        matrix = build_hamiltonian(pt_potential(count=2001))
        assert is_mirror_symmetric(matrix)
        folded = tridiag_smallest_eigenvalues(matrix, 8)
        monkeypatch.setattr(numerics, "sturm_count", guarded_sturm_count)
        unfolded = tridiag_smallest_eigenvalues(matrix, 8)
        np.testing.assert_allclose(folded, unfolded, rtol=0.0, atol=1e-10)

    def test_logdet_matches_slogdet(self):
        # folded and full recurrences against a dense determinant
        rng = np.random.default_rng(11)
        for n in (1, 2, 7, 8, 30):
            half = rng.normal(size=(n + 1) // 2)
            diag = np.concatenate([half, half[:n // 2][::-1]])
            off = rng.normal(size=n - 1)
            off = np.concatenate([off[:n // 2], off[:(n - 1) // 2][::-1]])
            for matrix in (TridiagonalMatrix(diag, off),
                           TridiagonalMatrix(diag + rng.normal(size=n), off)):
                dense = (np.diag(matrix.diag) + np.diag(matrix.offdiag, 1)
                         + np.diag(matrix.offdiag, -1))
                shifts = rng.normal(size=9)
                logdet = np.full(shifts.size, np.nan)
                sturm_count(matrix, shifts, logdet)
                want = [np.linalg.slogdet(dense - s * np.eye(n))[1] for s in shifts]
                np.testing.assert_allclose(logdet, want, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("scale,coupled", [(1.0, True), (1e300, True),
                                               (1e-200, False)])
    def test_logdet_matches_row_by_row_sum(self, scale, coupled):
        # blocks take one log per product of eight pivots, unless a product
        # overflows (entries of 1e300) or a pivot is below 2^-120 (uncoupled
        # entries of 1e-200 at shift 0); then one log per pivot
        rng = np.random.default_rng(5)
        n = 301
        diag = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3, size=n)
        diag[::50] *= scale
        off = rng.normal(size=n - 1) if coupled else np.zeros(n - 1)
        matrix = TridiagonalMatrix(diag, off)
        for size in (5, 700):
            shifts = np.append(rng.normal(size=size - 1), 0.0)
            got = np.empty(size)
            want = np.empty(size)
            sturm_count(matrix, shifts, got)
            guarded_sturm_count(matrix, shifts, want)
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-9)

    @pytest.mark.parametrize("cells", [64, 1024])
    @settings(deadline=None, max_examples=50)
    @given(case=small_integer_tridiagonals())
    def test_block_boundaries_keep_counts(self, cells, case):
        # smaller blocks move every block boundary, and with it the rows
        # whose pivots are carried over and those redone under the guard
        matrix, shifts = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(numerics, "_BLOCK_CELLS", cells)
            got = sturm_count(matrix, shifts)
        assert np.array_equal(got, twisted_sturm_count(matrix, shifts))

    @pytest.mark.parametrize("cells", [64, 1024, _BLOCK_CELLS])
    @pytest.mark.parametrize("mirrored", [False, True])
    def test_shifts_on_eigenvalues_and_diagonal_entries(self, monkeypatch,
                                                        cells, mirrored):
        # shifts a few ulps about each eigenvalue, and on each diagonal entry,
        # where the first pivot a_0 - x and the uncoupled ones are exactly 0
        monkeypatch.setattr(numerics, "_BLOCK_CELLS", cells)
        rng = np.random.default_rng(cells)
        for n in (7, 30, 61):
            diag = rng.normal(size=n)
            off = rng.normal(size=n - 1)
            off[::5] = 0.0
            if mirrored:
                diag[n - n // 2:] = diag[:n // 2][::-1]
                off[n - 1 - (n - 1) // 2:] = off[:(n - 1) // 2][::-1]
            matrix = TridiagonalMatrix(diag, off)
            eigs = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1)
                                      + np.diag(off, -1))
            shifts = np.concatenate([
                (eigs[:, None] + np.spacing(eigs)[:, None] * np.arange(-3, 4)).ravel(),
                diag])
            assert np.array_equal(sturm_count(matrix, shifts),
                                  twisted_sturm_count(matrix, shifts))

    @pytest.mark.parametrize("block", [1, 2])
    def test_tiny_pivot_in_last_row_of_a_block(self, monkeypatch, block):
        # forward pivots d_i = a_i - x - b_i^2 / d_{i-1} chosen at shift 0 as
        # small powers of two, so every step is exact, with d_t = 0 in the
        # last row of block `block`: that block alone is redone under the
        # guard, and the next block must start from the guarded -_PIVMIN,
        # which turns the next pivot into +huge instead of -inf
        shifts = np.array([0.0, 0.3, -0.7, 2.5])
        rows = 8  # block rows at 2 columns (forward, backward) per shift
        monkeypatch.setattr(numerics, "_BLOCK_CELLS", rows * 2 * shifts.size)
        n = 2 * 3 * rows + 1  # 3 blocks of forward and of backward pivots
        rng = np.random.default_rng(block)
        pivots = rng.choice([-2.0, -1.0, 1.0, 2.0, 4.0], size=n)
        t = block * rows - 1
        pivots[t] = 0.0
        off = rng.choice([1.0, 2.0], size=n - 1)
        diag = pivots.copy()
        diag[1:] += np.divide(off ** 2, pivots[:-1], out=np.zeros(n - 1),
                              where=pivots[:-1] != 0.0)
        matrix = TridiagonalMatrix(diag, off)
        forward = np.ones_like(shifts)
        for i in range(t + 1):
            forward = diag[i] - shifts - (off[i - 1] ** 2 / forward if i else 0.0)
        assert forward[0] == 0.0 and np.all(np.abs(forward[1:]) >= 1e-3)
        guards = []
        real = numerics._pivot_rows

        def recorded(coupling, prev, rows, guard):
            guards.append(guard)
            real(coupling, prev, rows, guard)

        monkeypatch.setattr(numerics, "_pivot_rows", recorded)
        got = sturm_count(matrix, shifts)
        assert np.array_equal(got, twisted_sturm_count(matrix, shifts))
        # block `block` alone is redone, under the guard
        assert guards == [False] * block + [True] + [False] * (3 - block)

    @pytest.mark.parametrize("rows,shifts", [(7999, 16), (7999, 128),
                                             (7999, 176), (1999, 128)])
    def test_pass_memory_is_two_blocks(self, rows, shifts):
        # A pass holds a block of pivots and one of spent couplings, each at
        # most _BLOCK_CELLS cells, and per column (3 per shift on these
        # mirror-symmetric matrices) at most 12 cells of set-up: 4 of the
        # shift matrix, the carried pivot row, the sign and log|det| sums
        # and the twist's arrays; then the block's column of ones and 8 KB
        # for Python objects.  A per-block temporary, even a bool mask of
        # one block (_BLOCK_CELLS bytes), does not fit.
        matrix = build_hamiltonian(pt_potential(count=rows + 2))
        x = np.linspace(1.0, 60.0, shifts)
        logdet = np.empty(shifts)
        sturm_count(matrix, x, logdet)  # builds the matrix's chains
        cols = 3 * shifts
        bound = 8 * (2 * _BLOCK_CELLS + 12 * cols + _BLOCK_CELLS // cols) + 8192
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sturm_count(matrix, x, logdet)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert 2 * 8 * _BLOCK_CELLS * 0.9 < peak <= bound

    def test_overflowing_squared_coupling_rejected(self):
        # couplings are spread over columns by a matrix product, where
        # inf * 0 would give NaN
        m = TridiagonalMatrix(np.arange(5.0), [1e200, 1.0, 1.0, 1.0])
        with np.errstate(over="ignore"), \
                pytest.raises(OverflowError, match="squared off-diagonal"):
            sturm_count(m, [0.0])

    def test_entries_are_read_only_copies(self):
        diag, off = np.array([1.0, 2.0, 1.0]), np.array([0.5, 0.5])
        m = TridiagonalMatrix(diag, off)
        before = sturm_count(m, [1.2])
        diag[1] = -10.0
        assert np.array_equal(sturm_count(m, [1.2]), before)
        with pytest.raises(ValueError):
            m.diag[0] = 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_shift_rejected(self, bad):
        m = TridiagonalMatrix([1.0, 2.0], [0.5])
        with pytest.raises(ValueError, match=rf"shifts must be finite, got \[{bad}\]"):
            sturm_count(m, [0.0, bad, 1.0])

    def test_empty_shifts(self):
        m = TridiagonalMatrix([1.0, 2.0, 1.0], [0.5, 0.5])
        got = sturm_count(m, [])
        assert got.dtype == np.int64 and got.shape == (0,)

    @settings(deadline=None)
    @given(small_integer_tridiagonals())
    def test_monotone_in_shift(self, case):
        matrix, shifts = case
        counts = sturm_count(matrix, np.sort(shifts))
        assert np.all(np.diff(counts) >= 0)
        assert 0 <= counts[0] and counts[-1] <= matrix.dim


class TestGrid:
    def test_invariants(self):
        with pytest.raises(ValueError):
            Grid(1.0, 0.0, 11)
        with pytest.raises(ValueError):
            Grid(0.0, 1.0, 2)

    def test_step(self):
        assert Grid(0.0, 1.0, 11).h == pytest.approx(0.1)

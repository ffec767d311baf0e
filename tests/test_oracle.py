"""Finite-difference spectral oracle vs the analytic spectra."""

import math

import numpy as np
import pytest

from kgcoherent import oracle
from kgcoherent.linear_osc import LinearModel
from kgcoherent.oracle import (
    PotentialSpec,
    build_hamiltonian,
    linear_potential,
    pt_potential,
    spectrum_compare,
)
from kgcoherent.numerics import Grid, tridiag_smallest_eigenvalues
from kgcoherent.poschl_teller import PTModel


class TestHamiltonian:
    def test_free_particle_box(self):
        # S = 0, m = 1: eigenvalues of the assembled matrix are
        # (1/h^2)(1 - cos(j pi/(n+1))) + 1/2, exactly
        spec = PotentialSpec(1.0, lambda x: np.zeros_like(x),
                             Grid(0.0, 1.0, 202), "box")
        eigs = tridiag_smallest_eigenvalues(build_hamiltonian(spec), 5, tol=oracle.TOL)
        n = 200
        h = spec.grid.h
        j = np.arange(1, 6)
        want = (1.0 / h**2) * (1.0 - np.cos(j * math.pi / (n + 1))) + 0.5
        assert np.allclose(eigs, want, rtol=1e-9)

    def test_singular_potential_rejected(self):
        spec = PotentialSpec(1.0, lambda x: 1.0 / x, Grid(-1.0, 1.0, 201), "sing")
        with np.errstate(divide="ignore"), pytest.raises(ValueError):
            build_hamiltonian(spec)

    def test_too_few_points_rejected(self):
        spec = PotentialSpec(1.0, lambda x: np.zeros_like(x),
                             Grid(0.0, 1.0, 50), "small")
        with pytest.raises(ValueError):
            build_hamiltonian(spec)

    # both potentials are even: on mirror-image nodes the matrix is exactly
    # mirror-symmetric, so numerics.sturm_count splits it into sectors
    @pytest.mark.parametrize("count", [2001, 2000])
    @pytest.mark.parametrize("spec_of", [
        lambda count: pt_potential(0.7, 1.3, count),
        lambda count: linear_potential(1.3, 0.8, count),
    ], ids=["pt", "linear"])
    def test_mirror_symmetric(self, spec_of, count):
        spec = spec_of(count)
        x = spec.nodes()
        assert np.array_equal(x, -x[::-1])
        mat = build_hamiltonian(spec)
        assert mat.dim == count - 2
        assert np.array_equal(mat.diag, mat.diag[::-1])
        assert np.array_equal(mat.offdiag, mat.offdiag[::-1])


class TestLinearSpectrum:
    def test_levels_match(self):
        model = LinearModel(1, 1)
        rep = spectrum_compare(linear_potential(count=2001),
                               model.energies(7))
        assert rep["max_rel_error"] <= 1e-3

    def test_convergence_order(self):
        model = LinearModel(1, 1)
        rep = spectrum_compare(linear_potential(count=2001),
                               model.energies(7))
        assert 1.8 <= rep["convergence_order"] <= 2.2
        assert rep["converged"]

    def test_uniform_entries(self):
        # identity map: the non-uniform scheme reduces to the textbook matrix
        m, k = 1.3, 0.8
        spec = linear_potential(m, k, 2001)
        mat = build_hamiltonian(spec)
        h = spec.grid.h
        x = spec.grid.points()[1:-1]
        diag = 1.0 / (m * h * h) + (m + k * np.abs(x) - m) ** 2 / (2.0 * m)
        np.testing.assert_allclose(mat.diag, diag, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(mat.offdiag, -1.0 / (2.0 * m * h * h),
                                   rtol=1e-12, atol=0.0)

    def test_monotone_spectrum(self):
        eigs = tridiag_smallest_eigenvalues(
            build_hamiltonian(linear_potential(count=1001)), 10, tol=oracle.TOL)
        assert np.all(np.diff(eigs) > 0.0)


class TestPTSpectrum:
    def test_levels_match(self):
        model = PTModel(1, 1)
        rep = spectrum_compare(pt_potential(count=2001), model.energies(7))
        assert rep["max_rel_error"] <= 1e-3
        assert 1.8 <= rep["convergence_order"] <= 2.2

    # lambda from 1.02 to 4.53: u ~ d^lambda at a wall, which uniform nodes
    # resolve only at order min(2, 2 lambda - 1)
    @pytest.mark.parametrize("m,omega", [(1, 1), (1, 1.5), (0.5, 2), (0.3, 2),
                                         (0.7, 1), (2, 0.5)])
    def test_second_order_across_lambda(self, m, omega):
        rep = spectrum_compare(pt_potential(m, omega, 2001),
                               PTModel(m, omega).energies(7))
        assert 1.9 <= rep["convergence_order"] <= 2.1
        assert rep["max_rel_error"] <= 1e-5

    def test_second_order_at_even_point_count(self):
        # 1998 interior rows: both sectors end in one of the two middle rows
        rep = spectrum_compare(pt_potential(count=2000), PTModel(1, 1).energies(7))
        assert 1.9 <= rep["convergence_order"] <= 2.1
        assert rep["max_rel_error"] <= 1e-5

    def test_walls_are_end_nodes(self):
        spec = pt_potential(0.5, 2.0, 1001)
        x = spec.nodes()
        assert x[0] == -math.pi / 4.0 and x[-1] == math.pi / 4.0
        assert np.all(np.diff(x) > 0.0)
        # the nodes cluster at the walls: end widths ~ (pi/2)^2 h^2 / (2 L)
        assert np.diff(x)[0] < 1e-2 * np.diff(x)[500]
        assert np.all(np.isfinite(spec.s(x[1:-1])))

    def test_wrong_lambda_flagged(self):
        model = PTModel(1, 1)
        wrong = model.omega * (np.arange(8) + model.lam + 0.1)
        rep = spectrum_compare(pt_potential(count=2001), wrong)
        assert rep["max_rel_error"] > 1e-3 or not rep["converged"]


class TestHintsSteerCountsDecide:
    """The hinted coarse and fine solves of spectrum_compare land on the
    levels an unhinted solve of the same grid finds.

    Each solve returns the midpoint of a bracket no wider than tol about
    the same jump of the same Sturm count, so the two differ by at most tol
    whatever the hints were, hits or misses.
    """

    # the workload's parameter corners (PT draws m in [omega, 2]), lambda
    # near 1, and 20 linear levels, whose top rough hints miss
    @pytest.mark.parametrize("model,m,p,points,levels", [
        *[("linear", m, k, 2001, 10) for m in (0.5, 2.0) for k in (0.5, 2.0)],
        *[("pt", m, omega, 2001, 10)
          for m, omega in ((0.5, 0.5), (2.0, 0.5), (2.0, 2.0))],
        ("pt", 0.02, 2.0, 4001, 8),
        ("linear", 1.0, 1.0, 2001, 20),
    ], ids=str)
    def test_matches_unhinted_solves(self, monkeypatch, model, m, p, points,
                                     levels):
        if model == "linear":
            spec, analytic = linear_potential(m, p, points), LinearModel(m, p)
        else:
            spec, analytic = pt_potential(m, p, points), PTModel(m, p)
        solves = {}
        real = oracle.tridiag_smallest_eigenvalues

        def recorded(matrix, count, **kwargs):
            eps = real(matrix, count, **kwargs)
            solves[matrix.dim] = eps
            return eps

        monkeypatch.setattr(oracle, "tridiag_smallest_eigenvalues", recorded)
        spectrum_compare(spec, analytic.energies(levels - 1))
        monkeypatch.undo()
        for grid in (spec, spec.refined(2)):
            want = tridiag_smallest_eigenvalues(build_hamiltonian(grid), levels,
                                                tol=oracle.TOL)
            got = solves[grid.grid.count - 2]
            assert np.all(np.abs(got - want) <= 1e-10)
        if levels == 20:  # the coarse hints are 1% wide about the rough levels
            rough, coarse = solves[(points - 1) // 8 - 1], solves[points - 2]
            assert np.any(np.abs(coarse - rough) > 1e-2 * rough)


class TestLapackAgreement:
    """The oracle's own matrices against LAPACK's bisection (dstebz).

    Each solver brackets the eigenvalues of its floating-point Sturm count,
    which is the exact count of the matrix with every coupling b_i changed
    by a few units of roundoff u (Demmel, Applied Numerical Linear Algebra,
    1997, sec. 5.3.4): 2.5 u for the recurrence, 0.5 u for squaring b_i,
    and at most one more for the twist's second subtraction, so c = 4.  To
    first order that moves level j by at most c u kappa_j, with
    kappa_j = 2 sum_i |b_i v_i v_(i+1)| over its eigenvector v.  Here
    kappa_j is 3e3 to 2e6 times epsilon_j, and the two solvers differ by up
    to 135 n u |epsilon_j|, so n u |epsilon_j| is no bound.  The solvers
    stop at brackets of width tol (midpoint returned) and of width
    abstol + 2 ulp |epsilon| (dstebz).
    """

    @pytest.mark.parametrize("count", [2001, 4001])
    @pytest.mark.parametrize("spec_of", [
        lambda count: linear_potential(1, 1, count),
        lambda count: pt_potential(1, 1, count),
        lambda count: pt_potential(0.5, 2, count),
        lambda count: pt_potential(2, 0.5, count),
        lambda count: pt_potential(0.02, 2, count),
    ], ids=["linear-1-1", "pt-1-1", "pt-0.5-2", "pt-2-0.5", "pt-0.02-2"])
    def test_matches_eigh_tridiagonal(self, spec_of, count):
        from scipy.linalg import eigh_tridiagonal

        mat = build_hamiltonian(spec_of(count))
        tol, abstol, u = 1e-10, 1e-12, np.finfo(float).eps / 2
        got = tridiag_smallest_eigenvalues(mat, 10, tol=tol)
        want = eigh_tridiagonal(mat.diag, mat.offdiag, eigvals_only=True,
                                select="i", select_range=(0, 9),
                                lapack_driver="stebz", tol=abstol)
        _, v = eigh_tridiagonal(mat.diag, mat.offdiag, select="i",
                                select_range=(0, 9))
        kappa = 2.0 * np.abs(mat.offdiag) @ np.abs(v[:-1] * v[1:])
        bound = tol / 2 + abstol + 4 * u * np.abs(want) + 2 * 4 * u * kappa
        assert np.all(np.abs(got - want) <= bound)


class TestSmallLevels:
    """Linear levels are (2n + 1) k / (2m), so an absolute tol would swamp
    the h^2 change the convergence order reads; the coarse and fine tol
    follows the lowest rough level instead, less ROUGH_TOL / 2."""

    @pytest.mark.parametrize("spec", [linear_potential(count=1001),
                                      pt_potential(count=1001)], ids=str)
    def test_default_levels_keep_absolute_tol(self, spec):
        energies = (LinearModel(1, 1) if spec.label == "linear"
                    else PTModel(1, 1)).energies(3)
        assert spectrum_compare(spec, energies)["tol"] == oracle.TOL

    @pytest.mark.parametrize("m,k", [(1e6, 1.0), (1.0, 1e-4)])
    def test_tol_follows_lowest_level(self, m, k):
        rep = spectrum_compare(linear_potential(m, k, 2001),
                               LinearModel(m, k).energies(3))
        eps0 = k / (2.0 * m)
        assert 0.5 * oracle.REL_TOL * eps0 <= rep["tol"] <= oracle.REL_TOL * eps0
        assert rep["converged"] and abs(rep["convergence_order"] - 2.0) < 1e-3

    def test_unresolved_rough_level_solves_to_last_float(self):
        # eps_0 = 5e-9 is below ROUGH_TOL / 2, so the rough level gives no
        # positive lower bound, and no tol reaches the solver as 0
        rep = spectrum_compare(linear_potential(1.0, 1e-8, 2001),
                               LinearModel(1.0, 1e-8).energies(3))
        assert rep["tol"] == np.finfo(float).tiny
        assert rep["converged"] and abs(rep["convergence_order"] - 2.0) < 1e-3


class TestCompareValidation:
    def test_count_cap(self):
        model = LinearModel(1, 1)
        with pytest.raises(ValueError, match="at most 20 levels, got 21"):
            spectrum_compare(linear_potential(count=1001), model.energies(20))

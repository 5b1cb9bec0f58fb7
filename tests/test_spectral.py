import math

import numpy as np
import pytest
import scipy.linalg

from szilard import thermo
from szilard.exceptions import SpectralError
from szilard.numerics import Grid, eig_tridiagonal
from szilard.spectral import (
    PhysicalParams,
    _parity_eig,
    analytic_pairs,
    barrier_grid,
    barrier_spectrum,
    hamiltonian,
    splitting_estimate,
)
from szilard.thermo import spectral_stage_check


@pytest.fixture(scope="module")
def params():
    return PhysicalParams()


@pytest.fixture(scope="module")
def default_pairs(params):
    grid = barrier_grid(params, 2048)
    return barrier_spectrum(params, 3, grid)


class TestPhysicalParams:
    def test_defaults_and_derived_scales(self, params):
        assert params.eps == pytest.approx(math.pi**2 / 2.0, rel=1e-15)
        assert params.eps_prime == pytest.approx(params.eps / 0.95**2, rel=1e-15)
        assert params.beta == 1.0
        # lambda_th = sqrt(2 pi hbar^2 beta / m) equals 1 at T = 2 pi
        assert PhysicalParams(T=2 * math.pi).lambda_th == pytest.approx(1.0, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            PhysicalParams(d=1.0, L=1.0)
        with pytest.raises(ValueError):
            PhysicalParams(L=-1.0)
        with pytest.raises(ValueError):
            PhysicalParams(T=0.0)
        with pytest.raises(ValueError, match="T must be finite"):
            PhysicalParams(T=math.inf)
        with pytest.raises(ValueError, match="U must be finite"):
            PhysicalParams(U=math.inf)
        with pytest.raises(ValueError, match="d must be finite"):
            PhysicalParams(d=math.nan)
        PhysicalParams(d=0.0)  # no barrier is a valid configuration


class TestBoxSpectrum:
    def test_free_hamiltonian_eigenvalue_and_convergence_order(self, params):
        free = PhysicalParams(d=0.0)
        es = {}
        for n in (512, 1024, 2048):
            grid = barrier_grid(free, n)
            (e1, _), = eig_tridiagonal(hamiltonian(free, grid), 1)
            es[n] = e1
        exact = free.eps
        assert abs(es[2048] - exact) / exact < 1e-5
        order = math.log2((es[512] - es[1024]) / (es[1024] - es[2048]))
        assert 1.8 <= order <= 2.2
        richardson = (4.0 * es[2048] - es[1024]) / 3.0
        assert abs(richardson - exact) / exact < 1e-8


class TestBarrierGrid:
    def test_edge_falls_on_a_grid_point(self, params):
        grid = barrier_grid(params, 4096)
        assert abs(grid.n_points - 4096) <= 64
        pos = (params.L + params.d) / 2.0 / grid.spacing
        assert abs(pos - round(pos)) < 1e-6

    def test_potential_membership(self, params):
        grid = barrier_grid(params, 1024)
        ham = hamiltonian(params, grid)
        x = grid.points
        t = params.hbar**2 / (2.0 * params.mass * grid.spacing**2)
        v = ham.diagonal - 2.0 * t
        inside = np.abs(x) <= params.d / 2.0 + 1e-9 * grid.spacing
        assert np.all(v[inside] == params.U)
        assert np.all(v[~inside] == 0.0)
        assert inside.sum() >= 16
        assert np.all(ham.off_diagonal == -t)


class TestBarrierSpectrum:
    def test_doublet_structure(self, params, default_pairs):
        for k, pair in enumerate(default_pairs, start=1):
            assert pair.k == k
            assert pair.delta > 0
            assert pair.energy == pytest.approx(params.eps_prime * (2 * k) ** 2, rel=0.05)

    def test_members_orthonormal_and_parity_definite(self, default_pairs):
        for pair in default_pairs:
            for v in (pair.psi_plus, pair.psi_minus, pair.left, pair.right):
                assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-10)
            assert abs(pair.psi_plus @ pair.psi_minus) < 1e-8
            sym = pair.psi_minus
            anti = pair.psi_plus
            assert sym @ sym[::-1] == pytest.approx(1.0, abs=1e-12)
            assert anti @ anti[::-1] == pytest.approx(-1.0, abs=1e-12)

    def test_left_state_lives_left(self, default_pairs):
        for pair in default_pairs:
            half = len(pair.left) // 2
            assert float(np.sum(pair.left[:half] ** 2)) > 0.99
            assert float(np.sum(pair.right[half:] ** 2)) > 0.99
            # mirror symmetry maps the two onto each other
            assert np.max(np.abs(pair.left[::-1] - pair.right)) < 1e-12

    def test_localized_basis_recombines(self, default_pairs):
        inv = 1.0 / math.sqrt(2.0)
        for pair in default_pairs:
            sym = (pair.left + pair.right) * inv
            anti = (pair.left - pair.right) * inv
            assert np.max(np.abs(sym - pair.psi_minus)) < 1e-12
            assert np.max(np.abs(anti - pair.psi_plus)) < 1e-12

    def test_requires_barrier_and_enough_points(self, params):
        with pytest.raises(SpectralError):
            barrier_spectrum(PhysicalParams(d=0.0), 1)
        # at 250 interior points only 12 fall under the d=0.05 barrier
        with pytest.raises(SpectralError, match="16"):
            grid = Grid(n_points=250, x_min=-0.5, x_max=0.5)
            barrier_spectrum(params, 1, grid)

    def test_level_count_is_bounded_by_the_grid(self, params):
        grid = barrier_grid(params, 1024)
        with pytest.raises(ValueError, match="levels requested"):
            barrier_spectrum(params, 600, grid)
        with pytest.raises(ValueError, match="levels requested"):
            spectral_stage_check(params, 1200, grid)

    def test_pairs_above_the_barrier_are_rejected(self):
        low = PhysicalParams(U=50.0)
        grid = barrier_grid(low, 1024)
        with pytest.raises(SpectralError, match="barrier top"):
            barrier_spectrum(low, 2, grid)


class TestParityFold:
    # The fold solves half-size even/odd blocks; the oracle solves the full
    # grid Hamiltonian in one piece and pairs its sorted levels two by two.

    @pytest.mark.parametrize("n_points", [4000, 4001])
    def test_matches_unfolded_solve(self, params, n_points):
        grid = Grid(n_points, -0.5, 0.5)
        pairs = barrier_spectrum(params, 5, grid)
        levels = [e for e, _ in eig_tridiagonal(hamiltonian(params, grid), 10)]
        for pair, lo, hi in zip(pairs, levels[0::2], levels[1::2]):
            assert abs(pair.energy - 0.5 * (lo + hi)) <= 1e-9
            assert pair.delta == pytest.approx(0.5 * (hi - lo), rel=1e-9)

    def test_asymmetric_grid_is_rejected(self, params):
        grid = Grid(4096, -0.5, 0.6)
        with pytest.raises(SpectralError, match="mirror-symmetric"):
            barrier_spectrum(params, 1, grid)
        with pytest.raises(SpectralError, match="mirror-symmetric"):
            spectral_stage_check(params, 10, grid)

    @pytest.mark.parametrize("n_target", [1024, 1025])
    def test_eigensolves_stay_half_sized(self, params, n_target, monkeypatch):
        calls = []
        solve = scipy.linalg.eigh_tridiagonal

        def recording(d, e, **kw):
            calls.append((len(d), kw["eigvals_only"]))
            return solve(d, e, **kw)

        grid = Grid(n_target, -0.5, 0.5)
        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", recording)
        barrier_spectrum(params, 5, grid)
        spectral_stage_check(params, 30, grid)
        assert len(calls) == 4
        assert max(width for width, _ in calls) <= math.ceil(n_target / 2)
        # the spectrum keeps its vectors, the stage check asks for none
        assert [values_only for _, values_only in calls] == [False, False, True, True]

    @pytest.mark.parametrize("n_points", [2048, 2049])
    def test_stage_check_levels_match_eigenpair_solve(self, params, n_points, monkeypatch):
        # oracle: the eigenpair solve barrier_spectrum uses, on the same blocks
        grid = Grid(n_points, -0.5, 0.5)
        levels = []
        solve = thermo._stebz

        def recording(*args, **kw):
            levels.append(solve(*args, **kw))
            return levels[-1]

        monkeypatch.setattr(thermo, "_stebz", recording)
        spectral_stage_check(params, 90, grid)
        (even, _), (odd, _) = _parity_eig(hamiltonian(params, grid), 45, 45)
        assert len(levels) == 2
        assert np.array_equal(levels[0], even)
        assert np.array_equal(levels[1], odd)


@pytest.fixture(scope="module")
def tall():
    p = PhysicalParams(U=1e9)
    return p, barrier_spectrum(p, 1, barrier_grid(p, 4096))[0]


class TestDecoupledWellLimit:
    # As U grows the wells separate: the splitting closes and each pair
    # converges to the ground state of an isolated well of width (L-d)/2.

    def test_splitting_closes(self, tall):
        p, pair = tall
        assert pair.delta <= 1e-8 * pair.energy

    def test_energy_approaches_isolated_well(self, tall):
        p, pair = tall
        assert pair.energy == pytest.approx(4.0 * p.eps_prime, rel=1e-3)

    def test_left_state_is_the_isolated_well_ground_state(self):
        # wall softness scales as 1/sqrt(U), so push U high enough that
        # the sampled half-box sine matches to 1e-6
        p = PhysicalParams(U=1e12)
        pair = barrier_spectrum(p, 1, barrier_grid(p, 4096))[0]
        grid = barrier_grid(p, 4096)
        x = grid.points
        w = (p.L - p.d) / 2.0
        lo, hi = -p.L / 2.0, -p.d / 2.0
        ref = np.where((x > lo) & (x < hi), np.sin(math.pi * (x - lo) / w), 0.0)
        ref /= np.linalg.norm(ref)
        v = pair.left * np.sign(pair.left @ ref)
        assert np.max(np.abs(v - ref)) < 1e-6


class TestSplittingEstimate:
    def test_closed_form_value(self, params):
        e1 = params.eps_prime * 4.0
        kappa = math.sqrt(2.0 * params.mass * (params.U - e1)) / params.hbar
        expect = 4.0 * params.eps_prime / math.pi * math.exp(-kappa * params.d)
        assert splitting_estimate(params, 1) == pytest.approx(expect, rel=1e-14)

    def test_rejects_pairs_above_barrier(self):
        with pytest.raises(SpectralError):
            splitting_estimate(PhysicalParams(U=50.0), 2)

    def test_analytic_pairs_zero_splitting_above_barrier(self):
        p = PhysicalParams(U=50.0)
        pairs = analytic_pairs(p, 3)
        assert len(pairs) == 3
        assert pairs[0][1] > 0
        assert pairs[1][1] == 0.0 and pairs[2][1] == 0.0
        for k, (e, _) in enumerate(pairs, start=1):
            assert e == pytest.approx(p.eps_prime * (2 * k) ** 2, rel=1e-14)


class TestAgainstMatchingOracle:
    def test_ground_splitting_matches_matching_condition(self, params):
        """The finite-difference splitting must agree with the value from
        the continuum even/odd matching conditions.

        For E below U the even/odd solutions of the piecewise-constant
        double well satisfy k cot(k w) = -kappa tanh/coth(kappa d / 2)
        style matching; solving both transcendental equations brackets the
        doublet without any grid.  The grid result carries an O(kappa h)
        bias from the smeared barrier edge, so the tolerance is a few
        percent at 4096 points.
        """
        grid = barrier_grid(params, 4096)
        pair = barrier_spectrum(params, 1, grid)[0]
        e_sym = _solve_matching(params, symmetric=True)
        e_anti = _solve_matching(params, symmetric=False)
        delta_exact = (e_anti - e_sym) / 2.0
        assert pair.delta == pytest.approx(delta_exact, rel=0.04)
        assert pair.energy == pytest.approx((e_anti + e_sym) / 2.0, rel=1e-3)


def _solve_matching(params, symmetric: bool) -> float:
    """Root of the even/odd matching condition for the ground doublet."""
    from scipy.optimize import brentq

    w = (params.L - params.d) / 2.0
    m, hbar, U, d = params.mass, params.hbar, params.U, params.d

    def f(e):
        k = math.sqrt(2.0 * m * e) / hbar
        kappa = math.sqrt(2.0 * m * (U - e)) / hbar
        t = math.tanh(kappa * d / 2.0) if symmetric else 1.0 / math.tanh(kappa * d / 2.0)
        # continuity of psi'/psi at the barrier edge, wavefunction
        # sin(k(x+L/2)) in the well, cosh/sinh inside the barrier
        return k / math.tan(k * w) + kappa * t

    # the root sits just below the infinite-wall energy 4 eps'; the
    # matching function diverges to -inf as k w -> pi from below
    e0 = params.eps_prime * 4.0
    return brentq(f, 0.5 * e0, e0 * (1.0 - 1e-12), xtol=1e-13, rtol=8.9e-16)

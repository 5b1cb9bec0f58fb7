import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from szilard import thermo
from szilard.cli import SPLITTING_SERIES_D
from szilard.exceptions import SpectralError
from szilard.numerics import Grid, eig_tridiagonal
from szilard.spectral import (
    MAX_PAIRS,
    PhysicalParams,
    _exact_levels,
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

    @pytest.mark.parametrize("d, n_target", [(0.05, 20), (0.02, 256), (0.05, 100), (0.10, 700)])
    def test_small_target_stays_in_its_window(self, d, n_target):
        grid = barrier_grid(PhysicalParams(d=d), n_target)
        assert abs(grid.n_points - n_target) <= n_target // 16

    @pytest.mark.parametrize("d, sizes", [
        (0.02, (999, 1999, 4099, 8199)),
        (0.05, (1039, 2039, 4079, 8199)),
        (0.10, (1019, 2039, 4099, 8199)),
    ])
    def test_large_targets_keep_the_64_point_scan(self, d, sizes):
        # sizes the n_target +/- 64 scan picked for 1024..8192 before the
        # window shrank for small targets
        grid_sizes = [barrier_grid(PhysicalParams(d=d), n).n_points for n in (1024, 2048, 4096, 8192)]
        assert tuple(grid_sizes) == sizes

    @pytest.mark.parametrize("d", [0.02, 0.05, 0.10])
    def test_scan_matches_loop(self, d):
        # oracle: the count-by-count scan the vectorized choice replaced
        def scan(params, n_target):
            reach = min(64, n_target // 16)
            best_n = best_score = None
            for n in range(max(3, n_target - reach), n_target + reach + 1):
                pos = (params.L + params.d) / 2.0 / (params.L / (n + 1))
                score = abs(pos - round(pos))
                if best_score is None or score < best_score - 1e-15 or (
                    abs(score - best_score) <= 1e-15 and abs(n - n_target) < abs(best_n - n_target)
                ):
                    best_n, best_score = n, score
            return best_n

        p = PhysicalParams(d=d)
        targets = [*range(3, 2049), 4096, 8192]
        assert [barrier_grid(p, n).n_points for n in targets] == [scan(p, n) for n in targets]

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

    def test_requires_barrier_and_enough_points(self, params):
        with pytest.raises(SpectralError):
            barrier_spectrum(PhysicalParams(d=0.0), 1)
        with pytest.raises(ValueError, match=f"1..{MAX_PAIRS}"):
            barrier_spectrum(params, 0)

    def test_level_count_is_bounded_by_the_grid(self, params):
        with pytest.raises(ValueError, match=f"1..{MAX_PAIRS}"):
            barrier_spectrum(params, MAX_PAIRS + 1)
        # the cap itself solves where the barrier is tall enough
        assert len(barrier_spectrum(PhysicalParams(U=1e12), MAX_PAIRS)) == MAX_PAIRS

    def test_pairs_above_the_barrier_are_rejected(self):
        low = PhysicalParams(U=50.0)
        grid = barrier_grid(low, 1024)
        with pytest.raises(SpectralError, match="barrier top"):
            barrier_spectrum(low, 2, grid)


class TestParityFold:
    # barrier_spectrum and the stage check solve each parity's levels from
    # its own phase equation.  The oracles: the finite-difference matrix
    # solved in one piece, which is first order in the grid step, and the
    # continuum matching conditions.

    @pytest.mark.parametrize("n_points", [4000, 4001])
    def test_matches_unfolded_solve(self, params, n_points):
        # to the finite-difference error: 5e-4 in E and 2.2% in delta at 4001
        # points, where the barrier edges miss the grid
        grid = Grid(n_points, -0.5, 0.5)
        pairs = barrier_spectrum(params, 5, grid)
        fd = eig_tridiagonal(hamiltonian(params, grid), 10)
        for pair, (lo, _), (hi, _) in zip(pairs, fd[0::2], fd[1::2]):
            assert 0.5 * (lo + hi) == pytest.approx(pair.energy, rel=1e-3)
            assert 0.5 * (hi - lo) == pytest.approx(pair.delta, rel=0.05)

    @pytest.mark.parametrize("n_target", [1024, 1025])
    def test_solves_without_scipy_eigensolver(self, params, n_target, monkeypatch):
        # scipy is a test dependency only: the exact route must not need it
        monkeypatch.setitem(sys.modules, "scipy.linalg", None)
        grid = Grid(n_target, -0.5, 0.5)
        assert len(barrier_spectrum(params, 5, grid)) == 5
        assert spectral_stage_check(params, 30, grid).levels_used == 30

    @pytest.mark.parametrize("n_points", [2048, 2049])
    def test_stage_check_levels_match_full_solve(self, params, n_points, monkeypatch):
        # all 90 levels, below and above the barrier top, to the
        # finite-difference error of the full matrix (1.6e-3 at the top level)
        grid = Grid(n_points, -0.5, 0.5)
        solved = []
        solve = thermo._exact_levels

        def recording(*args):
            solved.append(solve(*args))
            return solved[-1]

        monkeypatch.setattr(thermo, "_exact_levels", recording)
        chk = spectral_stage_check(params, 90, grid)
        (even, odd), = solved
        assert chk == spectral_stage_check(params, 90)  # the grid changes nothing
        assert odd[-1] > params.U
        ham = hamiltonian(params, grid)
        oracle = {True: [], False: []}  # keyed by oddness
        for value, v in eig_tridiagonal(ham, 100):
            oracle[v @ v[::-1] < 0].append(value)
        assert len(even) == len(odd) == 45
        np.testing.assert_allclose(even, oracle[False][:45], rtol=5e-3)
        np.testing.assert_allclose(odd, oracle[True][:45], rtol=5e-3)

    def test_splitting_series_matches_oracle(self):
        # the spectrum command's companion series against the matching conditions
        for d in SPLITTING_SERIES_D:
            p = PhysicalParams(d=d)
            pair = barrier_spectrum(p, 1)[0]
            e_sym, e_anti = _solve_matching(p, symmetric=True), _solve_matching(p, symmetric=False)
            assert pair.energy == pytest.approx(0.5 * (e_sym + e_anti), rel=1e-13)
            assert pair.delta == pytest.approx(0.5 * (e_anti - e_sym), rel=1e-8)


def _matching(p: PhysicalParams, e: float, odd: bool) -> float:
    """Matching condition of a level e, with the poles multiplied out.

    The well solution sin(k (L/2 - x)) meets cosh or sinh (under the top)
    or cos or sin (above it) of the barrier with the same log-derivative
    at x = d/2; under the top both sides are divided by cosh(kappa d/2).
    """
    w, b = 0.5 * (p.L - p.d), 0.5 * p.d
    k = math.sqrt(2.0 * p.mass * e) / p.hbar
    well = (k * math.cos(k * w), math.sin(k * w))
    if e < p.U:
        kappa = math.sqrt(2.0 * p.mass * (p.U - e)) / p.hbar
        t = math.tanh(kappa * b)
        return well[0] * t + kappa * well[1] if odd else well[0] + kappa * t * well[1]
    q = math.sqrt(2.0 * p.mass * (e - p.U)) / p.hbar
    if odd:
        return well[0] * math.sin(q * b) + q * math.cos(q * b) * well[1]
    return well[0] * math.cos(q * b) - q * math.sin(q * b) * well[1]


class TestExactLevels:
    @settings(max_examples=40, deadline=None)
    @given(
        d=st.floats(0.01, 0.6),
        log_u=st.floats(math.log(50.0), math.log(1e12)),
        n=st.integers(1, 40),
    )
    def test_levels_satisfy_matching_conditions(self, d, log_u, n):
        p = PhysicalParams(d=d, U=math.exp(log_u))
        even, odd = _exact_levels(p, n, n)
        # ascending and alternating in parity; a doublet that closes below
        # rounding may order its two roots either way (_split solves delta)
        assert np.all(even <= odd * (1 + 1e-14)) and np.all(odd[:-1] < even[1:])
        for levels, is_odd in ((even, False), (odd, True)):
            for e in levels:
                # the condition changes sign within 1e-10 of each level
                assert _matching(p, e * (1 - 1e-10), is_odd) * _matching(p, e * (1 + 1e-10), is_odd) < 0
        # under the top, the brentq roots of the tanh and coth conditions
        for k in range(1, n + 1):
            if p.eps_prime * (2 * k) ** 2 < p.U:
                assert even[k - 1] == pytest.approx(_solve_matching(p, True, k), rel=1e-12)
                assert odd[k - 1] == pytest.approx(_solve_matching(p, False, k), rel=1e-12)

    @pytest.mark.parametrize("k", [1, 3])
    def test_splitting_keeps_its_digits_deep_under_the_barrier(self, k):
        # d = 0.3: delta_1/E_1 is about 2e-14, below the rounding of either
        # level, so the difference of two float roots would carry no digit;
        # the oracle solves both conditions with 40 digits
        p = PhysicalParams(d=0.3)
        pair = barrier_spectrum(p, k)[-1]
        with mpmath.workdps(40):
            w, b, u = (1 - mpmath.mpf(p.d)) / 2, mpmath.mpf(p.d) / 2, mpmath.mpf(p.U)

            def condition(odd):
                def f(e):
                    q, kappa = mpmath.sqrt(2 * e), mpmath.sqrt(2 * (u - e))
                    t = mpmath.tanh(kappa * b)
                    return q * mpmath.cos(q * w) * (t if odd else 1) + kappa * mpmath.sin(q * w) * (
                        1 if odd else t)
                return f

            lo, hi = ((k - 0.5) * mpmath.pi / w) ** 2 / 2, (k * mpmath.pi / w) ** 2 / 2
            e_sym, e_anti = (mpmath.findroot(condition(odd), (lo, hi * (1 - mpmath.mpf(10) ** -30)),
                                             solver="anderson") for odd in (False, True))
            assert pair.delta / pair.energy < 1e-13
            assert pair.delta == pytest.approx(float((e_anti - e_sym) / 2), rel=1e-9)
            assert pair.energy == pytest.approx(float((e_anti + e_sym) / 2), rel=1e-14)

    def test_finite_differences_converge_at_first_order(self, params):
        # the grid oracle closes on the exact doublet as h: the barrier edge
        # is a step the second-order stencil resolves only to first order
        exact = barrier_spectrum(params, 1)[0]
        err_e, err_d = [], []
        for n in (1024, 2048, 4096):
            (lo, _), (hi, _) = eig_tridiagonal(hamiltonian(params, barrier_grid(params, n)), 2)
            err_e.append(abs(0.5 * (lo + hi) - exact.energy))
            err_d.append(abs(0.5 * (hi - lo) - exact.delta))
        for err in (err_e, err_d):
            for coarse, fine in zip(err, err[1:]):
                assert 0.85 <= math.log2(coarse / fine) <= 1.15


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
        """The ground doublet must agree with the continuum even/odd
        matching conditions.

        For E below U the even/odd solutions of the piecewise-constant
        double well satisfy k cot(k w) = -kappa tanh/coth(kappa d / 2);
        solving both transcendental equations brackets the doublet without
        any grid.  At delta/E = 5.6e-4 the difference of the two brentq
        roots keeps 11 digits of delta.
        """
        pair = barrier_spectrum(params, 1)[0]
        e_sym = _solve_matching(params, symmetric=True)
        e_anti = _solve_matching(params, symmetric=False)
        delta_exact = (e_anti - e_sym) / 2.0
        assert pair.delta == pytest.approx(delta_exact, rel=1e-10)
        assert pair.energy == pytest.approx((e_anti + e_sym) / 2.0, rel=1e-14)


def _solve_matching(params, symmetric: bool, n: int = 1) -> float:
    """Root of the even/odd matching condition for doublet n below the top."""
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

    # k w lies in ((n - 1/2) pi, n pi): the matching function falls from
    # kappa t > 0 there to -inf as k w -> n pi from below
    e_lo = ((n - 0.5) * math.pi * hbar / w) ** 2 / (2.0 * m)
    e0 = params.eps_prime * (2 * n) ** 2
    return brentq(f, e_lo * (1.0 + 1e-12), e0 * (1.0 - 1e-12), xtol=1e-13, rtol=8.9e-16)

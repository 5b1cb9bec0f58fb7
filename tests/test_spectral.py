import collections
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from szilard import spectral
from szilard.cli import SPLITTING_SERIES_D
from szilard.exceptions import SpectralError
from szilard.numerics import Grid, eig_tridiagonal
from szilard.spectral import (
    MAX_PAIRS,
    PhysicalParams,
    SplitPair,
    _exact_levels,
    analytic_pairs,
    barrier_grid,
    barrier_spectrum,
    hamiltonian,
    splitting_estimate,
)
from szilard.thermo import spectral_stage_check

from oracles import doublet


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

    def test_pairs_refuse_a_negative_splitting(self, default_pairs):
        for make in (lambda: SplitPair(1, 1.0, -1e-3), lambda: default_pairs[0]._replace(delta=-1e-3)):
            with pytest.raises(ValueError, match="delta must be nonnegative, got -0.001"):
                make()

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

    def test_cold_solve_takes_at_most_four_evaluations(self, params, monkeypatch):
        # a deterministic stand-in for a timing: the cost of a cold solve is
        # the Newton evaluations of each level's deficit
        calls = collections.Counter()
        deficit = spectral._deficit

        def recording(k, npi, odd, *args):
            calls[round(npi / math.pi), odd] += 1
            return deficit(k, npi, odd, *args)

        monkeypatch.setattr(spectral, "_deficit", recording)
        barrier_spectrum(params, 5)
        assert set(calls) == {(n, odd) for n in range(1, 6) for odd in (False, True)}
        assert max(calls.values()) <= 4

    def test_pairs_above_the_barrier_are_rejected(self):
        low = PhysicalParams(U=50.0)
        grid = barrier_grid(low, 1024)
        with pytest.raises(SpectralError, match="barrier top"):
            barrier_spectrum(low, 2, grid)

    @pytest.mark.parametrize("L", [10.0, 0.0905797775942566])
    def test_an_odd_member_at_the_top_is_refused(self, L):
        # U = 100 eps over a barrier of 1e-7 L: the odd member of pair 5 sits
        # at the top to rounding, where the count at E = U still places it
        # below; its kappa is 0 and the splitting has no deficit to solve
        p = PhysicalParams(L=L, d=1e-7 * L, U=100.0 * math.pi**2 / (2.0 * L * L))
        assert spectral._under_top(p)[1] == 5
        with pytest.raises(SpectralError, match="^pair 5 reaches the barrier top"):
            barrier_spectrum(p, 5)
        assert len(barrier_spectrum(p, 4)) == 4


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

    def test_solves_without_numpy(self, monkeypatch):
        # the levels and splittings are solved on Python floats; only the grid
        # oracle (barrier_grid, hamiltonian) needs numpy
        monkeypatch.setitem(sys.modules, "numpy", None)
        assert len(barrier_spectrum(PhysicalParams(U=1e12), MAX_PAIRS)) == MAX_PAIRS
        assert spectral_stage_check(PhysicalParams(), 90).levels_used == 90

    @pytest.mark.parametrize("n_points", [2048, 2049])
    def test_stage_check_levels_match_full_solve(self, params, n_points, monkeypatch):
        # all 90 levels, below and above the barrier top, to the
        # finite-difference error of the full matrix (1.6e-3 at the top level)
        grid = Grid(n_points, -0.5, 0.5)
        solved = []
        solve = spectral._exact_levels

        def recording(*args):
            solved.append(solve(*args))
            return solved[-1]

        monkeypatch.setattr(spectral, "_exact_levels", recording)
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
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        # uniform over the doublet widths, log-uniform down to the thinnest
        d=st.one_of(st.floats(0.01, 0.6), st.floats(math.log(1e-20), math.log(0.01)).map(math.exp)),
        log_u=st.floats(math.log(50.0), math.log(1e30)),
        n=st.integers(1, 40),
    )
    def test_levels_satisfy_matching_conditions(self, d, log_u, n):
        p = PhysicalParams(d=d, U=math.exp(log_u))
        even, odd = map(np.asarray, _exact_levels(p, n, n))
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


class TestHardWall:
    # Zurek's impenetrable partition: as U grows, delta closes far below the
    # rounding of the levels and k w sits within a few ulps of n pi.  The
    # oracle solves both matching conditions with 80 digits.
    @pytest.mark.parametrize("U, d", [(1e16, 1e-10), (1e24, 1e-12), (1e30, 1e-16), (1e30, 1e-14)])
    def test_ground_doublet_matches_80_digit_roots(self, U, d):
        p = PhysicalParams(U=U, d=d)
        pair = barrier_spectrum(p, 1)[0]
        energy, delta = doublet(p, 1)
        assert pair.energy == pytest.approx(float(energy), rel=1e-13)
        assert pair.delta == pytest.approx(float(delta), rel=1e-13)


class TestThinBarrier:
    # kappa d << 1: the odd member sits at its hard-wall level to within d
    # (to within rounding from d = 1e-16) and delta tends to 0.6 E, so the
    # difference of the two levels carries delta
    # and at the two ends of the deficit's range: U = 19.739208802178723 puts
    # the odd level within 1e-15 of the top, so its bracket ends at k_U, where
    # kappa -> 0; at d = 1e-310, kappa b lies below 1e-300 and tanh(kappa b) -> 0
    @pytest.mark.parametrize("d, U", [(1e-9, 5000.0), (1e-6, 50.0), (1e-8, 50.0), (1e-16, 50.0),
                                      (1e-16, 5000.0), (1e-20, 1e12), (1e-30, 50.0),
                                      (1e-6, 19.739208802178723), (1e-310, 50.0)])
    def test_splitting_is_the_level_difference(self, d, U):
        p = PhysicalParams(d=d, U=U)
        pair = barrier_spectrum(p, 1)[0]
        even, odd = _exact_levels(p, 1, 1)
        assert pair.delta == pytest.approx((odd[0] - even[0]) / 2, rel=1e-12)
        assert pair.delta / pair.energy == pytest.approx(0.6, abs=2e-5)

    def test_splitting_where_the_barrier_log_derivative_underflows(self):
        # a box 3.4e68 wide with U = 1.2e-110: kappa tanh(kappa b) of the even
        # members rounds to 0, and the deficit takes its limit pi/2.  The
        # members sit at the free box's levels (2k-1)^2 eps and (2k)^2 eps
        p = PhysicalParams(L=3.40732639978984e68, d=2.7107235094327305e-246, U=1.1965275332044201e-110)
        even, odd = _exact_levels(p, 2, 2)
        for pair, lo, hi in zip(barrier_spectrum(p, 2), even, odd):
            assert pair.delta == pytest.approx((hi - lo) / 2, rel=1e-12)
            free = p.eps * (2 * pair.k - 1) ** 2, p.eps * (2 * pair.k) ** 2
            assert (lo, hi) == pytest.approx(free, rel=1e-12)

    @pytest.mark.parametrize("b", [0.025, 1e-300])
    @pytest.mark.parametrize("odd", [False, True])
    def test_deficit_takes_its_limit_at_the_barrier_top(self, b, odd):
        # at k = k_U, kappa b is 0: the residual is the one _under_top places
        # levels by (phi = pi/2 even, arctan(k_U b) odd), and residual and
        # slope continue those 1e-8 below it
        w, cu = 0.475, 1e4
        k_u = math.sqrt(cu)
        (res, slope), (res_below, slope_below) = (spectral._deficit(k, 3.0 * math.pi, odd, b, w, cu)
                                                  for k in (k_u, k_u * (1.0 - 1e-8)))
        phi = math.atan(k_u * b) if odd else 0.5 * math.pi
        assert res == pytest.approx(k_u * w + phi - 3.0 * math.pi, rel=1e-15)
        assert res - res_below == pytest.approx(1e-8 * k_u * slope, rel=1e-6)
        assert slope == pytest.approx(slope_below, rel=1e-8)

    def test_split_solve_stops_on_its_step(self):
        # kappa d = 0.01 and delta/E = 0.03: the odd member is 2e-6 in k w
        # from its hard-wall level, where rounding alone leaves a secant
        # residual above 1e-13 delta; the oracle solves both conditions with
        # 40 digits
        p = PhysicalParams(d=7.0710678118654756e-07, U=1e8)
        pair = barrier_spectrum(p, 1)[0]
        even, odd = _exact_levels(p, 1, 1)
        with mpmath.workdps(40):
            w, b, u = (1 - mpmath.mpf(p.d)) / 2, mpmath.mpf(p.d) / 2, mpmath.mpf(p.U)

            def condition(is_odd):
                def f(e):
                    q, kappa = mpmath.sqrt(2 * e), mpmath.sqrt(2 * (u - e))
                    t = mpmath.tanh(kappa * b)
                    return q * mpmath.cos(q * w) * (t if is_odd else 1) + kappa * mpmath.sin(q * w) * (
                        1 if is_odd else t)
                return f

            e_sym, e_anti = (mpmath.findroot(condition(is_odd), mpmath.mpf(float(level[0])))
                             for is_odd, level in ((False, even), (True, odd)))
            assert pair.delta / pair.energy < 0.05  # well inside the doublet regime
            assert pair.delta == pytest.approx(float((e_anti - e_sym) / 2), rel=1e-13)


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


def _model_splitting(p: PhysicalParams, k: int) -> float:
    """The model's (4 eps'/pi) e^(-kappa d) at E = eps' (2k)^2, in analytic_pairs' operations."""
    e = p.eps_prime * (4.0 * k * k)
    kappa = math.sqrt(2.0 * p.mass * (p.U - e)) / p.hbar
    return (4.0 * p.eps_prime / math.pi) * math.exp(-p.d * kappa)


def _log_uniform(lo: float, hi: float):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda x: 10.0**x)


class TestSplittingEstimate:
    def test_closed_form_value(self, params):
        e1 = params.eps_prime * 4.0
        kappa = math.sqrt(2.0 * params.mass * (params.U - e1)) / params.hbar
        expect = 4.0 * params.eps_prime / math.pi * math.exp(-kappa * params.d)
        assert analytic_pairs(params, 1)[0][1] == pytest.approx(expect, rel=1e-14)

    def test_reads_the_level_of_its_pair(self, params):
        # 4 E (1 - E/U) e^(-kappa d)/(1 + kappa w) at the pair's own E
        pair = SplitPair(1, 20.0, 0.0)
        kappa, w = math.sqrt(2.0 * (params.U - 20.0)), 0.5 * (params.L - params.d)
        expect = 80.0 * (1.0 - 20.0 / params.U) * math.exp(-kappa * params.d) / (1.0 + kappa * w)
        assert splitting_estimate(params, pair) == pytest.approx(expect, rel=1e-14)

    @pytest.mark.parametrize("fields, n, lo, hi", [
        ({}, 5, 4.3e-5, 4.4e-5),  # the defaults, d = 0.05 and U = 5000
        ({"d": 0.1}, 5, 2e-9, 2.6e-9),
        ({"d": 0.02}, 5, 0.017, 0.018),
        ({"U": 1e30, "d": 1e-14}, 1, 4e-13, 6e-13),
        # the defaults' problem in other hbar and m: energies scale by hbar^2/m = 8
        ({"hbar": 2.0, "mass": 0.5, "U": 40000.0}, 5, 4.3e-5, 4.4e-5),
    ])
    def test_matches_the_exact_splitting(self, fields, n, lo, hi):
        # the largest relative error over the first n pairs
        p = PhysicalParams(**fields)
        errors = [abs(splitting_estimate(p, pair) / pair.delta - 1.0) for pair in barrier_spectrum(p, n)]
        assert lo <= max(errors) <= hi

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(L=_log_uniform(1e-3, 1e3), frac=_log_uniform(1e-8, 0.5), ratio=_log_uniform(10.0, 1e14))
    def test_error_is_bounded_by_the_barrier_transmission(self, L, frac, ratio):
        # |est/delta - 1| <= 2 e^(-2 kappa d) for the pairs with E_k <= U/2 whose
        # splitting is a normal float fraction of E_k; above U/2 the bound fails
        p = PhysicalParams(L=L, d=L * frac, U=ratio * math.pi**2 / (2.0 * L * L))
        n = min(5, spectral._under_top(p)[1])
        try:
            pairs = barrier_spectrum(p, n) if n else []
        except SpectralError:  # the last odd member at the top to rounding
            pairs = barrier_spectrum(p, n - 1) if n > 1 else []
        for pair in pairs:
            if pair.energy > 0.5 * p.U or pair.delta < 1e-290 * pair.energy:
                continue
            kappa = math.sqrt(2.0 * p.mass * (p.U - pair.energy)) / p.hbar
            err = abs(splitting_estimate(p, pair) / pair.delta - 1.0)
            assert err <= 2.0 * math.exp(-2.0 * kappa * p.d) + 1e-12

    def test_rejects_pairs_above_barrier(self, params):
        for energy in (params.U, 2.0 * params.U):
            with pytest.raises(SpectralError, match="pair 2 sits above the barrier"):
                splitting_estimate(params, SplitPair(2, energy, 1.0))

    def test_analytic_pairs_zero_splitting_above_barrier(self):
        p = PhysicalParams(U=50.0)
        pairs = analytic_pairs(p, 3)
        assert len(pairs) == 3
        assert pairs[0][1] > 0
        assert pairs[1][1] == 0.0 and pairs[2][1] == 0.0
        for k, (e, _) in enumerate(pairs, start=1):
            assert e == pytest.approx(p.eps_prime * (2 * k) ** 2, rel=1e-14)

    def test_analytic_pairs_returns_rows_of_floats(self):
        p = PhysicalParams(U=500.0)
        pairs = analytic_pairs(p, 5)
        assert len(pairs) == 5
        assert all(len(row) == 2 and all(type(x) is float for x in row) for row in pairs)
        # the levels keep the bits of the array form eps' (2k)^2
        levels = p.eps_prime * np.arange(2.0, 11.0, 2.0) ** 2
        assert [e for e, _ in pairs] == levels.tolist()
        for k, (e, delta) in enumerate(pairs, start=1):
            expect = _model_splitting(p, k) if p.U > e else 0.0
            assert delta == expect  # the same operations as the closed form
        assert pairs[0][1] > 0.0  # read as the acceptance gate reads delta_1

    def test_analytic_pairs_levels_past_the_float_range(self):
        # eps' (2k)^2 overflows for the top pairs: an inf level, with no warning
        p = PhysicalParams(L=1e-153, d=1e-155, U=1e307, T=1e307)
        pairs = analytic_pairs(p, 100_000)
        assert math.isinf(pairs[-1][0]) and pairs[-1][1] == 0.0
        assert all(math.isfinite(x) for row in pairs[:2] for x in row)


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
    # kappa t > 0 there to -inf as k w -> n pi from below.  Each end sits 8
    # ulps of k inside: a tall barrier takes a root to within a few ulps of
    # n pi, a thin one the even root to (n - 1/2) pi, and a root closer to
    # an end than that is the end to rounding, where the float condition
    # cannot change sign
    def energy(k):
        return (hbar * k) ** 2 / (2.0 * m)

    k_lo, k_hi = (n - 0.5) * math.pi / w, n * math.pi / w
    e_lo, e_hi = energy(k_lo + 8.0 * math.ulp(k_lo)), energy(k_hi - 8.0 * math.ulp(k_hi))
    if f(e_lo) <= 0.0:
        return energy(k_lo)
    if f(e_hi) >= 0.0:
        return energy(k_hi)
    return brentq(f, e_lo, e_hi, xtol=1e-13, rtol=8.9e-16)

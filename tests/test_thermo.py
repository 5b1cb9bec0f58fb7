import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from oracles import box_tails, doublet_weights, theta_sums, theta_tails
from szilard.exceptions import SpectralError, ThermoError
from szilard.infodyn import TRACE_TOL
from szilard.spectral import PhysicalParams, analytic_pairs, barrier_grid
from szilard.thermo import (
    _doublet_weights,
    _tails,
    StageLedger,
    isothermal_work,
    mean_energy,
    partition_exact,
    partition_highT,
    partition_theta,
    spectral_stage_check,
    stage_free_energies,
    thermo_entropy,
)


def brute_force_Z(eps_beta: float, n: int = 4000) -> float:
    ns = np.arange(1, n + 1, dtype=float)
    return float(np.sum(np.exp(-eps_beta * ns**2)))


class TestPartitionExact:
    def test_matches_brute_force(self):
        for eps_beta in (1.0, 0.1, 0.01):
            p = PhysicalParams(T=p_for(eps_beta))
            res = partition_exact(p, p.beta)
            assert res.Z == pytest.approx(brute_force_Z(eps_beta), rel=1e-12)
            assert res.method == "exact-series"

    def test_needs_few_terms_at_low_temperature(self):
        p = PhysicalParams()  # eps*beta is about 4.93
        res = partition_exact(p, p.beta)
        assert res.terms_used <= 5
        assert res.Z == pytest.approx(brute_force_Z(p.eps * p.beta), rel=1e-13)

    def test_underflow_guard(self):
        # every weight relative to the ground level underflows: <E> and S need
        # none of them, and Z = e^(-beta eps) reads 0.0; beta eps = inf as well
        cases = ((PhysicalParams(T=1e-3), 1000.0), (PhysicalParams(L=1e-150, d=0.0, T=1e-10), 1e10))
        for p, beta in cases:
            res = partition_exact(p, beta)
            assert (res.Z, res.terms_used, res.est_error) == (0.0, 1, 0.0)
            assert mean_energy(p, beta) == p.eps
            assert thermo_entropy(p, beta) == 0.0

    def test_answers_where_the_direct_series_is_too_long(self):
        # eps beta = 4.9e-12 needs about 2.4 million levels directly; the theta
        # side takes one dual term
        p = PhysicalParams(T=1e12)
        res = partition_exact(p, p.beta)
        x = p.beta * p.eps
        r, e = theta_sums(x)
        with mpmath.workdps(50):
            z, e_mean = mpmath.exp(-x) * (1 + r), p.eps * (1 + e / (1 + r))
            s = mpmath.log1p(r) + x * e / (1 + r)
        assert res.terms_used == 1
        assert res.Z == pytest.approx(float(z), rel=1e-12)
        assert mean_energy(p, p.beta) == pytest.approx(float(e_mean), rel=1e-12)
        assert thermo_entropy(p, p.beta) == pytest.approx(float(s), rel=1e-12)

    def test_refuses_beta_eps_past_the_float_range(self):
        # pi^2/(beta eps) overflows, and k_B T/eps with it
        p = PhysicalParams(L=1e5, T=1e308)
        with pytest.raises(ThermoError, match="too small for floats"):
            partition_exact(p, p.beta)

    @pytest.mark.parametrize("eps_beta", [1e-4, 0.01, 0.5, 0.99, 1.0, math.pi**2 / 2.0, 30.0])
    def test_stops_on_a_certified_tail(self, eps_beta):
        # past terms_used, the 50-digit remainders of both sums lie within the
        # bounds the pass stopped on: est_error for Z, 1e-12 of e for <E>; below
        # eps beta = 1 the terms are the dual ones of the theta transformation
        p = PhysicalParams(T=p_for(eps_beta))
        res = partition_exact(p, p.beta)
        x = p.beta * p.eps
        r, e = box_tails(x, 1)
        tail_r, tail_e = (box_tails if x >= 1.0 else theta_tails)(x, res.terms_used)
        assert 0.0 <= res.est_error <= 1e-12
        # as floats: a remainder below the smallest float is bounded by 0.0
        assert float(tail_r / (1 + r)) <= res.est_error * (1 + 1e-15)
        assert abs(tail_e) <= 1e-12 * e

    def test_takes_at_most_six_terms_at_any_eps_beta(self):
        # O(1) at every temperature: the dual side takes one term below
        # eps beta = 1, the direct side at most 5 at eps beta = 1
        p = PhysicalParams()
        grid = [10.0 ** (i / 20.0) for i in range(-6000, 6001)]
        grid += [1.0 + i / 1000.0 for i in range(10001)]
        for x in grid:
            res = partition_exact(p, x / p.eps)
            assert res.method == "exact-series"
            assert 1 <= res.terms_used <= 6, x
            assert res.est_error <= 1e-12, x

    # levels whose first tail weight e^(-x n(n+2)) does not underflow
    @pytest.mark.parametrize("x, n", [(x, n) for x in (1e-3, 0.1, 0.7, 1.0, 2.0, 5.0)
                                      for n in (1, 2, 3, 5, 10, 50) if x * n * (n + 2) < 700])
    def test_tail_bounds_hold_past_every_level(self, x, n):
        # the e bound needs the ratio (n+1)(n+3)/(n(n+2)): at n = 2 the first
        # ratio of the (m^2 - 1) w_m is 15/8, above ((n+2)/(n+1))^2 = 16/9
        bound_r, bound_e = _tails(x, n)
        tail_r, tail_e = box_tails(x, n)
        assert tail_r <= bound_r * (1 + 1e-15)
        assert tail_e <= bound_e * (1 + 1e-15)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(log_eps_beta=st.floats(math.log(1e-12), math.log(1e4)))
@example(log_eps_beta=math.log(math.pi**2 / 2e100))  # T = 1e100
def test_box_sums_match_50_digit_sums(log_eps_beta):
    p = PhysicalParams(T=p_for(math.exp(log_eps_beta)))
    x = p.beta * p.eps
    # the direct 50-digit sums take about 11/x^(1/2) terms; below x = 1e-3
    # the theta side summed to 50 digits stands in for them
    r, e = box_tails(x, 1) if x >= 1e-3 else theta_sums(x)
    with mpmath.workdps(50):
        z = mpmath.exp(-x) * (1 + r)
        e_mean = p.eps * (1 + e / (1 + r))
        # ln Z + beta<E> without cancelling, as thermo_entropy takes it
        s = mpmath.log1p(r) + x * e / (1 + r)
    # Z underflows past eps beta = 745
    assert partition_exact(p, p.beta).Z == pytest.approx(float(z), rel=2e-12, abs=sys.float_info.min)
    assert mean_energy(p, p.beta) == pytest.approx(float(e_mean), rel=2e-12)
    # S falls below the smallest normal float near eps beta = 236, where no
    # relative precision is left to hold
    assert thermo_entropy(p, p.beta) == pytest.approx(float(s), rel=2e-12, abs=sys.float_info.min)


def p_for(eps_beta: float) -> float:
    # temperature at which eps * beta takes the requested value
    eps = math.pi**2 / 2.0
    return eps / eps_beta


class TestPartitionTheta:
    def test_spot_value(self):
        res = partition_theta(0.8)
        assert res.Z == pytest.approx(1.3760861200577224, abs=1e-15)

    def test_accuracy_band(self):
        for sigma in (0.55, 0.6, 0.7, 0.8, 0.9, 0.94):
            exact = float(sum(sigma ** (n * n) for n in range(1, 200)))
            res = partition_theta(sigma)
            assert abs(res.Z - exact) / exact < 1e-3
            assert res.regime_ok

    def test_flags_outside_regime(self):
        res = partition_theta(0.01)
        assert not res.regime_ok
        # the form is negative there, so no relative error is offered
        assert res.Z < 0.0 and res.est_error == math.inf

    @pytest.mark.parametrize("sigma, match", [(0.5, 3e-6), (0.6, 2e-8)])
    def test_error_estimate_is_the_leading_dual_term(self, sigma, match):
        # against a 40-digit sum, the dual term (pi/x)^(1/2) e^(-pi^2/x)/Z
        # is the true relative deviation to 2.5e-6 at sigma = 0.5, 1.2e-8 at 0.6
        with mpmath.workdps(40):
            s = mpmath.mpf(sigma)
            exact = mpmath.nsum(lambda n: s ** (n * n), [1, mpmath.inf])
            res = partition_theta(sigma)
            actual = float((exact - mpmath.mpf(res.Z)) / exact)
        assert res.est_error == pytest.approx(actual, rel=match)

    def test_error_estimate_is_finite_and_falls_through_the_window(self):
        # regime_ok with est_error = inf, as at sigma >= 0.95 before, would contradict itself
        res = [partition_theta(sigma) for sigma in (0.55, 0.7, 0.8, 0.9, 0.95, 0.99)]
        assert all(r.regime_ok for r in res)
        errs = [r.est_error for r in res]
        assert errs[0] < 3e-7
        assert all(0.0 <= b < a for a, b in zip(errs, errs[1:]) if a > 0.0)
        assert errs[-1] == 0.0  # e^(-pi^2/x) underflows

    def test_agrees_with_the_exact_series_in_its_regime(self):
        # at T = 22, sigma = 0.80: the dual term the form leaves out is 2e-19 of Z
        p = PhysicalParams(T=22.0)
        assert partition_theta(p.sigma).Z == pytest.approx(partition_exact(p, p.beta).Z, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ThermoError):
            partition_theta(1.0)
        with pytest.raises(ThermoError):
            partition_theta(-0.1)


class TestPartitionHighT:
    def test_value_and_error_estimate(self):
        p = PhysicalParams(T=p_for(0.01))
        res = partition_highT(p)
        assert res.Z == pytest.approx(math.sqrt(math.pi / 0.01) / 2.0, rel=1e-14)
        exact = partition_exact(p, p.beta).Z
        actual = abs(res.Z - exact) / exact
        # the deviation estimate should match the measured deviation closely
        assert actual == pytest.approx(res.est_error, rel=1e-6)

    def test_equals_length_over_thermal_wavelength(self):
        p = PhysicalParams(T=p_for(1e-4))
        assert partition_highT(p).Z == pytest.approx(p.L / p.lambda_th, rel=1e-13)

    def test_flags_low_temperature(self):
        # regime_ok is the only signal: the call itself stays silent
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert partition_highT(PhysicalParams()).regime_ok is False

    def test_no_error_estimate_below_half(self):
        # at the default T, Z = 0.399 < 1/2 and 0.5/(Z - 1/2) would be negative
        res = partition_highT(PhysicalParams())
        assert res.Z < 0.5 and res.est_error == math.inf


class TestStageFreeEnergies:
    def test_measurement_jump_is_kT_ln2_exactly(self):
        for T in (0.5, 1.0, 2.0, 100.0):
            fe = stage_free_energies(PhysicalParams(T=T))
            assert fe.measurement_jump == pytest.approx(T * math.log(2.0), rel=1e-14)
            assert fe.A_left - fe.A_tilde == pytest.approx(T * math.log(2.0), rel=1e-14)

    def test_insertion_cost(self):
        p = PhysicalParams(d=0.1)
        fe = stage_free_energies(p)
        assert fe.insertion_cost == pytest.approx(math.log(1.0 / 0.9), rel=1e-12)

    def test_vanishing_barrier_costs_nothing(self):
        fe = stage_free_energies(PhysicalParams(d=0.0))
        assert fe.insertion_cost == 0.0


class TestWorkAndEntropy:
    def test_isothermal_doubling(self):
        assert isothermal_work(0.5, 1.0, 1.0) == pytest.approx(
            0.6931471805599453, rel=1e-12
        )

    def test_work_scales_with_temperature(self):
        assert isothermal_work(1.0, 4.0, 2.0) == pytest.approx(
            2.0 * math.log(4.0), rel=1e-10
        )

    def test_validation(self):
        with pytest.raises(ThermoError):
            isothermal_work(-1.0, 1.0, 1.0)

    def test_isothermal_work_matches_quadrature(self):
        # oracle: integrate p dV = k_B T dV / V numerically
        for T in (0.3, 1.0, 2.0, 25.0):
            p = PhysicalParams(T=T)
            half = (p.L - p.d) / 2.0
            q, _ = quad(lambda v: 1.0 / v, half, 2.0 * half, epsabs=0.0, epsrel=1e-12)
            assert isothermal_work(half, 2.0 * half, T) == pytest.approx(T * q, rel=1e-12)

    def test_mean_energy_against_brute_force(self):
        p = PhysicalParams(T=p_for(0.01))
        ns = np.arange(1, 4000, dtype=float)
        w = np.exp(-0.01 * ns**2)
        expect = p.eps * float(np.sum(ns**2 * w) / np.sum(w))
        assert mean_energy(p, p.beta) == pytest.approx(expect, rel=1e-12)

    def test_entropy_value_in_the_classical_window(self):
        p = PhysicalParams(T=p_for(0.01))
        s = thermo_entropy(p, p.beta)
        assert s == pytest.approx(2.6536260233315176, rel=1e-13)
        # classical-limit form ln(L/lambda) + 1/2 sits within the 1/Z error
        classical = math.log(p.L / p.lambda_th) + 0.5
        assert abs(s - classical) < 0.05

    def test_third_law(self):
        p = PhysicalParams(T=1.0 / 30.0)
        assert thermo_entropy(p, p.beta) < 1e-100

    def test_low_temperature_entropy_does_not_cancel(self):
        # 200-digit values of ln Z + beta<E>; the difference of the two terms
        # in floats reads 0.0 at T = 0.1 and is 2e-10 off at T = 1
        p = PhysicalParams(T=0.1)
        assert thermo_entropy(p, p.beta) == pytest.approx(7.5612524887339e-63, rel=1e-12)
        p = PhysicalParams(T=1.0)
        assert thermo_entropy(p, p.beta) == pytest.approx(5.87903360872982e-6, rel=1e-14)

    def test_spectrum_route_matches_analytic(self):
        # oracle: direct sums over the truncated levels E_n = eps n^2, n <= 50
        p = PhysicalParams(T=20.0)
        e = p.eps * np.arange(1, 51, dtype=float) ** 2
        w = np.exp(-p.beta * (e - e[0]))
        z = float(np.sum(w))
        e_mean = float(np.sum(e * w) / z)
        s = math.log(z) + p.beta * float(np.sum((e - e[0]) * w) / z)
        assert thermo_entropy(p, p.beta) == pytest.approx(s, rel=1e-10)
        assert mean_energy(p, p.beta) == pytest.approx(e_mean, rel=1e-10)


class TestStageLedger:
    def test_A_and_S_follow_from_Z(self):
        led = StageLedger("free", 2.0, 0.5, 1.0)
        assert led.A == pytest.approx(-math.log(2.0), rel=1e-14)
        assert led.S_thermo == pytest.approx(0.5 + math.log(2.0), rel=1e-12)
        hot = StageLedger("inserted", 3.0, 1.5, 2.0, k_B=0.5)
        assert hot.A == pytest.approx(-math.log(3.0), rel=1e-14)
        assert hot.S_thermo == pytest.approx((1.5 + math.log(3.0)) / 2.0, rel=1e-14)

    def test_rejects_unknown_stage(self):
        with pytest.raises(ValueError):
            StageLedger("squeezed", 1.0, 0.5, 1.0)

    def test_rejects_nonpositive_Z_and_T(self):
        with pytest.raises(ValueError, match="Z"):
            StageLedger("free", 0.0, 0.5, 1.0)
        with pytest.raises(ValueError, match="T"):
            StageLedger("free", 2.0, 0.5, -1.0)

    def test_derived_ledger_is_checked(self):
        led = StageLedger("free", 2.0, 0.5, 1.0)
        with pytest.raises(ValueError, match="Z must be positive, got 0"):
            led._replace(Z=0)
        with pytest.raises(ValueError, match="unknown stage 'squeezed'"):
            led._replace(stage="squeezed")
        assert led._replace(Z=3.0) == StageLedger("free", 3.0, 0.5, 1.0)


class TestSpectralStageCheck:
    def test_jump_from_numerical_spectra(self):
        # eps*beta = 0.01 with N = 45 satisfies N^2 eps beta >= 20
        p = PhysicalParams(d=0.02, T=p_for(0.01))
        grid = barrier_grid(p, 4096)
        chk = spectral_stage_check(p, n_levels=90, grid=grid)
        kt_ln2 = p.k_B * p.T * math.log(2.0)
        assert chk.jump_closed == pytest.approx(kt_ln2, rel=1e-12)
        assert abs(chk.jump_spectral - kt_ln2) / kt_ln2 < 0.01
        assert chk.pairs_used >= 10

    def test_needs_doublets_below_barrier(self):
        p = PhysicalParams(U=10.0, T=p_for(0.01))
        with pytest.raises(ThermoError):
            spectral_stage_check(p, n_levels=8, grid=barrier_grid(p, 1024))

    def test_needs_a_barrier(self):
        p = PhysicalParams(d=0.0)
        with pytest.raises(SpectralError, match="needs a barrier"):
            spectral_stage_check(p, n_levels=8, grid=barrier_grid(p, 1024))


EPS = PhysicalParams().eps


class TestDoubletWeights:
    @pytest.mark.parametrize("params, n_side", [
        # the benchmark's temperature ladder, T = N^2 eps / 25
        *((PhysicalParams(T=n * n * EPS / 25.0), n) for n in (11, 45, 90, 140, 200)),
        (PhysicalParams(T=1.0), 45),
        (PhysicalParams(T=1e-9), 45),
        (PhysicalParams(T=25.0, d=0.02), 100),
        (PhysicalParams(T=1e6), 20000),
    ])
    def test_match_50_digit_oracle(self, params, n_side):
        # the rounding grows with the exponent beta (E_k - delta_k - min), so
        # each weight is held to 1e-15 of itself on that scale; one the oracle
        # puts below 1e-290 need only come out below 1e-280
        pairs = analytic_pairs(params, n_side)
        beta, low = params.beta, min(e - d for e, d in pairs)
        got, want = _doublet_weights(pairs, beta, True), doublet_weights(pairs, beta)
        for name, values, exact in zip(("c", "s"), got, want):
            for k, ((e, d), f, f_star) in enumerate(zip(pairs, values, exact)):
                if f_star < 1e-290:
                    assert f < 1e-280, (name, k)
                else:
                    bound = 1e-15 * (1.0 + beta * (e - d - low)) * f_star
                    assert abs(f - f_star) <= bound, (name, k, f, float(f_star))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(log_beta=st.floats(-12.0, 6.0), n=st.integers(1, 20000), seed=st.integers(0, 2**32 - 1),
           coherences=st.booleans())
    @example(log_beta=6.0, n=20000, seed=0, coherences=True)
    @example(log_beta=-12.0, n=20000, seed=1, coherences=True)
    def test_every_block_is_a_state(self, log_beta, n, seed, coherences):
        # what the DensityMatrix gate would check of the gas state, which skips
        # it: each block [[c, s], [s, c]] has c_k >= |s_k| >= 0 exactly, and
        # the blocks' total trace 2 sum c_k is 1; E_k = +inf rows (but the
        # first) are of no weight, and a delta_k of 0 is an unsplit doublet
        rng = np.random.default_rng(seed)
        e = 10.0 ** rng.uniform(-3.0, 6.0, n)
        e[1:][rng.random(n - 1) < 0.1] = math.inf
        d = np.where(rng.random(n) < 0.1, 0.0, 10.0 ** rng.uniform(-300.0, 3.0, n))
        c, s = _doublet_weights(list(zip(e.tolist(), d.tolist())), 10.0**log_beta, coherences)
        assert all(ck >= abs(sk) >= 0.0 for ck, sk in zip(c, s))
        assert abs(2.0 * math.fsum(c) - 1.0) <= TRACE_TOL

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from szilard.exceptions import SpectralError, ThermoError
from szilard.spectral import PhysicalParams, barrier_grid
from szilard.thermo import (
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
        with pytest.raises(ThermoError):
            partition_exact(PhysicalParams(T=1e-3), 1000.0)


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

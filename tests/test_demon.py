import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from szilard.demon import (
    DemonModel,
    EnvironmentLedger,
    coupling_unitary,
    premeasure,
    product_of_marginals,
    reset_demon,
    reverse_readoff,
)
from szilard.exceptions import StateError
from szilard.infodyn import (
    DensityMatrix,
    mutual_information,
    partial_trace,
    post_insertion_dm,
    product_dm,
    trace_distance,
    vn_entropy,
)
from szilard.spectral import PhysicalParams, analytic_pairs

LN2 = math.log(2.0)


def ready_state(gas: DensityMatrix, model: DemonModel) -> DensityMatrix:
    return product_dm(gas, DensityMatrix(np.outer(model.d0, model.d0)))


def dense_ready_state(pairs, beta: float, coherences: bool, model: DemonModel) -> DensityMatrix:
    """Oracle: rho_gas (x) D_0 as one dense block in the layout (L_1..L_N, R_1..R_N) (x) (D_L, D_R)."""
    n = len(pairs)
    e0 = min(e for e, _ in pairs)
    m = np.zeros((2 * n, 2 * n))
    for k, (e, d) in enumerate(pairs):
        w = math.exp(-beta * (e - e0))
        m[k, k] = m[n + k, n + k] = w * math.cosh(beta * d)
        if coherences:
            m[k, n + k] = m[n + k, k] = w * math.sinh(beta * d)
    m /= np.trace(m)
    return DensityMatrix(np.kron(m, np.outer(model.d0, model.d0)), subsystem_dims=(2 * n, 2))


def readoff_figures(rec) -> np.ndarray:
    """The measure command's readoff numbers plus the marginal-product reversal distance."""
    pom = product_of_marginals(rec.post)
    return np.array([
        rec.ds_demon,
        rec.ds_gas,
        rec.ds_joint,
        rec.di_mu,
        trace_distance(partial_trace(rec.pre, "gas"), partial_trace(rec.post, "gas")),
        trace_distance(rec.post, pom),
        reverse_readoff(rec, pom).distance,
    ])


def coupling_hamiltonian(model: DemonModel, gas_dim: int) -> np.ndarray:
    """H = -delta (Pi_L - Pi_R) (x) sigma_y, Hermitian on gas (x) demon."""
    n = gas_dim // 2
    p = np.diag(np.concatenate([np.ones(n), -np.ones(n)]))
    sigma_y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    return -model.delta * np.kron(p, sigma_y)


@pytest.fixture(scope="module")
def model():
    return DemonModel()


@pytest.fixture(scope="module")
def box_record(model):
    # moderate splitting so the coherence correction is visible but small
    p = PhysicalParams(T=25.0, d=0.02)
    gas = post_insertion_dm(analytic_pairs(p, 11), p.beta)
    return premeasure(ready_state(gas, model), model)


class TestApparatus:
    def test_rotation_angle_is_locked(self):
        for delta, hbar in [(1.0, 1.0), (0.25, 1.0), (3.0, 7.0)]:
            m = DemonModel(delta=delta, hbar=hbar)
            assert m.dt * m.delta / m.hbar == pytest.approx(math.pi / 4.0, rel=1e-15)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            DemonModel(delta=0.0)
        with pytest.raises(ValueError):
            DemonModel(hbar=-1.0)

    def test_pointer_states(self, model):
        assert np.dot(model.d_left, model.d_right) == 0.0
        assert np.dot(model.d0, model.d0) == pytest.approx(1.0, rel=1e-15)
        assert np.allclose(model.d0, (model.d_left + model.d_right) / math.sqrt(2.0))


class TestCouplingUnitary:
    def test_is_exact_exponential_of_coupling(self, model):
        # oracle: the closed form equals expm of the coupling Hamiltonian
        for dim in (2, 6):
            h = coupling_hamiltonian(model, dim)
            assert np.allclose(h, h.conj().T)
            u = coupling_unitary(model, dim)
            u_exp = expm(-1j * h * model.dt / model.hbar)
            assert np.max(np.abs(u - u_exp)) < 1e-14
            assert np.max(np.abs(u.imag)) == 0.0

    def test_unitarity(self, model):
        u = coupling_unitary(model, 8)
        assert np.max(np.abs(u.T @ u - np.eye(16))) < 1e-14

    def test_steers_pointer_by_side(self, model):
        u = coupling_unitary(model, 2)
        left = np.kron([1.0, 0.0], model.d0)
        right = np.kron([0.0, 1.0], model.d0)
        assert np.allclose(u @ left, np.kron([1.0, 0.0], model.d_left), atol=1e-15)
        assert np.allclose(u @ right, np.kron([0.0, 1.0], model.d_right), atol=1e-15)

    def test_not_an_involution(self, model):
        u = coupling_unitary(model, 2)
        assert np.max(np.abs(u @ u - np.eye(4))) > 0.5

    def test_rejects_odd_gas_dimension(self, model):
        with pytest.raises(ValueError):
            coupling_unitary(model, 3)
        with pytest.raises(ValueError):
            coupling_unitary(model, 0)


class TestPremeasure:
    def test_rejects_untagged_state(self, model):
        gas = post_insertion_dm([(0.0, 0.01)], 1.0)
        joint = DensityMatrix(np.kron(gas.entries, np.outer(model.d0, model.d0)))
        with pytest.raises(StateError, match="subsystem_dims"):
            premeasure(joint, model)

    def test_rejects_wrong_ready_pointer(self, model):
        gas = post_insertion_dm([(0.0, 0.01)], 1.0)
        wrong = product_dm(gas, DensityMatrix(np.outer(model.d_left, model.d_left)))
        with pytest.raises(StateError, match="ready state"):
            premeasure(wrong, model)

    def test_rejects_correlated_input(self, model):
        rho_l = np.diag([1.0, 0.0])
        rho_r = np.diag([0.0, 1.0])
        dl = np.outer(model.d_left, model.d_left)
        dr = np.outer(model.d_right, model.d_right)
        tangled = DensityMatrix(
            0.5 * (np.kron(rho_l, dl) + np.kron(rho_r, dr)), subsystem_dims=(2, 2)
        )
        with pytest.raises(StateError, match="ready state|product"):
            premeasure(tangled, model)

    def test_rejects_non_product_with_ready_marginal(self, model):
        # demon marginal within 1e-10 of D_0 and PSD within PSD_TOL, but the
        # pointer coherence B ties it to the gas: only the product check sees it
        g = post_insertion_dm([(0.0, 0.01)], 1.0).entries[0]
        d1 = (model.d_left - model.d_right) / math.sqrt(2.0)
        c = 1e-11
        b = 3e-6 * np.diag([1.0, -1.0])
        rho = (
            (1.0 - c) * np.kron(g, np.outer(model.d0, model.d0))
            + c * np.kron(np.eye(2) / 2.0, np.outer(d1, d1))
            + np.kron(b, np.outer(model.d0, d1))
            + np.kron(b.T, np.outer(d1, model.d0))
        )
        joint = DensityMatrix(rho, subsystem_dims=(2, 2))
        assert np.max(np.abs(partial_trace(joint, "demon").entries - model.ready.entries)) < 1e-10
        with pytest.raises(StateError, match="not a gas \\(x\\) D_0 product"):
            premeasure(joint, model)

    def test_ideal_readoff_moves_exactly_ln2(self, model):
        p = PhysicalParams(T=25.0, d=0.02)
        gas = post_insertion_dm(analytic_pairs(p, 11), p.beta, coherences=False)
        rec = premeasure(ready_state(gas, model), model)
        assert rec.ds_demon == pytest.approx(LN2, abs=1e-12)
        assert rec.ds_gas == pytest.approx(0.0, abs=1e-12)
        assert rec.di_mu == pytest.approx(LN2, abs=1e-12)
        assert abs(rec.ds_joint) < 1e-10
        assert rec.balance_residual < 1e-10

    def test_pointer_entropy_ignores_gas_coherences(self, box_record):
        # off-diagonal gas terms cannot reach the pointer marginal, so the
        # demon side gains ln 2 even when the gas state is not diagonal
        assert box_record.ds_demon == pytest.approx(LN2, abs=1e-13)
        dem = partial_trace(box_record.post, "demon").entries
        assert np.allclose(dem, np.eye(2) / 2.0, atol=1e-14)

    def test_coherences_cost_extra_information(self, box_record):
        assert box_record.ds_gas > 0.0
        assert box_record.di_mu == pytest.approx(LN2 + box_record.ds_gas, abs=1e-12)
        assert box_record.balance_residual < 1e-10
        assert abs(box_record.ds_joint) < 1e-10

    @settings(max_examples=20, deadline=None)
    @given(
        T=st.floats(0.5, 200.0),
        n_side=st.integers(11, 45),
        d=st.floats(0.01, 0.2),
        coherences=st.booleans(),
    )
    def test_di_mu_matches_mutual_information_oracle(self, T, n_side, d, coherences):
        model = DemonModel()
        p = PhysicalParams(T=T, d=d)
        gas = post_insertion_dm(analytic_pairs(p, n_side), p.beta, coherences=coherences)
        rec = premeasure(ready_state(gas, model), model)
        assert rec.di_mu == mutual_information(rec.post) - mutual_information(rec.pre)
        assert rec.balance_residual <= 1e-10

    @settings(max_examples=20, deadline=None)
    @given(
        T=st.floats(0.5, 200.0),
        n_side=st.integers(11, 45),
        d=st.floats(0.01, 0.2),
        coherences=st.booleans(),
    )
    def test_blocks_match_dense_layout_oracle(self, T, n_side, d, coherences):
        model = DemonModel()
        p = PhysicalParams(T=T, d=d)
        pairs = analytic_pairs(p, n_side)
        gas = post_insertion_dm(pairs, p.beta, coherences=coherences)
        block = premeasure(ready_state(gas, model), model)
        dense = premeasure(dense_ready_state(pairs, p.beta, coherences, model), model)
        assert block.post.entries.shape == (n_side, 4, 4)
        assert dense.post.entries.shape == (1, 4 * n_side, 4 * n_side)
        diff = readoff_figures(block) - readoff_figures(dense)
        assert np.max(np.abs(diff)) <= 1e-12

    def test_readoff_eigensolves_stay_block_sized(self, model, monkeypatch):
        widths = []
        eigvalsh = np.linalg.eigvalsh

        def recording(a):
            widths.append(a.shape[-1])
            return eigvalsh(a)

        p = PhysicalParams(T=25.0, d=0.02)
        gas = post_insertion_dm(analytic_pairs(p, 45), p.beta)
        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        rec = premeasure(ready_state(gas, model), model)
        reverse_readoff(rec, product_of_marginals(rec.post))
        assert widths and max(widths) <= 4

    def test_information_overhead_is_quadratic_in_splitting(self, model):
        # single doublet at beta*delta = x: dI - ln 2 -> x^2/2 as x -> 0
        for x in (1e-2, 1e-3):
            gas = post_insertion_dm([(0.0, x)], 1.0)
            rec = premeasure(ready_state(gas, model), model)
            assert rec.di_mu - LN2 == pytest.approx(0.5 * x * x, rel=1e-3)


class TestReverseReadoff:
    def test_round_trip_restores_pre_state(self, box_record):
        res = reverse_readoff(box_record)
        assert res.recovered
        assert res.distance < 1e-13
        assert mutual_information(res.state) == pytest.approx(0.0, abs=1e-12)

    def test_lost_record_blocks_recovery(self, box_record):
        forgot = product_of_marginals(box_record.post)
        res = reverse_readoff(box_record, forgot)
        assert not res.recovered
        assert res.distance == pytest.approx(0.5, abs=1e-12)

    def test_dimension_mismatch(self, box_record, model):
        small = ready_state(post_insertion_dm([(0.0, 0.01)], 1.0), model)
        with pytest.raises(StateError, match="mismatch"):
            reverse_readoff(box_record, small)
        # same total dimension, other block layout
        dense = DensityMatrix(np.eye(44) / 44.0, subsystem_dims=(22, 2))
        with pytest.raises(StateError, match="mismatch"):
            reverse_readoff(box_record, dense)


class TestProductOfMarginals:
    def test_erases_exactly_the_correlations(self, box_record):
        pom = product_of_marginals(box_record.post)
        assert mutual_information(pom) == pytest.approx(0.0, abs=1e-12)
        assert trace_distance(pom, box_record.post) == pytest.approx(0.5, abs=1e-12)
        for side in ("gas", "demon"):
            assert np.allclose(
                partial_trace(pom, side).entries,
                partial_trace(box_record.post, side).entries,
                atol=1e-14,
            )

    def test_fixed_point_on_products(self, box_record):
        pre = box_record.pre
        assert trace_distance(product_of_marginals(pre), pre) < 1e-12

    def test_needs_declared_split(self):
        bare = DensityMatrix(np.eye(4) / 4.0)
        with pytest.raises(StateError):
            product_of_marginals(bare)


class TestResetDemon:
    def test_standard_mixture_costs_ln2(self):
        ledger = EnvironmentLedger()
        mixed = DensityMatrix(np.eye(2) / 2.0)
        fresh, charge = reset_demon(mixed, ledger, T=1.0)
        assert charge.entropy == pytest.approx(LN2, rel=1e-12)
        assert charge.free_energy == pytest.approx(LN2, rel=1e-12)
        assert vn_entropy(fresh) == pytest.approx(0.0, abs=1e-12)
        d0 = np.array([1.0, 1.0]) / math.sqrt(2.0)
        assert np.allclose(fresh.entries, np.outer(d0, d0))

    def test_pure_pointer_resets_for_free(self):
        ledger = EnvironmentLedger()
        pure = DensityMatrix(np.diag([1.0, 0.0]))
        _, charge = reset_demon(pure, ledger)
        assert charge.entropy == 0.0
        assert charge.free_energy == 0.0

    def test_biased_pointer_and_temperature_scaling(self):
        ledger = EnvironmentLedger()
        biased = DensityMatrix(np.diag([0.9, 0.1]))
        h = -(0.9 * math.log(0.9) + 0.1 * math.log(0.1))
        _, charge = reset_demon(biased, ledger, T=2.0)
        assert charge.entropy == pytest.approx(h, rel=1e-14)
        assert charge.entropy == pytest.approx(0.3250829733914482, rel=1e-14)
        assert charge.free_energy == pytest.approx(2.0 * h, rel=1e-14)

    def test_ledger_accumulates(self):
        ledger = EnvironmentLedger()
        mixed = DensityMatrix(np.eye(2) / 2.0)
        reset_demon(mixed, ledger)
        reset_demon(mixed, ledger, T=3.0)
        assert ledger.entropy == pytest.approx(2.0 * LN2, rel=1e-12)
        assert ledger.free_energy == pytest.approx(4.0 * LN2, rel=1e-12)

    def test_rejects_bad_inputs(self):
        ledger = EnvironmentLedger()
        with pytest.raises(StateError):
            reset_demon(DensityMatrix(np.eye(4) / 4.0), ledger)
        with pytest.raises(ValueError):
            reset_demon(DensityMatrix(np.eye(2) / 2.0), ledger, T=0.0)

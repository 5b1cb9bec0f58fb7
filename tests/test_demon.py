import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from szilard.demon import (
    RECOVERY_TOL,
    DemonModel,
    ReversalResult,
    _ledger,
    coupling_unitary,
    premeasure,
    product_of_marginals,
    reverse_readoff,
)
from szilard.engine import CycleConfig, readoff, run_cycle
from szilard.exceptions import StateError
from szilard.infodyn import (
    DensityMatrix,
    partial_trace,
    post_insertion_dm,
    product_dm,
    trace_distance,
)
from szilard.spectral import PhysicalParams, analytic_pairs

from oracles import (
    coupling_unitary as dense_unitary,
    dense_readoff,
    dephasing_entropy,
    doublet_weights,
    entropy,
    ledger_terms,
    mutual_information,
    reversal_distance,
    reversed_state,
)

LN2 = math.log(2.0)
# the pointer basis
D_L = np.array([1.0, 0.0])
D_R = np.array([0.0, 1.0])


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


def readoff_figures(rec, reversal) -> np.ndarray:
    """The measure command's readoff numbers plus the marginal-product reversal
    distance, reversal(rec, state)."""
    pom = product_of_marginals(rec.post)
    return np.array([
        rec.ds_demon,
        rec.ds_gas,
        rec.ds_joint,
        rec.di_mu,
        trace_distance(partial_trace(rec.pre, "gas"), partial_trace(rec.post, "gas")),
        trace_distance(rec.post, pom),
        reversal(rec, pom),
    ])


def coupling_hamiltonian() -> np.ndarray:
    """H = -(Pi_L - Pi_R) (x) sigma_y at delta = 1, Hermitian on one gas (x) demon block."""
    sigma_y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    return -np.kron(np.diag([1.0, -1.0]), sigma_y)


def two_doublets(x: float, model: DemonModel) -> DensityMatrix:
    """Two equal-weight doublets at beta delta = x, coupled to the ready pointer."""
    return ready_state(post_insertion_dm([(0.0, x), (0.0, x)], 1.0), model)


TINY = 5e-324  # the least subnormal
# diagonals: zero, a few subnormal steps (whose half-gaps round to 0), tiny, and any in [0, 1]
DIAGONAL = st.sampled_from([0.0, 3 * TINY, 1e-310]) | st.floats(0.0, 1.0)
COHERENCE = st.sampled_from([0.0, -0.0, TINY, math.nan]) | st.floats(0.0, 1.0)


@st.composite
def gas_diagonals(draw):
    """Blocks (a, d, c) with equal diagonals, diagonals a subnormal apart,
    unrelated ones and weightless ones, each with any coherence."""
    a, d, c = [], [], []
    for _ in range(draw(st.integers(1, 8))):
        x = draw(DIAGONAL)
        a.append(x)
        d.append(draw(st.sampled_from([x, x + TINY, 0.0]) | DIAGONAL))
        c.append(draw(COHERENCE))
    return a, d, c


def same_float(u: float, v: float) -> bool:
    """u and v are the same float: equal with the same sign, or both NaN."""
    if math.isnan(u) or math.isnan(v):
        return math.isnan(u) and math.isnan(v)
    return u == v and math.copysign(1.0, u) == math.copysign(1.0, v)


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
    def test_pointer_states(self, model):
        assert np.dot(model.d0, model.d0) == pytest.approx(1.0, rel=1e-15)
        assert np.allclose(model.d0, (D_L + D_R) / math.sqrt(2.0))

    def test_ready_state_is_one_read_only_outer_product(self, model):
        ready = model.ready
        assert ready is DemonModel().ready
        # (1/sqrt 2)^2 rounds to 0.4999999999999999, not 0.5
        assert np.array_equal(ready.entries[0], np.outer(model.d0, model.d0))
        with pytest.raises(ValueError):
            ready.entries[0, 0, 0] = 0.5


class TestCouplingUnitary:
    def test_is_exact_exponential_of_coupling(self):
        # oracle: the closed form equals expm(-i H dt / hbar) at delta = hbar = 1,
        # where dt = pi hbar / (4 delta) is pi/4
        h = coupling_hamiltonian()
        assert np.allclose(h, h.conj().T)
        u = coupling_unitary()
        u_exp = expm(-1j * h * math.pi / 4.0)
        assert np.max(np.abs(u - u_exp)) < 1e-14
        assert np.max(np.abs(u.imag)) == 0.0
        # the dense oracle is the same closed form at one doublet
        assert np.array_equal(u, dense_unitary(2))

    def test_unitarity(self):
        u = coupling_unitary()
        assert np.max(np.abs(u.T @ u - np.eye(4))) < 1e-15

    def test_steers_pointer_by_side(self, model):
        u = coupling_unitary()
        left = np.kron([1.0, 0.0], model.d0)
        right = np.kron([0.0, 1.0], model.d0)
        assert np.allclose(u @ left, np.kron([1.0, 0.0], D_L), atol=1e-15)
        assert np.allclose(u @ right, np.kron([0.0, 1.0], D_R), atol=1e-15)

    def test_not_an_involution(self):
        u = coupling_unitary()
        assert np.max(np.abs(u @ u - np.eye(4))) > 0.5

    def test_built_once_and_read_only(self):
        u = coupling_unitary()
        assert u is coupling_unitary()
        assert u.shape == (4, 4)
        with pytest.raises(ValueError):
            u[0, 0] = 0.0


class TestPremeasure:
    def test_rejects_untagged_state(self, model):
        gas = post_insertion_dm([(0.0, 0.01)], 1.0)
        joint = DensityMatrix(np.kron(gas.entries, np.outer(model.d0, model.d0)))
        with pytest.raises(StateError, match="subsystem_dims"):
            premeasure(joint, model)

    def test_rejects_dense_layout(self, model):
        # one (2N, 2N) gas block is no longer a readoff input; oracles.dense_readoff takes it
        pairs = [(0.0, 0.01), (3.0, 0.001)]
        dense = dense_ready_state(pairs, 1.0, True, model)
        assert dense.subsystem_dims == (4, 2)
        with pytest.raises(StateError, match=r"subsystem_dims \(2, 2\).*\(4, 2\)"):
            premeasure(dense, model)
        assert dense_readoff(dense).ds_demon == pytest.approx(LN2, abs=1e-12)

    def test_rejects_wrong_ready_pointer(self, model):
        gas = post_insertion_dm([(0.0, 0.01)], 1.0)
        wrong = product_dm(gas, DensityMatrix(np.outer(D_L, D_L)))
        with pytest.raises(StateError, match="ready state"):
            premeasure(wrong, model)

    def test_rejects_correlated_input(self, model):
        rho_l = np.diag([1.0, 0.0])
        rho_r = np.diag([0.0, 1.0])
        dl = np.outer(D_L, D_L)
        dr = np.outer(D_R, D_R)
        tangled = DensityMatrix(
            0.5 * (np.kron(rho_l, dl) + np.kron(rho_r, dr)), subsystem_dims=(2, 2)
        )
        with pytest.raises(StateError, match="ready state|product"):
            premeasure(tangled, model)

    def test_rejects_non_product_with_ready_marginal(self, model):
        # demon marginal within 1e-10 of D_0 and PSD within PSD_TOL, but the
        # pointer coherence B ties it to the gas: only the product check sees it
        g = post_insertion_dm([(0.0, 0.01)], 1.0).entries[0]
        d1 = (D_L - D_R) / math.sqrt(2.0)
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
        assert rec.ds_joint == 0.0
        assert rec.balance_residual == 0.0

    def test_pointer_entropy_ignores_gas_coherences(self, box_record):
        # off-diagonal gas terms cannot reach the pointer marginal, so the
        # demon side gains ln 2 even when the gas state is not diagonal
        assert box_record.ds_demon == pytest.approx(LN2, abs=1e-13)
        dem = partial_trace(box_record.post, "demon").entries
        assert np.allclose(dem, np.eye(2) / 2.0, atol=1e-14)

    def test_coherences_cost_extra_information(self, box_record):
        assert box_record.ds_gas > 0.0
        assert box_record.di_mu == pytest.approx(LN2 + box_record.ds_gas, abs=1e-12)
        assert box_record.balance_residual == 0.0
        assert box_record.ds_joint == 0.0

    @settings(max_examples=20, deadline=None, derandomize=True)
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
        oracle = mutual_information(rec.post) - mutual_information(rec.pre)
        assert rec.di_mu == pytest.approx(oracle, abs=1e-12)

    @settings(max_examples=20, deadline=None, derandomize=True)
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
        dense = dense_readoff(dense_ready_state(pairs, p.beta, coherences, model))
        assert block.post.entries.shape == (n_side, 4, 4)
        assert dense.post.entries.shape == (1, 4 * n_side, 4 * n_side)
        diff = readoff_figures(block, lambda r, s: reverse_readoff(r, s).distance) - readoff_figures(
            dense, reversal_distance)
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

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(k=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_general_gas_blocks_match_entropy_difference_oracle(self, k, seed):
        # PSD 2x2 gas blocks with unequal diagonals and complex coherences,
        # about a third of them diagonal, against six LAPACK entropies
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(k, 2, 2)) + 1j * rng.normal(size=(k, 2, 2))
        blocks = a @ a.conj().transpose(0, 2, 1)
        blocks[rng.integers(0, 3, size=k) == 0, [[0], [1]], [[1], [0]]] = 0.0
        blocks /= np.trace(blocks, axis1=1, axis2=2).real.sum()
        model = DemonModel()
        p0 = ready_state(DensityMatrix(blocks), model)
        rec, oracle = premeasure(p0, model), dense_readoff(p0)
        figures = ("ds_demon", "ds_gas", "ds_joint", "di_mu")
        diff = [getattr(rec, f) - getattr(oracle, f) for f in figures]
        assert np.max(np.abs(diff)) <= 1e-12
        assert rec.ds_gas >= 0.0

    # the hot-ladder rungs N^2 eps beta = 25, and the default T = 1 at N = 45
    @pytest.mark.parametrize("n_side, rung", [(n, True) for n in (11, 45, 90, 140, 200)] + [(45, False)])
    def test_ds_gas_matches_50_digit_oracle(self, model, n_side, rung):
        p = PhysicalParams()
        p = PhysicalParams(T=n_side * n_side * p.eps / 25.0) if rung else p
        gas = post_insertion_dm(analytic_pairs(p, n_side), p.beta)
        exact = float(dephasing_entropy(gas.entries))
        # the cycle's float route, and premeasure on the built state
        assert readoff(CycleConfig(params=p, n_side=n_side)).ds_gas == pytest.approx(exact, rel=1e-14)
        rec = premeasure(ready_state(gas, model), model)
        assert rec.ds_gas == pytest.approx(exact, rel=1e-14)

    # tanh(beta delta_1) = 1 - 2.1e-6 and 1 - 1.2e-5: in the atanh form the
    # logarithms of 1 - u cancel and kept only 11 digits (5.4e-12 off at the first)
    @pytest.mark.parametrize("T, d, U, n_side", [(0.5, 0.125, 50.0, 2), (0.5, 0.2, 60.0, 3)])
    def test_ds_gas_keeps_its_digits_near_saturation(self, model, T, d, U, n_side):
        p = PhysicalParams(T=T, d=d, U=U)
        gas = post_insertion_dm(analytic_pairs(p, n_side), p.beta)
        exact = float(dephasing_entropy(gas.entries))
        assert readoff(CycleConfig(params=p, n_side=n_side)).ds_gas == pytest.approx(exact, rel=1e-14)
        assert premeasure(ready_state(gas, model), model).ds_gas == pytest.approx(exact, rel=1e-14)

    # t = tanh(beta delta): dS_gas = t^2/2 per unit weight as t -> 0, and ln 2
    # once t rounds to 1 (beta delta >~ 19)
    @pytest.mark.parametrize("x, limit", [(1e-9, 5e-19), (1e-4, None), (0.3, None), (3.0, None),
                                          (7.0, None), (19.0, None), (50.0, LN2)])
    def test_ds_gas_of_two_doublets(self, model, x, limit):
        p0 = two_doublets(x, model)
        rec = premeasure(p0, model)
        exact = float(dephasing_entropy(partial_trace(p0, "gas").entries))
        assert rec.ds_gas == pytest.approx(exact, rel=1e-14)
        assert rec.ds_gas > 0.0
        if limit is not None:
            assert exact == pytest.approx(limit, rel=1e-14)

    def test_information_overhead_is_quadratic_in_splitting(self, model):
        # single doublet at beta*delta = x: dI - ln 2 -> x^2/2 as x -> 0
        for x in (1e-2, 1e-3):
            gas = post_insertion_dm([(0.0, x)], 1.0)
            rec = premeasure(ready_state(gas, model), model)
            assert rec.di_mu - LN2 == pytest.approx(0.5 * x * x, rel=1e-3)


    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(blocks=gas_diagonals())
    def test_skipping_zero_blocks_is_bit_exact(self, blocks):
        # a coherence-free block's +0.0 cannot move the correctly
        # rounded fsum, so leaving it out, and summing one list once when it
        # is both diagonals, keeps all five figures to the last bit
        a, d, c = blocks
        for diag, other in ((d, d), (a, list(a)), (list(a), a)):
            if not math.fsum(a) + math.fsum(diag) > 0.0:
                continue  # no weight: both routes divide by 0
            figures, oracle = _ledger(a, diag, c, None), ledger_terms(a, other, c)
            assert [same_float(u, v) for u, v in zip(figures, oracle)] == [True] * 5


class TestReverseReadoff:
    def test_own_post_is_recovered_without_a_state(self, box_record, monkeypatch):
        # the record's own post reverses to its pre state by construction: no
        # eigensolve, and a record that has not built its states builds none
        calls = []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape))

        def unbuilt():
            raise AssertionError("reverse_readoff built the record's states")

        for rec in (box_record, box_record._replace(build_pre=unbuilt)):
            assert reverse_readoff(rec) == ReversalResult(recovered=True, distance=0.0)
        assert calls == []

    def test_round_trip_restores_pre_state(self, box_record):
        res = reverse_readoff(box_record)
        assert res.recovered
        assert res.distance < 1e-13
        back = reversed_state(box_record, box_record.post)
        assert mutual_information(back) == pytest.approx(0.0, abs=1e-12)

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

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        T=st.floats(0.5, 200.0),
        n_side=st.integers(11, 45),
        d=st.floats(0.01, 0.2),
        coherences=st.booleans(),
    )
    def test_distance_matches_built_reversal_oracle(self, T, n_side, d, coherences):
        # the distance of state from post equals that of U^T state U from pre
        model = DemonModel()
        p = PhysicalParams(T=T, d=d)
        pairs = analytic_pairs(p, n_side)
        rec, other = (
            premeasure(ready_state(post_insertion_dm(pairs, p.beta, coherences=c), model), model)
            for c in (coherences, not coherences)
        )
        for target in (rec.post, product_of_marginals(rec.post), other.post):
            res = reverse_readoff(rec, target)
            oracle = reversal_distance(rec, target)
            assert res.distance == pytest.approx(oracle, abs=1e-13)
            assert res.recovered == (oracle <= RECOVERY_TOL)


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

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(log_t=st.floats(-3.0, 1.0), d=st.floats(0.01, 0.1), extra=st.integers(0, 10))
    @example(log_t=-9.0, d=0.05, extra=0)  # all weight in the ground doublet: 3/4
    @example(log_t=0.0, d=0.05, extra=0)  # beta delta_1 = 0.047: 1/2
    def test_distance_from_post_has_closed_form(self, log_t, d, extra):
        # 1/2 + 1/2 sum_k c_k max(0, 2 tanh(beta delta_k) - 1): 1/2 only while
        # every weighted doublet has tanh(beta delta_k) <= 1/2
        p = PhysicalParams(T=10.0**log_t, d=d)
        n = math.ceil(math.sqrt(20.0 / (p.eps * p.beta)))
        n += (n * n * p.eps * p.beta < 20.0) + extra
        rec = readoff(CycleConfig(params=p, n_side=n))
        pairs = analytic_pairs(p, n)
        c, _ = doublet_weights(pairs, p.beta)
        form = 0.5 + 0.5 * sum(float(ck) * max(0.0, 2.0 * math.tanh(p.beta * dk) - 1.0)
                               for ck, (_, dk) in zip(c, pairs))
        distance = trace_distance(rec.post, product_of_marginals(rec.post))
        assert distance == pytest.approx(form, abs=1e-12)

    def test_fixed_point_on_products(self, box_record):
        pre = box_record.pre
        assert trace_distance(product_of_marginals(pre), pre) < 1e-12

    def test_needs_declared_split(self):
        bare = DensityMatrix(np.eye(4) / 4.0)
        with pytest.raises(StateError):
            product_of_marginals(bare)

    def test_reversal_validates_no_state_and_calls_lapack_once(self, box_record, monkeypatch):
        built, shapes = [], []
        init, eigvalsh = DensityMatrix.__post_init__, np.linalg.eigvalsh

        def counting(self):
            built.append(self)
            init(self)

        def recording(a):
            shapes.append(a.shape)
            return eigvalsh(a)

        monkeypatch.setattr(DensityMatrix, "__post_init__", counting)
        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        res = reverse_readoff(box_record, product_of_marginals(box_record.post))
        # the marginals and their product are derived from the post state, so
        # none is validated; no reversed state is built, and LAPACK takes only
        # the trace distance's 4x4 blocks
        assert built == []
        assert shapes == [(11, 4, 4)]
        assert res.distance == pytest.approx(0.5, abs=1e-12)


class TestResetDemon:
    """The reset's charge on its production route: the pointer entropy
    ds_demon that premeasure books, which run_cycle charges as k_B ds_demon
    to the environment and k_B T ds_demon of free energy."""

    @staticmethod
    def pointer_entropy(populations, model) -> float:
        gas = DensityMatrix(np.diag(populations))
        return premeasure(ready_state(gas, model), model).ds_demon

    def test_standard_mixture_costs_ln2(self, model):
        assert self.pointer_entropy([0.5, 0.5], model) == pytest.approx(LN2, rel=1e-15)
        report = run_cycle(CycleConfig())
        assert report.S_to_environment == pytest.approx(LN2, rel=1e-12)
        assert report.W_extracted - report.net_balance == pytest.approx(LN2, rel=1e-12)

    def test_pure_pointer_resets_for_free(self, model):
        # a gas wholly on L drives D_0 to D_L: nothing is left to erase
        assert self.pointer_entropy([1.0, 0.0], model) == 0.0

    def test_biased_pointer_and_temperature_scaling(self, model):
        h = -(0.9 * math.log(0.9) + 0.1 * math.log(0.1))
        rec = premeasure(ready_state(DensityMatrix(np.diag([0.9, 0.1])), model), model)
        assert rec.ds_demon == pytest.approx(h, rel=1e-14)
        assert rec.ds_demon == pytest.approx(0.3250829733914482, rel=1e-14)
        # the pointer the reset erases carries that entropy, by LAPACK
        assert entropy(partial_trace(rec.post, "demon").entries) == pytest.approx(h, rel=1e-14)
        report = run_cycle(CycleConfig(params=PhysicalParams(T=2.0)))
        charge = 2.0 * report.record.ds_demon
        assert report.W_extracted - report.net_balance == pytest.approx(charge, rel=1e-14)

    def test_charge_scales_with_boltzmann_constant(self):
        # entropy stays in units of k_B; the free energy is k_B T S
        p = PhysicalParams(k_B=3.0, T=2.0)
        for protocol in ("isothermal", "stepwise-adiabatic"):
            report = run_cycle(CycleConfig(params=p, protocol=protocol))
            ds = report.record.ds_demon
            assert ds == pytest.approx(LN2, rel=1e-12)
            assert report.S_to_environment == 3.0 * ds
            assert report.W_extracted - report.net_balance == pytest.approx(6.0 * ds, rel=1e-14)

    def test_rejects_bad_inputs(self, model):
        # the reset erases a two-level pointer at a positive temperature: the
        # readoff takes no other pointer, and no cycle runs at T <= 0
        wide = DensityMatrix(np.kron(np.diag([0.5, 0.5]), np.eye(4) / 4.0), subsystem_dims=(2, 4))
        with pytest.raises(StateError, match="subsystem_dims"):
            premeasure(wide, model)
        with pytest.raises(ValueError, match="T must be positive"):
            run_cycle(CycleConfig(params=PhysicalParams(T=0.0)))

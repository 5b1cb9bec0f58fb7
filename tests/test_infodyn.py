import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from szilard.exceptions import StateError, TruncationError
from szilard.infodyn import (
    BasisLabeling,
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


def dm(diag) -> DensityMatrix:
    return DensityMatrix(np.diag(np.asarray(diag, dtype=float)))


class TestDensityMatrix:
    def test_validation_gates(self):
        with pytest.raises(StateError, match="Hermitian"):
            DensityMatrix(np.array([[0.5, 1.0], [0.0, 0.5]]))
        with pytest.raises(StateError, match="trace"):
            DensityMatrix(np.diag([0.6, 0.6]))
        with pytest.raises(StateError, match="positive"):
            DensityMatrix(np.diag([1.5, -0.5]))
        with pytest.raises(StateError, match="square"):
            DensityMatrix(np.ones((2, 3)) / 6.0)
        with pytest.raises(StateError, match="factor"):
            DensityMatrix(np.eye(6) / 6.0, subsystem_dims=(4, 2))

    def test_eigenvalues_cached_and_sorted(self):
        rho = dm([0.7, 0.1, 0.2])
        assert np.allclose(rho.eigenvalues, [0.1, 0.2, 0.7])
        assert rho.eigenvalues is rho.eigenvalues

    def test_entries_read_only(self):
        rho = dm([0.5, 0.5])
        with pytest.raises(ValueError):
            rho.entries[0, 0] = 1.0

    def test_block_stack_matches_dense_block_diagonal(self):
        blocks = np.array([[[0.3, 0.1], [0.1, 0.2]], [[0.4, 0.0], [0.0, 0.1]]])
        rho = DensityMatrix(blocks)
        dense = DensityMatrix(block_diag(*blocks))
        assert rho.entries.shape == (2, 2, 2) and dense.entries.shape == (1, 4, 4)
        assert rho.entries.dtype == np.float64
        assert rho.dim == dense.dim == 4
        assert np.allclose(rho.eigenvalues, dense.eigenvalues, rtol=0, atol=1e-15)
        with pytest.raises(StateError, match="Hermitian"):
            DensityMatrix(np.array([[[0.5, 0.1], [0.0, 0.0]], [[0.5, 0.0], [0.0, 0.0]]]))
        with pytest.raises(StateError, match="trace"):
            DensityMatrix(2.0 * blocks)

    def test_accepts_complex_states(self):
        v = np.array([1.0, 1.0j]) / math.sqrt(2.0)
        rho = DensityMatrix(np.outer(v, v.conj()))
        assert vn_entropy(rho) == pytest.approx(0.0, abs=1e-12)


class TestBasisLabeling:
    def test_truncation_gate(self):
        BasisLabeling(45, 0.01)
        with pytest.raises(TruncationError):
            BasisLabeling(44, 0.01)

    def test_gas_dim(self):
        assert BasisLabeling(3, 10.0).gas_dim == 6


class TestPostInsertion:
    def setup_method(self):
        self.p = PhysicalParams(T=25.0, d=0.02)
        self.pairs = analytic_pairs(self.p, 4)
        self.beta = self.p.beta

    def test_coherent_eigenvalues_are_doublet_populations(self):
        rho = post_insertion_dm(self.pairs, self.beta)
        raw = []
        for e, d in self.pairs:
            raw += [e - d, e + d]
        raw = np.array(raw)
        w = np.exp(-self.beta * (raw - raw.min()))
        w /= w.sum()
        assert np.allclose(np.sort(rho.eigenvalues), np.sort(w), atol=1e-14)

    def test_incoherent_state_is_diagonal(self):
        rho = post_insertion_dm(self.pairs, self.beta, coherences=False)
        off = rho.entries[:, [0, 1], [1, 0]]
        assert np.max(np.abs(off)) == 0.0

    def test_coherence_magnitudes(self):
        rho = post_insertion_dm(self.pairs, self.beta)
        e0 = min(e for e, _ in self.pairs)
        w = np.array([math.exp(-self.beta * (e - e0)) for e, _ in self.pairs])
        z = 2.0 * sum(
            wi * math.cosh(self.beta * d) for wi, (_, d) in zip(w, self.pairs)
        )
        for k, (_, d) in enumerate(self.pairs):
            expect = w[k] * math.sinh(self.beta * d) / z
            # block k is (L_k, R_k); its off-diagonal entry is the L_k<->R_k coherence
            assert rho.entries[k, 0, 1].real == pytest.approx(expect, rel=1e-13)

    def test_measurement_collapses_exactly_ln2_of_entropy(self):
        rho_i = post_insertion_dm(self.pairs, self.beta, coherences=False)

        def one_sided(i):
            # the molecule known to be on one side: that side's diagonal
            # carries the whole doublet population, twice its share before
            blocks = np.zeros_like(rho_i.entries)
            blocks[:, i, i] = 2.0 * rho_i.entries[:, i, i]
            return DensityMatrix(blocks)

        rho_l, rho_r = one_sided(0), one_sided(1)
        assert vn_entropy(rho_i) - vn_entropy(rho_l) == pytest.approx(LN2, abs=1e-12)
        assert vn_entropy(rho_l) == pytest.approx(vn_entropy(rho_r), abs=1e-14)

    def test_one_block_per_doublet(self):
        n = len(self.pairs)
        assert post_insertion_dm(self.pairs, self.beta).entries.shape == (n, 2, 2)

    def test_accepts_bare_tuples(self):
        rho = post_insertion_dm([(0.0, 0.01), (3.0, 0.001)], 1.0)
        assert rho.dim == 4


class TestEntropyAndInformation:
    def test_pure_state(self):
        assert vn_entropy(dm([1.0, 0.0, 0.0])) == 0.0

    def test_uniform_state(self):
        assert vn_entropy(dm([0.25] * 4)) == pytest.approx(math.log(4.0), rel=1e-14)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=10**6))
    def test_entropy_bounds_on_random_states(self, dim, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        m = a @ a.conj().T
        rho = DensityMatrix(m / np.trace(m).real)
        s = vn_entropy(rho)
        assert 0.0 <= s <= math.log(dim) + 1e-12


class TestBipartite:
    def test_partial_trace_recovers_factors(self):
        g = dm([0.7, 0.3])
        d = dm([0.4, 0.6])
        joint = product_dm(g, d)
        assert joint.subsystem_dims == (2, 2)
        assert np.allclose(partial_trace(joint, "gas").entries, g.entries)
        assert np.allclose(partial_trace(joint, "demon").entries, d.entries)
        with pytest.raises(ValueError):
            partial_trace(joint, "bath")
        with pytest.raises(StateError):
            partial_trace(g, "gas")
        with pytest.raises(StateError, match="single block"):
            product_dm(g, DensityMatrix(np.full((2, 1, 1), 0.5)))

    def test_mutual_information_of_product_vanishes(self):
        joint = product_dm(dm([0.7, 0.3]), dm([0.4, 0.6]))
        assert mutual_information(joint) == pytest.approx(0.0, abs=1e-12)

    def test_classically_correlated_state_carries_ln2(self):
        # orthogonal gas states tagged by orthogonal demon states
        rho_l = dm([0.8, 0.2, 0.0, 0.0])
        rho_r = dm([0.0, 0.0, 0.5, 0.5])
        dl = dm([1.0, 0.0])
        dr = dm([0.0, 1.0])
        joint = DensityMatrix(
            0.5 * (np.kron(rho_l.entries, dl.entries) + np.kron(rho_r.entries, dr.entries)),
            subsystem_dims=(4, 2),
        )
        assert mutual_information(joint) == pytest.approx(LN2, rel=1e-12)

    def test_trace_distance_extremes(self):
        a = dm([1.0, 0.0])
        b = dm([0.0, 1.0])
        assert trace_distance(a, b) == pytest.approx(1.0, rel=1e-14)
        assert trace_distance(a, a) == 0.0
        with pytest.raises(StateError):
            trace_distance(a, dm([1.0, 0.0, 0.0]))
        # same dimension, two 1x1 blocks instead of one 2x2 block
        with pytest.raises(StateError, match="mismatch"):
            trace_distance(a, DensityMatrix(np.full((2, 1, 1), 0.5)))

    def test_trace_distance_of_equal_mixtures(self):
        a = dm([0.5, 0.5])
        b = dm([0.75, 0.25])
        assert trace_distance(a, b) == pytest.approx(0.25, rel=1e-14)

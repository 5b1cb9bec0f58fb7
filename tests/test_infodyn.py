import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from szilard.exceptions import StateError, TruncationError
from szilard.infodyn import (
    DensityMatrix,
    partial_trace,
    post_insertion_dm,
    product_dm,
    trace_distance,
)
from szilard.spectral import PhysicalParams, analytic_pairs

from oracles import block_spectrum, entropy, mutual_information

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
        with pytest.raises(StateError, match="Hermitian"):
            DensityMatrix(np.array([[0.5, 0.1j], [0.1j, 0.5]]))

    @pytest.mark.parametrize("entries", [
        [[math.nan, 0.0], [0.0, 1.0]],
        np.full((2, 2), math.nan),
        [[0.5, math.inf], [math.inf, 0.5]],
        [[math.inf, 0.0], [0.0, 1.0]],
        [[0.5, complex(math.inf, 1.0)], [complex(math.inf, -1.0), 0.5]],
        np.diag([0.25, 0.25, math.nan, 0.5]),
    ])
    def test_non_finite_entries_are_refused(self, entries):
        with pytest.raises(StateError, match="Hermitian"):
            DensityMatrix(np.array(entries))

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
        assert np.allclose(block_spectrum(rho.entries), block_spectrum(dense.entries), rtol=0, atol=1e-15)
        with pytest.raises(StateError, match="Hermitian"):
            DensityMatrix(np.array([[[0.5, 0.1], [0.0, 0.0]], [[0.5, 0.0], [0.0, 0.0]]]))
        with pytest.raises(StateError, match="trace"):
            DensityMatrix(2.0 * blocks)

    def test_accepts_complex_states(self):
        v = np.array([1.0, 1.0j]) / math.sqrt(2.0)
        rho = DensityMatrix(np.outer(v, v.conj()))
        assert rho.entries.dtype == np.complex128
        assert entropy(rho.entries) == pytest.approx(0.0, abs=1e-12)


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
        assert np.allclose(block_spectrum(rho.entries), np.sort(w), atol=1e-14)

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
        s_i, s_l, s_r = (entropy(rho.entries) for rho in (rho_i, rho_l, rho_r))
        assert s_i - s_l == pytest.approx(LN2, abs=1e-12)
        assert s_l == pytest.approx(s_r, abs=1e-14)

    def test_one_block_per_doublet(self):
        n = len(self.pairs)
        assert post_insertion_dm(self.pairs, self.beta).entries.shape == (n, 2, 2)

    def test_deep_ground_state_does_not_overflow(self):
        # T = 1e-9 puts beta * delta_1 near 5e7, far past where cosh overflows
        p = PhysicalParams(T=1e-9)
        pairs = analytic_pairs(p, 45)
        assert p.beta * pairs[0][1] > 1e7
        rho = post_insertion_dm(pairs, p.beta)
        assert np.all(np.isfinite(rho.entries))
        assert np.trace(rho.entries, axis1=1, axis2=2).sum() == pytest.approx(1.0, abs=1e-14)
        # all weight sits in the symmetric ground state (L_1 + R_1)/sqrt(2)
        assert np.allclose(rho.entries[0], 0.5, atol=1e-14)
        assert np.max(np.abs(rho.entries[1:])) == 0.0

    def test_accepts_bare_tuples(self):
        rho = post_insertion_dm([(0.0, 0.01), (3.0, 0.001)], 1.0)
        assert rho.entries.shape == (2, 2, 2)

    @pytest.mark.parametrize("pairs, beta, named", [
        ([(0.0, 0.1)], math.nan, "beta must be positive and finite, got nan"),
        ([(0.0, 0.1)], math.inf, "beta must be positive and finite, got inf"),
        ([(0.0, 0.1), (math.nan, 0.2)], 1.0, r"row \(nan, 0\.2\) is not finite"),
        ([(0.0, math.nan)], 1.0, r"row \(0\.0, nan\) is not finite"),
        ([(0.0, math.inf)], 1.0, r"row \(0\.0, inf\) is not finite"),
        ([(-math.inf, 0.1)], 1.0, r"row \(-inf, 0\.1\) is not finite"),
        ([(math.inf, 0.0)], 1.0, r"row \(inf, 0\.0\) is not finite.*not in every row"),
    ])
    def test_non_finite_input_is_named(self, pairs, beta, named):
        # a ValueError naming the value, not a failed Hermiticity gate
        with pytest.raises(ValueError, match=named):
            post_insertion_dm(pairs, beta)

    def test_weightless_doublets_are_accepted(self):
        # analytic_pairs writes a level past the float range as E_k = +inf
        rho = post_insertion_dm([(0.0, 0.1), (math.inf, 0.0)], 1.0)
        assert np.max(np.abs(rho.entries[1])) == 0.0
        assert np.trace(rho.entries, axis1=1, axis2=2).sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_empty_and_negative_input(self):
        with pytest.raises(ValueError, match="^need at least one doublet$"):
            post_insertion_dm([], 1.0)
        # the message names the first negative splitting
        with pytest.raises(ValueError, match=r"^negative splitting -0\.5$"):
            post_insertion_dm([(0.0, 0.1), (1.0, -0.5), (2.0, -0.25)], 1.0)
        with pytest.raises(ValueError, match="rows"):
            post_insertion_dm([(0.0, 0.1, 2.0)], 1.0)


class TestEntropyAndInformation:
    def test_pure_state(self):
        assert entropy(dm([1.0, 0.0, 0.0]).entries) == 0.0

    def test_uniform_state(self):
        assert entropy(dm([0.25] * 4).entries) == pytest.approx(math.log(4.0), rel=1e-14)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=10**6))
    def test_entropy_bounds_on_random_states(self, dim, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        m = a @ a.conj().T
        rho = DensityMatrix(m / np.trace(m).real)
        s = entropy(rho.entries)
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

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(k=st.integers(1, 50), complex_=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_product_spectrum_is_that_of_its_entries(self, k, complex_, seed):
        # the product skips the gate; its spectrum is the outer product of its factors'
        rng = np.random.default_rng(seed)

        def state(n, b):
            a = rng.normal(size=(n, b, b)) + (1j * rng.normal(size=(n, b, b)) if complex_ else 0.0)
            m = a @ a.conj().transpose(0, 2, 1)
            return DensityMatrix(m / np.trace(m, axis1=1, axis2=2).real.sum())

        gas, demon = state(k, 2), state(1, 2)
        joint = product_dm(gas, demon)
        assert joint.entries.shape == (k, 4, 4)
        outer = np.sort(np.multiply.outer(block_spectrum(gas.entries), block_spectrum(demon.entries)),
                        axis=None)
        assert np.allclose(block_spectrum(joint.entries), outer, rtol=0, atol=1e-15)
        with pytest.raises(ValueError):
            joint.entries[0, 0, 0] = 1.0

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

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from szilard.exceptions import NumericsError
from szilard.numerics import (
    Grid,
    TridiagonalSymmetric,
    _check_residuals,
    eig_tridiagonal,
)


class TestGrid:
    def test_spacing_excludes_endpoints(self):
        g = Grid(n_points=9, x_min=0.0, x_max=1.0)
        assert g.spacing == pytest.approx(0.1, abs=0)
        assert g.points[0] == pytest.approx(0.1)
        assert g.points[-1] == pytest.approx(0.9)
        assert len(g.points) == 9

    def test_rejects_degenerate_domains(self):
        with pytest.raises(ValueError):
            Grid(n_points=2, x_min=0.0, x_max=1.0)
        with pytest.raises(ValueError):
            Grid(n_points=10, x_min=1.0, x_max=1.0)


class TestTridiagonal:
    def test_band_length_must_match(self):
        with pytest.raises(ValueError):
            TridiagonalSymmetric(np.ones(4), np.ones(4))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            TridiagonalSymmetric(np.array([1.0, np.nan, 1.0]), np.ones(2))

    def test_matvec_matches_dense(self):
        m = TridiagonalSymmetric(np.array([2.0, 3.0, 4.0]), np.array([-1.0, 0.5]))
        dense = np.diag(m.diagonal) + np.diag(m.off_diagonal, 1) + np.diag(m.off_diagonal, -1)
        v = np.array([1.0, -2.0, 0.5])
        assert np.allclose(m.matvec(v), dense @ v, rtol=0, atol=1e-15)

    def test_matvec_on_columns_matches_per_column(self):
        rng = np.random.default_rng(3)
        m = TridiagonalSymmetric(rng.normal(size=7), rng.normal(size=6))
        vs = rng.normal(size=(7, 4))
        stacked = m.matvec(vs)
        for j in range(4):
            assert np.array_equal(stacked[:, j], m.matvec(vs[:, j]))


class TestEigTridiagonal:
    def test_uniform_matrix_closed_form(self):
        # diag 2, off -1 on n=3: eigenvalues 2 - sqrt(2), 2, 2 + sqrt(2)
        m = TridiagonalSymmetric(np.full(3, 2.0), np.full(2, -1.0))
        pairs = eig_tridiagonal(m, 3)
        vals = [e for e, _ in pairs]
        expect = [2.0 - math.sqrt(2.0), 2.0, 2.0 + math.sqrt(2.0)]
        assert vals == pytest.approx(expect, rel=1e-14)

    def test_vectors_are_normalized_eigenvectors(self):
        m = TridiagonalSymmetric(np.arange(1.0, 7.0), -np.ones(5))
        for e, v in eig_tridiagonal(m, 4):
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-13)
            assert np.linalg.norm(m.matvec(v) - e * v) <= 1e-10 * m.scale

    def test_k_lowest_bounds(self):
        m = TridiagonalSymmetric(np.ones(3), np.zeros(2))
        with pytest.raises(ValueError):
            eig_tridiagonal(m, 0)
        with pytest.raises(ValueError):
            eig_tridiagonal(m, 4)

    def test_names_the_test_extra_without_scipy(self, monkeypatch):
        # scipy comes with the test extra only; a plain install has none
        monkeypatch.setitem(sys.modules, "scipy.linalg", None)
        m = TridiagonalSymmetric(np.full(3, 2.0), np.full(2, -1.0))
        with pytest.raises(ImportError, match=r"test extra.*\[test\]"):
            eig_tridiagonal(m, 1)

    def test_residual_contract_names_first_failing_pair(self):
        m = TridiagonalSymmetric(np.full(3, 2.0), np.full(2, -1.0))
        vals = np.array([2.0 - math.sqrt(2.0), 2.0, 2.0 + math.sqrt(2.0)])
        vecs = np.column_stack([v for _, v in eig_tridiagonal(m, 3)])
        assert np.allclose(_check_residuals(m, vals, 2.0 * vecs), vecs, rtol=0, atol=1e-15)
        vals[1:] += 1e-6
        with pytest.raises(NumericsError, match="eigenpair 1 failed"):
            _check_residuals(m, vals, vecs)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        st.lists(st.floats(-50, 50), min_size=4, max_size=12),
        st.integers(min_value=1, max_value=1000),
    )
    def test_random_matrices_satisfy_residual_contract(self, diag, seed):
        rng = np.random.default_rng(seed)
        d = np.array(diag)
        off = rng.uniform(-10.0, 10.0, size=len(d) - 1)
        m = TridiagonalSymmetric(d, off)
        pairs = eig_tridiagonal(m, len(d))
        vals = np.array([e for e, _ in pairs])
        assert np.all(np.diff(vals) >= -1e-12 * max(m.scale, 1.0))
        vecs = np.column_stack([v for _, v in pairs])
        gram = vecs.T @ vecs
        assert np.max(np.abs(gram - np.eye(len(d)))) < 1e-8

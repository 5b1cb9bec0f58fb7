"""Numerical kernels: interior grids, symmetric-tridiagonal eigensolution
and certified series summation.

Everything here is a pure function of its inputs.  The eigensolver and the
series summation both enforce their accuracy contracts before returning,
so downstream physics code never has to second-guess them.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .exceptions import NumericsError

__all__ = [
    "Grid",
    "TridiagonalSymmetric",
    "SeriesSum",
    "eig_tridiagonal",
    "sum_series",
]

# residual contract: ||Mv - lambda*v|| <= RESIDUAL_FACTOR * max|entry|
RESIDUAL_FACTOR = 1e-10


@dataclass(frozen=True)
class Grid:
    """Uniform grid of interior points on (x_min, x_max).

    The endpoints themselves are excluded: anything sampled on the grid is
    implicitly pinned to zero at both walls, which is how the hard-wall
    boundary condition enters the discretization.  Hence
    spacing = (x_max - x_min) / (n_points + 1).
    """

    n_points: int
    x_min: float
    x_max: float

    def __post_init__(self):
        if self.n_points < 3:
            raise ValueError(f"need at least 3 interior points, got {self.n_points}")
        if not self.x_max > self.x_min:
            raise ValueError(f"x_max must exceed x_min, got [{self.x_min}, {self.x_max}]")

    @property
    def spacing(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points + 1)

    @property
    def points(self) -> np.ndarray:
        """Interior points x_min + h, x_min + 2h, ..., x_max - h."""
        h = self.spacing
        return self.x_min + h * np.arange(1, self.n_points + 1)


@dataclass(frozen=True)
class TridiagonalSymmetric:
    """Real symmetric tridiagonal matrix stored as two bands."""

    diagonal: np.ndarray
    off_diagonal: np.ndarray

    def __post_init__(self):
        diag = np.asarray(self.diagonal, dtype=float)
        off = np.asarray(self.off_diagonal, dtype=float)
        if diag.ndim != 1 or off.ndim != 1:
            raise ValueError("bands must be one-dimensional")
        if len(off) != len(diag) - 1:
            raise ValueError(
                f"off-diagonal length {len(off)} does not match diagonal length {len(diag)}"
            )
        if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(off))):
            raise ValueError("matrix entries must be finite")
        object.__setattr__(self, "diagonal", diag)
        object.__setattr__(self, "off_diagonal", off)

    @property
    def dim(self) -> int:
        return len(self.diagonal)

    @property
    def scale(self) -> float:
        """Largest absolute entry; the reference scale for residual checks."""
        m = float(np.max(np.abs(self.diagonal)))
        if len(self.off_diagonal):
            m = max(m, float(np.max(np.abs(self.off_diagonal))))
        return m

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """M v for a vector, or M V column by column for an (n, k) array."""
        diag, off = self.diagonal, self.off_diagonal
        if v.ndim == 2:
            diag, off = diag[:, None], off[:, None]
        out = diag * v
        out[:-1] += off * v[1:]
        out[1:] += off * v[:-1]
        return out


def eig_tridiagonal(matrix: TridiagonalSymmetric, k_lowest: int):
    """Lowest k eigenpairs of a symmetric tridiagonal matrix.

    Eigenvalues come from bisection on Sturm sequences and eigenvectors from
    inverse iteration, which keeps the cost at O(n) per requested pair.
    Returns a list of (eigenvalue, eigenvector) tuples sorted ascending, each
    vector unit-norm.  Every returned pair is verified against the residual
    contract ||Mv - lambda v|| <= 1e-10 * scale; a violation raises
    NumericsError naming the offending pair.
    """
    n = matrix.dim
    if not 1 <= k_lowest <= n:
        raise ValueError(f"k_lowest must lie in [1, {n}], got {k_lowest}")
    vals, vecs = _stebz(matrix.diagonal, matrix.off_diagonal, k_lowest)
    vecs = _check_residuals(matrix, vals, vecs)
    return [(float(vals[j]), vecs[:, j]) for j in range(k_lowest)]


def _stebz(diagonal: np.ndarray, off_diagonal: np.ndarray, k_lowest: int, eigvals_only=False):
    """Lowest k eigenvalues and, unless eigvals_only, their (n, k) eigenvectors.

    The eigenvalues come from the same bisection either way; eigvals_only
    only skips the inverse iteration.
    """
    # imported here: scipy.linalg costs about 0.3 s and only grid eigensolves need it
    from scipy.linalg import eigh_tridiagonal

    try:
        return eigh_tridiagonal(
            diagonal,
            off_diagonal,
            eigvals_only=eigvals_only,
            select="i",
            select_range=(0, k_lowest - 1),
            lapack_driver="stebz",
            tol=1e-12,
        )
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"tridiagonal eigensolver did not converge: {exc}") from exc


def _check_residuals(matrix: TridiagonalSymmetric, vals: np.ndarray, vecs: np.ndarray):
    """Normalize the columns of vecs in place and enforce the residual contract.

    The first column j with ||M v_j - vals[j] v_j|| > 1e-10 * scale raises
    NumericsError; otherwise the normalized vecs are returned.
    """
    vecs /= np.linalg.norm(vecs, axis=0)
    r = matrix.matvec(vecs)
    r -= vals * vecs
    residuals = np.linalg.norm(r, axis=0)
    limit = RESIDUAL_FACTOR * matrix.scale
    failed = np.flatnonzero(residuals > limit)
    if failed.size:
        j = failed[0]
        raise NumericsError(
            f"eigenpair {j} failed the residual contract: "
            f"{residuals[j]:.3e} > {limit:.3e}"
        )
    return vecs


class SeriesSum(NamedTuple):
    value: float
    terms_used: int


def sum_series(
    terms: Iterable[float],
    tail_bound: Callable[[int], float],
    rel_tol: float = 1e-10,
    max_terms: int = 100_000,
) -> SeriesSum:
    """Sum a series whose remainder admits an explicit bound.

    `terms` yields successive terms; `tail_bound(n)` must bound the total
    magnitude of everything not yet consumed after n terms, and is checked
    after every term.  Stops once tail_bound(n) <= rel_tol * |partial|, or
    when the generator is exhausted (finite series sum exactly).
    """
    it = iter(terms)
    total = 0.0
    used = 0
    bound = np.inf
    while used < max_terms:
        try:
            total += next(it)
        except StopIteration:
            return SeriesSum(total, used)
        used += 1
        bound = float(tail_bound(used))
        if bound <= rel_tol * abs(total):
            return SeriesSum(total, used)
    raise NumericsError(
        f"series tail bound not satisfied after {used} terms "
        f"(last bound {bound:.3e}, partial sum {total:.6e})"
    )

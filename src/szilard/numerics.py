"""Finite-difference oracle of the tests: interior grids and
symmetric-tridiagonal eigensolution.

Everything here is a pure function of its inputs.  The eigensolver enforces
its residual contract before returning, so a test that compares against it
never has to second-guess it.  numpy and scipy are imported where they are
used.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .exceptions import NumericsError

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Grid",
    "TridiagonalSymmetric",
    "eig_tridiagonal",
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
        import numpy as np

        h = self.spacing
        return self.x_min + h * np.arange(1, self.n_points + 1)


@dataclass(frozen=True)
class TridiagonalSymmetric:
    """Real symmetric tridiagonal matrix stored as two bands."""

    diagonal: np.ndarray
    off_diagonal: np.ndarray

    def __post_init__(self):
        import numpy as np

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
        m = float(abs(self.diagonal).max())
        if len(self.off_diagonal):
            m = max(m, float(abs(self.off_diagonal).max()))
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

    Eigenvalues come from bisection on Sturm sequences (LAPACK stebz) and
    eigenvectors from inverse iteration, which keeps the cost at O(n) per
    requested pair.  Returns a list of (eigenvalue, eigenvector) tuples
    sorted ascending, each vector unit-norm.  Every returned pair is verified
    against the residual contract ||Mv - lambda v|| <= 1e-10 * scale; a
    violation raises NumericsError naming the offending pair.  Needs scipy,
    which only the test extra installs: no production code calls this.
    """
    import numpy as np

    n = matrix.dim
    if not 1 <= k_lowest <= n:
        raise ValueError(f"k_lowest must lie in [1, {n}], got {k_lowest}")
    try:
        from scipy.linalg import eigh_tridiagonal
    except ImportError as exc:
        raise ImportError("eig_tridiagonal needs scipy, which the test extra installs: "
                          "pip install -e '.[test]'") from exc
    try:
        vals, vecs = eigh_tridiagonal(matrix.diagonal, matrix.off_diagonal, select="i",
                                      select_range=(0, k_lowest - 1), lapack_driver="stebz",
                                      tol=1e-12)
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"tridiagonal eigensolver did not converge: {exc}") from exc
    vecs = _check_residuals(matrix, vals, vecs)
    return [(float(vals[j]), vecs[:, j]) for j in range(k_lowest)]


def _check_residuals(matrix: TridiagonalSymmetric, vals: np.ndarray, vecs: np.ndarray):
    """Normalize the columns of vecs in place and enforce the residual contract.

    The first column j with ||M v_j - vals[j] v_j|| > 1e-10 * scale raises
    NumericsError; otherwise the normalized vecs are returned.
    """
    import numpy as np

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

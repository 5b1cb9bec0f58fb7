"""Single-molecule spectra: numerical levels of the box with a rectangular
barrier inserted, tunneling doublets, the localized left/right basis built
from each doublet, and the closed-form doublet family the cycle uses.

Units are carried by PhysicalParams; the defaults put hbar = m = k_B = 1
and L = 1 so that the ground-state scale is eps = pi^2/2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .exceptions import SpectralError
from .numerics import Grid, TridiagonalSymmetric, _check_residuals, _stebz

__all__ = [
    "PhysicalParams",
    "SplitPair",
    "barrier_grid",
    "hamiltonian",
    "barrier_spectrum",
    "splitting_estimate",
    "analytic_pairs",
]


@dataclass(frozen=True)
class PhysicalParams:
    """Unit system and engine geometry.

    hbar, mass, k_B fix the unit system; L is the box width, d and U the
    barrier width and height, T the reservoir temperature.  d = 0 is allowed
    and means "no barrier"; operations that need one will say so.
    """

    hbar: float = 1.0
    mass: float = 1.0
    k_B: float = 1.0
    L: float = 1.0
    d: float = 0.05
    U: float = 5000.0
    T: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        for name in ("hbar", "mass", "k_B", "L", "U", "T"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.d < 0:
            raise ValueError(f"d must be nonnegative, got {self.d}")
        if not self.d < self.L:
            raise ValueError(f"d must be smaller than L (got d={self.d}, L={self.L})")

    @property
    def beta(self) -> float:
        return 1.0 / (self.k_B * self.T)

    @property
    def eps(self) -> float:
        """Ground-state energy scale of the full box, pi^2 hbar^2 / (2 m L^2)."""
        return math.pi**2 * self.hbar**2 / (2.0 * self.mass * self.L**2)

    @property
    def eps_prime(self) -> float:
        """Same scale for a well of width L - d: eps * L^2/(L-d)^2."""
        return self.eps * self.L**2 / (self.L - self.d) ** 2

    @property
    def sigma(self) -> float:
        """Boltzmann factor of the box scale, exp(-beta * eps)."""
        return math.exp(-self.beta * self.eps)

    @property
    def lambda_th(self) -> float:
        """Thermal de Broglie wavelength (2 pi hbar^2 beta / m)^(1/2)."""
        return math.sqrt(2.0 * math.pi * self.hbar**2 * self.beta / self.mass)


@dataclass(frozen=True)
class SplitPair:
    """A below-barrier doublet.

    energy is the arithmetic mean of the numerical pair, delta the
    half-splitting, so the two members sit at energy -/+ delta with the
    symmetric (psi_minus) member below the antisymmetric (psi_plus) one.
    Both members come from the parity-folded solve, so their parity is
    exact.  left/right are the localized combinations
    (psi_plus +/- psi_minus)/sqrt2.
    """

    k: int
    energy: float
    delta: float
    psi_plus: np.ndarray
    psi_minus: np.ndarray
    left: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        if self.delta < 0:
            raise ValueError(f"delta must be nonnegative, got {self.delta}")
        for name in ("psi_plus", "psi_minus", "left", "right"):
            if abs(np.linalg.norm(getattr(self, name)) - 1.0) > 1e-8:
                raise ValueError(f"{name} of pair {self.k} is not unit-norm")
        if abs(float(self.left @ self.right)) > 1e-8:
            raise ValueError(f"left/right of pair {self.k} are not orthogonal")


def barrier_grid(params: PhysicalParams, n_target: int = 4096) -> Grid:
    """Grid on (-L/2, L/2) sized so the barrier edges sit on grid points.

    Scans counts near n_target and keeps the one whose grid puts x = +/- d/2
    closest to actual grid points.  With on-grid edges the effective well
    width is exact, which matters once U is large enough that the walls are
    effectively hard.
    """
    if n_target < 3:
        raise ValueError(f"n_target must be >= 3, got {n_target}")
    best_n = None
    best_score = None
    for n in range(max(3, n_target - 64), n_target + 65):
        h = params.L / (n + 1)
        # index offset of the right barrier edge from the left wall
        pos = (params.L + params.d) / 2.0 / h
        score = abs(pos - round(pos))
        if best_score is None or score < best_score - 1e-15 or (
            abs(score - best_score) <= 1e-15 and abs(n - n_target) < abs(best_n - n_target)
        ):
            best_n, best_score = n, score
    return Grid(best_n, -params.L / 2.0, params.L / 2.0)


def hamiltonian(params: PhysicalParams, grid: Grid) -> TridiagonalSymmetric:
    """Second-order finite-difference Hamiltonian with Dirichlet walls."""
    x = grid.points
    h = grid.spacing
    if params.d > 0:
        # the 1e-9*h slack makes barrier membership robust to float rounding,
        # so a point computed as 0.024999999999999998 with d/2 = 0.025 counts
        inside = np.abs(x) <= params.d / 2.0 + 1e-9 * h
        v = np.where(inside, params.U, 0.0)
    else:
        v = np.zeros(grid.n_points)
    t = params.hbar**2 / (2.0 * params.mass * h * h)
    return TridiagonalSymmetric(2.0 * t + v, np.full(grid.n_points - 1, -t))


def _parity_blocks(ham: TridiagonalSymmetric, n_even: int, n_odd: int):
    """Even and odd half blocks of a mirror-symmetric tridiagonal matrix.

    For n = 2m+1 the even block is rows 0..m with the centre coupling scaled
    by sqrt 2 and the odd block is rows 0..m-1; for n = 2m both are rows
    0..m-1 with the last diagonal shifted by +/- the centre coupling.
    Returns ((diag, off, n_even), (diag, off, n_odd)), the even block first.
    """
    d, o = ham.diagonal, ham.off_diagonal
    if not (np.array_equal(d, d[::-1]) and np.array_equal(o, o[::-1])):
        raise SpectralError("parity fold needs a mirror-symmetric Hamiltonian")
    n, m = ham.dim, ham.dim // 2
    if n_even + n_odd > n:
        raise ValueError(f"{n_even + n_odd} levels requested, grid has {n}")
    if n % 2:
        return (
            (d[: m + 1], np.append(o[: m - 1], math.sqrt(2.0) * o[m - 1]), n_even),
            (d[:m], o[: m - 1], n_odd),
        )
    return (
        (np.append(d[: m - 1], d[m - 1] + o[m - 1]), o[: m - 1], n_even),
        (np.append(d[: m - 1], d[m - 1] - o[m - 1]), o[: m - 1], n_odd),
    )


def _parity_eig(ham: TridiagonalSymmetric, n_even: int, n_odd: int):
    """Lowest n_even even and n_odd odd eigenpairs of a mirror-symmetric matrix.

    Solves the two blocks of _parity_blocks and unfolds their vectors onto
    the full grid, where they meet the residual contract of the full matrix,
    at its scale.  Returns ((even_vals, even_vecs), (odd_vals, odd_vecs)),
    vectors as the columns of (n, k) arrays.
    """
    n, m = ham.dim, ham.dim // 2
    out = []
    for (diag, off, k), sign in zip(_parity_blocks(ham, n_even, n_odd), (1.0, -1.0)):
        vals, w = _stebz(diag, off, k)
        # each off-centre block entry stands for two mirror points, hence 1/sqrt 2
        v = np.zeros((n, k))
        v[:m] = w[:m] / math.sqrt(2.0)
        v[n - m :] = sign * v[m - 1 :: -1]
        v[m : len(w)] = w[m:]  # the centre point: only the odd-n even block has one
        out.append((vals, _check_residuals(ham, vals, v)))
    return tuple(out)


def _fix_sign(v: np.ndarray) -> np.ndarray:
    # convention: positive amplitude at the leftmost grid point
    lead = v[0]
    if abs(lead) < 1e-13 * float(np.max(np.abs(v))):
        raise SpectralError("sign convention unresolved: vanishing amplitude at the wall")
    return v if lead > 0 else -v


def _localize(psi_plus: np.ndarray, psi_minus: np.ndarray):
    inv = 1.0 / math.sqrt(2.0)
    left = (psi_plus + psi_minus) * inv
    right = (psi_minus - psi_plus) * inv
    return left, right


def barrier_spectrum(params: PhysicalParams, n_pairs: int, grid: Optional[Grid] = None):
    """Numerical doublets of the box with the barrier inserted.

    Solves the parity-folded finite-difference problem: the lowest n_pairs
    even and n_pairs odd levels, each from a half-size block.  Levels
    alternate in parity (even_k < odd_k < even_k+1), so pair k is the k-th
    even (symmetric) level with the k-th odd (antisymmetric) one, and the
    members have exact parity whatever the splitting.
    """
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be >= 1, got {n_pairs}")
    if params.d <= 0:
        raise SpectralError("barrier_spectrum needs a barrier, got d = 0")
    if grid is None:
        grid = barrier_grid(params)
    h = grid.spacing
    under = int(np.count_nonzero(np.abs(grid.points) <= params.d / 2.0 + 1e-9 * h))
    if under < 16:
        raise SpectralError(
            f"grid too coarse: {under} points under the barrier, need >= 16"
        )
    (e_even, v_even), (e_odd, v_odd) = _parity_eig(hamiltonian(params, grid), n_pairs, n_pairs)

    pairs = []
    for k in range(1, n_pairs + 1):
        e_sym, e_anti = float(e_even[k - 1]), float(e_odd[k - 1])
        # pair structure requires the internal gap to stay below the gap
        # to the next doublet
        if k < n_pairs and (e_anti - e_sym) >= (e_even[k] - e_anti):
            raise SpectralError(
                f"no pair structure at k = {k}: internal gap "
                f"{e_anti - e_sym:.4g} reaches the gap {e_even[k] - e_anti:.4g} "
                f"to the next level (U too low?)"
            )

        v_sym = _fix_sign(v_even[:, k - 1])
        v_anti = _fix_sign(v_odd[:, k - 1])
        left, right = _localize(v_anti, v_sym)
        mean = 0.5 * (e_sym + e_anti)
        delta = max(0.5 * (e_anti - e_sym), 0.0)

        if mean >= params.U:
            raise SpectralError(
                f"pair {k} sits above the barrier top "
                f"(E = {mean:.6g}, U = {params.U:.6g}); no doublet structure"
            )

        # localization sanity: the left state should live at x < 0 up to
        # tunneling corrections.  The deficit has two parts: level mixing
        # within the well, of order (delta/E)^2, and barrier penetration of
        # order k^2/(w kappa^3) exp(-kappa d), which decays half as fast in
        # d and therefore needs its own term in the bound.
        kappa = math.sqrt(2.0 * params.mass * (params.U - mean)) / params.hbar
        k_wave_sq = 2.0 * params.mass * mean / params.hbar**2
        w_well = (params.L - params.d) / 2.0
        pen = k_wave_sq / (w_well * kappa**3) * math.exp(-kappa * params.d)
        allowed = 10.0 * (delta / mean) ** 2 + 4.0 * pen + 1e-10
        half = grid.n_points // 2  # number of points with strictly negative x
        weight = float(np.sum(left[:half] ** 2))
        if weight < 1.0 - allowed:
            raise SpectralError(
                f"pair {k}: left state has weight {weight:.12f} on x < 0, "
                f"below the tunneling-limited bound 1 - {allowed:.3e}"
            )

        pairs.append(
            SplitPair(
                k=k,
                energy=mean,
                delta=delta,
                psi_plus=v_anti,
                psi_minus=v_sym,
                left=left,
                right=right,
            )
        )
    return pairs


def splitting_estimate(params: PhysicalParams, k: int) -> float:
    """Closed-form doublet half-splitting estimate.

    Delta_k ~= (4 eps'/pi) * exp(-d * sqrt(2 m (U - E_k)) / hbar) with
    E_k = eps' (2k)^2.  Valid only below the barrier top; above it the
    doublet structure dissolves and the formula has no meaning.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    e_k = params.eps_prime * (2 * k) ** 2
    if params.U <= e_k:
        raise SpectralError(
            f"level k={k} sits above the barrier (E_k = {e_k:.6g}, U = {params.U:.6g})"
        )
    kappa = math.sqrt(2.0 * params.mass * (params.U - e_k)) / params.hbar
    return (4.0 * params.eps_prime / math.pi) * math.exp(-params.d * kappa)


def analytic_pairs(params: PhysicalParams, n_pairs: int):
    """Model doublet family (E_k, delta_k) without an eigensolve.

    E_k = eps' (2k)^2; delta_k from splitting_estimate below the barrier and
    zero above it, where the thermal weight of the affected levels is
    negligible anyway at the temperatures this model is meant for.
    """
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be >= 1, got {n_pairs}")
    out = []
    for k in range(1, n_pairs + 1):
        e_k = params.eps_prime * (2 * k) ** 2
        delta = splitting_estimate(params, k) if params.U > e_k else 0.0
        out.append((e_k, delta))
    return out

"""Second routes to quantities the package computes one way, for tests only."""
import math

import mpmath
import numpy as np

from szilard.demon import MeasurementRecord, _entropy, _g
from szilard.infodyn import DensityMatrix, partial_trace, trace_distance


def block_spectrum(blocks: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of all blocks of a Hermitian (K, b, b) stack together, by LAPACK.

    No state keeps a spectrum, so tests read one from its entries here.
    """
    return np.sort(np.linalg.eigvalsh(blocks), axis=None)


def entropy(blocks: np.ndarray) -> float:
    """-sum w ln w over the positive LAPACK eigenvalues of a (K, b, b) stack."""
    w = block_spectrum(blocks)
    w = w[w > 0.0]
    return float(-(w * np.log(w)).sum())


def mutual_information(rho: DensityMatrix) -> float:
    """I_mu = S(gas) + S(demon) - S(joint) of a bipartite state, in units of k_B.

    Every entropy is taken from LAPACK eigenvalues of the entries.
    """
    s_gas = entropy(partial_trace(rho, "gas").entries)
    s_demon = entropy(partial_trace(rho, "demon").entries)
    return s_gas + s_demon - entropy(rho.entries)


def coupling_unitary(gas_dim: int) -> np.ndarray:
    """The readoff unitary on a gas (x) pointer block of any even gas size, left states first.

    c 1 + c (Pi_L - Pi_R) (x) J with c = cos(pi/4) and J = [[0, 1], [-1, 0]];
    at gas_dim = 2 it is demon.coupling_unitary().
    """
    n = gas_dim // 2
    c = math.cos(math.pi / 4.0)
    p = np.diag(np.concatenate([np.ones(n), -np.ones(n)]))
    return c * np.eye(2 * gas_dim) + c * np.kron(p, np.array([[0.0, 1.0], [-1.0, 0.0]]))


def dense_readoff(p0: DensityMatrix) -> MeasurementRecord:
    """premeasure's record by the general route, for a ready product of any layout.

    post = U p0 U^T is built and validated by LAPACK, and every figure is a
    difference of the six marginal and joint entropies across the readoff.
    The record's post is set to that state: the record would build its own
    with the 4x4 block unitary, which fits only the (2, 2) layout.
    """
    u = coupling_unitary(p0.subsystem_dims[0])
    post = DensityMatrix(u @ p0.entries @ u.T, subsystem_dims=p0.subsystem_dims)
    (g0, d0, j0), (g1, d1, j1) = [
        (entropy(partial_trace(rho, "gas").entries), entropy(partial_trace(rho, "demon").entries),
         entropy(rho.entries))
        for rho in (p0, post)
    ]
    di = (g1 + d1 - j1) - (g0 + d0 - j0)
    record = MeasurementRecord(
        ds_demon=d1 - d0, ds_gas=g1 - g0, ds_joint=j1 - j0, di_mu=di,
        balance_residual=abs(di - (g1 - g0) - (d1 - d0)), build_pre=lambda: p0,
    )
    record.post = post
    return record


def ledger_terms(a, d, c):
    """demon._ledger's five figures with a term booked for every block of positive weight.

    Coherence-free blocks are booked too, m [g(h/m) - g(h/m)] = +0.0 each,
    and sum d is taken apart from sum a even when d is a.
    """
    gas = []
    for x, y, z in zip(a, d, c):
        m = 0.5 * (x + y)
        if m > 0.0:
            h = 0.5 * abs(x - y)
            gas.append(m * (_g(math.hypot(h, z) / m) - _g(h / m)) if h else m * _g(z / m))
    sa, sd = math.fsum(a), math.fsum(d)
    t = sa + sd
    ds_gas = max(math.fsum(gas) / t, 0.0)
    ds_demon = _entropy(sa / t, sd / t)
    return ds_demon, ds_gas, 0.0, ds_gas + ds_demon, 0.0


def reversed_state(record, state: DensityMatrix) -> DensityMatrix:
    """U^T state U: the readoff unitary undone on a joint state laid out as record.pre."""
    u = coupling_unitary(record.pre.subsystem_dims[0])
    return DensityMatrix(u.T @ state.entries @ u, subsystem_dims=record.pre.subsystem_dims)


def reversal_distance(record, state: DensityMatrix) -> float:
    """Trace distance of the reversed state from record.pre, built and compared.

    reverse_readoff takes the distance of state from record.post instead,
    by the unitary invariance of the trace norm, and builds no state.
    """
    return trace_distance(reversed_state(record, state), record.pre)


def dephasing_entropy(blocks, dps: int = 50):
    """S(diag rho) - S(rho) summed over 2x2 blocks, with dps digits, as an mpmath number.

    Each block's diagonal and eigenvalues m -+ r enter as two -x ln x sums
    and are subtracted: at 50 digits the cancellation still leaves about
    30 of them in a dS_gas near 1e-19.
    """
    with mpmath.workdps(dps):
        def h(*ws):
            return -sum(w * mpmath.log(w) for w in ws if w > 0)

        total = mpmath.mpf(0)
        for b in np.asarray(blocks):
            a, d = mpmath.mpf(float(b[0, 0].real)), mpmath.mpf(float(b[1, 1].real))
            c = mpmath.mpc(complex(b[0, 1]))
            m, half = (a + d) / 2, (a - d) / 2
            r = mpmath.sqrt(half**2 + abs(c) ** 2)
            total += h(a, d) - h(m - r, m + r)
        return total


def doublet_weights(pairs, beta: float, dps: int = 50):
    """Each (E_k, delta_k) row's L_k population c_k and L_k<->R_k coherence s_k.

    The Boltzmann weights of the doublet's two levels E_k -+ delta_k, taken
    relative to the lowest level, in the L/R basis: c_k is half their sum
    and s_k half their difference, over the sum Z of all the levels'
    weights.  From the float rows and beta as given, with dps digits; the
    difference keeps dps - log10(1/(beta delta_k)) of them.  As mpmath numbers.
    """
    with mpmath.workdps(dps):
        b = mpmath.mpf(beta)
        rows = [(mpmath.mpf(e), mpmath.mpf(d)) for e, d in pairs]
        low = min(e - d for e, d in rows)
        levels = [(mpmath.exp(-b * (e - d - low)), mpmath.exp(-b * (e + d - low))) for e, d in rows]
        z2 = 2 * sum(lo + hi for lo, hi in levels)
        return [(lo + hi) / z2 for lo, hi in levels], [(lo - hi) / z2 for lo, hi in levels]


def doublet(params, k: int, dps: int = 80):
    """(E_k, delta_k) of doublet k below the barrier top, as mpmath numbers.

    Roots of the continuum matching conditions with dps digits, each in its
    bracket (k - 1/2) pi < q w < k pi: q cos(q w) + kappa t sin(q w) = 0 for
    the even member and q t cos(q w) + kappa sin(q w) = 0 for the odd one,
    with t = tanh(kappa d/2) and hbar = m = 1.  The splitting is the
    difference of two roots held to dps digits, so it keeps dps minus
    log10(E/delta) of them.
    """
    with mpmath.workdps(dps):
        length, d, u = (mpmath.mpf(x) for x in (params.L, params.d, params.U))
        w, b = (length - d) / 2, d / 2

        def condition(odd):
            def f(e):
                q, kappa = mpmath.sqrt(2 * e), mpmath.sqrt(2 * (u - e))
                t = mpmath.tanh(kappa * b)
                return q * mpmath.cos(q * w) * (t if odd else 1) + kappa * mpmath.sin(q * w) * (
                    1 if odd else t)
            return f

        lo, hi = ((k - mpmath.mpf(1) / 2) * mpmath.pi / w) ** 2 / 2, (k * mpmath.pi / w) ** 2 / 2
        e_sym, e_anti = (mpmath.findroot(condition(odd), (lo, hi * (1 - mpmath.mpf(10) ** -(dps // 2))),
                                         solver="anderson") for odd in (False, True))
        return (e_anti + e_sym) / 2, (e_anti - e_sym) / 2


def box_tails(x: float, n: int, dps: int = 50):
    """(sum w_m, sum (m^2 - 1) w_m) over the box levels m > n, w_m = e^(-x (m^2 - 1)).

    Summed term by term with dps digits until a term falls below 10^-dps of
    its sum, past the peak of (m^2 - 1) w_m; as mpmath numbers.  n = 1 gives
    the whole sums r and e that thermo takes relative to the ground level.
    """
    with mpmath.workdps(dps):
        x, r, e, m = mpmath.mpf(x), mpmath.mpf(0), mpmath.mpf(0), n + 1
        while True:
            g = m * m - 1
            w = mpmath.exp(-x * g)
            r, e = r + w, e + g * w
            if x * m * m > 1 and g * w <= e * mpmath.mpf(10) ** -dps:
                return r, e
            m += 1


def theta_tails(x: float, k: int, dps: int = 50):
    """The parts of 1 + r and of e (as box_tails(x, 1) gives r and e) that the
    dual terms j > k of the theta transformation carry, as mpmath numbers.

    With s = (pi/x)^(1/2) and y = pi^2/x, sum_{n>=1} e^(-x n^2) = s ((1 - 1/s)/2 + D)
    and sum n^2 e^(-x n^2) = s (1/2 + D - 2F)/(2x), D = sum_j e^(-y j^2) and
    F = sum_j y j^2 e^(-y j^2); 1 + r and e are e^x times the first sum and
    times the second less the first.  Summed until a term falls below
    10^-dps, with dps digits.
    """
    with mpmath.workdps(dps):
        x = mpmath.mpf(x)
        s, y = mpmath.sqrt(mpmath.pi / x), mpmath.pi**2 / x
        d, f, j = mpmath.mpf(0), mpmath.mpf(0), k + 1
        while True:
            w = mpmath.exp(-y * j * j)
            d, f = d + w, f + y * j * j * w
            if y * j * j * w < mpmath.mpf(10) ** -dps:
                grow = mpmath.exp(x) * s
                return grow * d, grow * ((d - 2 * f) / (2 * x) - d)
            j += 1


def theta_sums(x: float, dps: int = 50):
    """(r, e) of box_tails(x, 1) by the theta transformation (theta_tails at k = 0
    plus the closed parts), at any x > 0, as mpmath numbers."""
    with mpmath.workdps(dps):
        tail_z, tail_e = theta_tails(x, 0, dps)
        x = mpmath.mpf(x)
        grow, b = mpmath.exp(x) * mpmath.sqrt(mpmath.pi / x), (1 - mpmath.sqrt(x / mpmath.pi)) / 2
        return grow * b - 1 + tail_z, grow * (1 / (4 * x) - b) + tail_e

"""Second routes to quantities the package computes one way, for tests only."""
import mpmath
import numpy as np

from szilard.demon import coupling_unitary
from szilard.infodyn import DensityMatrix, partial_trace, trace_distance, vn_entropy


def block_spectrum(blocks: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian (K, b, b) stack by LAPACK, 2x2 blocks included.

    DensityMatrix takes 2x2 blocks in closed form; this is the general route.
    """
    return np.sort(np.linalg.eigvalsh(blocks), axis=None)


def mutual_information(rho: DensityMatrix) -> float:
    """I_mu = S(gas) + S(demon) - S(joint) of a bipartite state, in units of k_B.

    premeasure books the same three entropies of its own states, so the
    readoff's di_mu must equal the difference of this value across it.
    """
    s_gas = vn_entropy(partial_trace(rho, "gas"))
    s_demon = vn_entropy(partial_trace(rho, "demon"))
    return s_gas + s_demon - vn_entropy(rho)


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

"""Second routes to quantities the package computes one way, for tests only."""
import numpy as np

from szilard.infodyn import DensityMatrix, partial_trace, vn_entropy


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

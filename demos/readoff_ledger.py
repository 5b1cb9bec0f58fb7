"""Entropy bookkeeping for one readoff, and why reversal needs the record.

The apparatus couples to the divided box, the pointer swings to D_L or D_R
with the molecule's side, and three numbers move: the pointer entropy rises
by ln 2, the gas marginal loses its cross-barrier coherences, and the
mutual information absorbs both.  The joint entropy never moves because the
coupling is unitary.  The gas marginal moves by its coherences: in trace
distance by sum_k p_k tanh(beta delta_k)/2, the sum of the L_k<->R_k
entries.  Undoing the unitary recovers the initial state from the
correlated output, but not from the product of its marginals.
"""
import math

from szilard.demon import product_of_marginals, reverse_readoff
from szilard.engine import CycleConfig, readoff
from szilard.infodyn import partial_trace, trace_distance
from szilard.spectral import PhysicalParams, analytic_pairs


def main():
    p = PhysicalParams(T=25.0, d=0.02)
    print(f"T={p.T}, d={p.d}: beta*delta_1 = {p.beta * analytic_pairs(p, 1)[0][1]:.5f}")

    for label, keep in (("ideal (dephased gas)", False), ("with coherences", True)):
        rec = readoff(CycleConfig(params=p, n_side=11, coherences=keep))
        print()
        print(f"--- {label} ---")
        print(f"  dS_demon          = {rec.ds_demon:+.12f}   (ln 2 = {math.log(2):.12f})")
        print(f"  dS_gas            = {rec.ds_gas:+.12f}")
        print(f"  dS_joint          = {rec.ds_joint:+.2e}   (zero by unitary invariance)")
        print(f"  dI_mu             = {rec.di_mu:+.12f}")
        print(f"  balance residual  = {rec.balance_residual:.2e}   (zero by unitary invariance)")

    rec = readoff(CycleConfig(params=p, n_side=11))
    print()
    td = trace_distance(partial_trace(rec.pre, "gas"), partial_trace(rec.post, "gas"))
    # p_k tanh(beta delta_k) = e^(-beta E_k) sinh(beta delta_k) / sum_j e^(-beta E_j) cosh(...)
    bw = [(math.exp(-p.beta * e), p.beta * d) for e, d in analytic_pairs(p, 11)]
    closed = sum(w * math.sinh(x) for w, x in bw) / sum(w * math.cosh(x) for w, x in bw) / 2
    print(f"gas-marginal trace distance     = {td!r}")
    print(f"sum_k p_k tanh(beta delta_k)/2  = {closed!r}")
    lost = reverse_readoff(rec, product_of_marginals(rec.post))
    print(f"reversal after dropping correlations: recovered={lost.recovered}, "
          f"distance={lost.distance:.3f}")
    print()
    print("holding the record, the readoff is a no-op; lose it and half the")
    print("state (in trace distance) is gone for good")


if __name__ == "__main__":
    main()

"""Entropy bookkeeping for one readoff, and why reversal needs the record.

The apparatus couples to the divided box, the pointer swings to D_L or D_R
with the molecule's side, and three numbers move: the pointer entropy rises
by ln 2, the gas marginal loses its cross-barrier coherences, and the
mutual information absorbs both.  The joint entropy never moves because the
coupling is unitary.  Undoing the unitary recovers the initial state from
the correlated output, but not from the product of its marginals.
"""
import math

from szilard.demon import product_of_marginals, reverse_readoff
from szilard.engine import CycleConfig, readoff
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
        print(f"  dS_joint          = {rec.ds_joint:+.2e}   (unitary: stays put)")
        print(f"  dI_mu             = {rec.di_mu:+.12f}")
        print(f"  balance residual  = {rec.balance_residual:.2e}")

    rec = readoff(CycleConfig(params=p, n_side=11))
    print()
    back = reverse_readoff(rec)
    print(f"reversal on the correlated state: recovered={back.recovered}, "
          f"distance={back.distance:.2e}")
    lost = reverse_readoff(rec, product_of_marginals(rec.post))
    print(f"reversal after dropping correlations: recovered={lost.recovered}, "
          f"distance={lost.distance:.3f}")
    print()
    print("holding the record, the readoff is a no-op; lose it and half the")
    print("state (in trace distance) is gone for good")


if __name__ == "__main__":
    main()

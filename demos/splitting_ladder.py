"""Doublet ladder of the divided box, and how fast the splitting dies.

Inserting a barrier of width d and height U into the box folds the spectrum
into near-degenerate pairs.  The half-splitting delta_k measures how fast a
molecule caught on one side leaks to the other; it falls exponentially in
d with rate sqrt(2m(U - E))/hbar.  This script prints the first few
doublets beside the square-double-well asymptotic form of each splitting,
then fits the decay rate from a sweep over d and compares it to that
exponent.
"""
import math

import numpy as np

from szilard.spectral import (
    PhysicalParams,
    barrier_spectrum,
    splitting_estimate,
)


def main():
    p = PhysicalParams(d=0.05, U=5000.0)
    print(f"box L={p.L}, barrier d={p.d}, U={p.U}")
    print(f"{'pair':>4}  {'energy':>12}  {'delta_k':>12}  {'estimate':>12}  {'ratio':>10}")
    for pair in barrier_spectrum(p, 5):
        est = splitting_estimate(p, pair)
        print(
            f"{pair.k:>4}  {pair.energy:>12.6f}  {pair.delta:>12.6e}  "
            f"{est:>12.6e}  {pair.delta / est:>10.7f}"
        )
    print()
    print("the estimate 4E_k(1 - E_k/U) e^(-kappa_k d)/(1 + kappa_k w) reads each")
    print("exact level E_k and is off by about e^(-2 kappa_k d); the ground")
    print("doublet's decay rate in d follows its exponent, up to what the")
    print("prefactor's own d-dependence adds:")
    print()

    ds, deltas, energies = [], [], []
    for i in range(9):
        d = round(0.02 + 0.01 * i, 2)
        pd = PhysicalParams(d=d, U=p.U)
        pair = barrier_spectrum(pd, 1)[0]
        ds.append(d)
        deltas.append(pair.delta)
        energies.append(pair.energy)
        print(f"  d={d:.2f}  delta_1={pair.delta:.6e}")

    slope = np.polyfit(ds, np.log(deltas), 1)[0]
    kappa = math.sqrt(2.0 * p.mass * (p.U - float(np.mean(energies)))) / p.hbar
    print()
    print(f"fitted d ln(delta)/dd = {slope:.3f}")
    print(f"-sqrt(2m(U - E_1))/hbar = {-kappa:.3f}")
    print(f"relative deviation      = {abs(slope + kappa) / kappa:.2%}")


if __name__ == "__main__":
    main()

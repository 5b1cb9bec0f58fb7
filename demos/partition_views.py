"""Three routes to the same partition function.

The exact series sums exp(-beta eps n^2) directly.  The theta-function form
resums it so a handful of terms suffice at high temperature.  The classical
form Z = L/lambda_th drops the wall correction entirely and is off by
about 1/(2Z) no matter how hot the box gets.  Each row below prints all
three with their self-reported regime flags.
"""
from szilard.spectral import PhysicalParams
from szilard.thermo import partition_exact, partition_highT, partition_theta


def main():
    print(f"{'T':>10} {'eps*beta':>10} {'Z_exact':>14} {'Z_theta':>14} "
          f"{'Z_classical':>14} {'theta_ok':>8} {'cl_ok':>6}")
    for T in (1.0, 5.0, 25.0, 100.0, 500.0, 5000.0):
        p = PhysicalParams(T=T)
        exact = partition_exact(p, p.beta)
        theta = partition_theta(p.sigma)
        classical = partition_highT(p)
        print(
            f"{T:>10.1f} {p.eps * p.beta:>10.4f} {exact.Z:>14.8f} "
            f"{theta.Z:>14.8f} {classical.Z:>14.8f} "
            f"{str(theta.regime_ok).lower():>8} {str(classical.regime_ok).lower():>6}"
        )
    print()
    p = PhysicalParams(T=5000.0)
    exact = partition_exact(p, p.beta)
    classical = partition_highT(p)
    gap = classical.Z - exact.Z
    print(f"at T=5000 the classical form misses by {gap:.6f}, which is the")
    print(f"half-state wall term: 1/2 within {abs(gap - 0.5):.1e}")


if __name__ == "__main__":
    main()

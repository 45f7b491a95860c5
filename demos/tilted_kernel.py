"""A genuinely non-hermitian ensemble, sampled exactly.

Tilting the dual family Q_k = P_k + eps P_{k+N} keeps biorthogonality but
breaks kernel symmetry.  On a 4-atom measure every pair probability, the
minor det L[S] of the kernel against counting measure, can be enumerated,
so the sampler's law is checked in total variation.
"""

from itertools import combinations

import numpy as np

from polyens import (
    PolynomialEnsemble,
    classical_table,
    equilibrium_measure,
    sample_replicas,
    stream,
)

REPLICAS = 20_000


def main():
    table = classical_table("chebyshev", 2, pad=1)
    base = PolynomialEnsemble.from_table(table, equilibrium_measure(-1, 1, 4), N=2)
    tilted = base.tilt_nonorthogonal(
        np.array([[0.05, 0.0], [0.0, 0.05]]), validate=True, rng=stream(1)
    )
    # L_ij = sqrt(w_i) K(x_i, x_j) sqrt(w_j), the kernel against counting measure
    L = tilted.kernel_matrix()
    print("kernel asymmetry max |L - L^T| =", f"{np.max(np.abs(L - L.T)):.4f}")

    pairs = list(combinations(range(4), 2))
    law = {(i, j): float(np.linalg.det(L[np.ix_([i, j], [i, j])])) for i, j in pairs}
    print("enumerated pair law sums to", f"{sum(law.values()):.10f}")

    idx, _ = sample_replicas(tilted, REPLICAS, seed=3)
    counts = {p: 0 for p in pairs}
    for r in range(REPLICAS):
        counts[tuple(sorted(idx[r]))] += 1

    print(f"\n{'pair':>8} {'exact':>10} {'empirical':>10}")
    tv = 0.0
    for p in pairs:
        emp = counts[p] / REPLICAS
        tv += 0.5 * abs(emp - law[p])
        print(f"{str(p):>8} {law[p]:>10.5f} {emp:>10.5f}")
    print(f"\ntotal variation over {REPLICAS} draws: {tv:.4f}")


if __name__ == "__main__":
    main()

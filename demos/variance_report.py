"""Linear-statistic fluctuations three ways: exact, limiting, Monte Carlo.

Var[sum x_i] of the GUE ensemble equals 1 at every N; the demo contrasts
the exact trace formula, the limiting Chebyshev sum (1/4) sum_k k c_k^2
over the coefficients of f(2a cos t), and a replica estimate with
jackknife error bars, then prints the higher cumulants (the CLT says they
vanish).
"""

import numpy as np

from polyens import (
    classical_table,
    cumulants,
    limiting_variance,
    sample_replicas,
    scaled_hermite_measure,
    variance_power,
    PolynomialEnsemble,
)

N = 40
REPLICAS = 3000


def main():
    table = classical_table("gue", N, pad=4)
    ens = PolynomialEnsemble.from_table(table, scaled_hermite_measure(N, 256), N=N)

    for ell in (1, 2):
        exact = variance_power(table, ell)
        lim = limiting_variance(lambda x, p=ell: x**p, a=float(table.coeff(N - 1, N)))
        vals, _ = sample_replicas(
            ens, REPLICAS, seed=11, statistic=lambda pts, p=ell: float(np.sum(pts**p))
        )
        rep = cumulants(vals)
        print(f"statistic sum x^{ell}:")
        print(f"  exact variance      {exact:.6f}")
        print(f"  Chebyshev limit     {lim:.6f}")
        print(f"  MC k2 ({REPLICAS} reps) {rep.variance:.4f} +- {rep.se[2]:.4f}")
        print(f"  MC k3               {rep.k[3]:+.4f} +- {rep.se[3]:.4f}")
        print(f"  MC k4               {rep.k[4]:+.4f} +- {rep.se[4]:.4f}")
        print()


if __name__ == "__main__":
    main()

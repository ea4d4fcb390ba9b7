"""Degree-volume moments: closed forms vs sampled graph ensembles.

The expected-degree model admits exact formulas for the mean and variance
of the total degree D and the collision sum D2 = sum_v deg(v)(deg(v) - 1).
This script samples ensembles, compares against the formulas, and shows
the Chebyshev concentration estimate doing its job.
"""

import math

from coinwalk.generators import GenSpec, uniform_weights, weights_for
from coinwalk.moments import (
    chebyshev_relative,
    closed_form_moments,
    ensemble_estimate,
    er_moments,
)


def compare(title, spec, cf, replicates, seed):
    est = ensemble_estimate(spec, replicates=replicates, seed=seed)
    se_d = math.sqrt(est.var_D / replicates)
    se_d2 = math.sqrt(est.var_D2 / replicates)
    print(title)
    print(f"  E[D]   closed {cf.ED:12.4f}   sampled {est.mean_D:12.4f} "
          f"+/- {se_d:.4f}")
    print(f"  Var(D) closed {cf.VarD:12.4f}   sampled {est.var_D:12.4f}")
    print(f"  E[D2]  closed {cf.ED2:12.4f}   sampled {est.mean_D2:12.4f} "
          f"+/- {se_d2:.4f}")
    print(f"  Var(D2) bound {cf.VarD2_bound:12.4f}   sampled {est.var_D2:12.4f}"
          f"   (bound holds: {est.var_D2 <= cf.VarD2_bound})")
    print()


def main():
    replicates = 20000

    spec = GenSpec(family="expected_degree", n=4, w=2.0)
    cf = closed_form_moments(uniform_weights(4, 2.0))
    compare("uniform weights, n = 4, w = 2 (every pair probability = 0.5):",
            spec, cf, replicates, seed=11)

    n, p = 100, 0.08
    spec = GenSpec(family="expected_degree", n=n, w=n * p)
    cf = er_moments(n, p)
    compare(f"uniform weights matching G({n}, {p}) with loops:",
            spec, cf, replicates, seed=12)

    spec = GenSpec(family="expected_degree", n=2000, gamma=3.0, d=5.0, m=60.0)
    cf = closed_form_moments(weights_for(spec))
    compare("power-law weights, n = 2000, gamma = 3, d = 5, m = 60:",
            spec, cf, 2000, seed=13)

    print("Chebyshev bound on relative deviation of D2 (power-law case):")
    for eps in (0.5, 0.2, 0.1, 0.05):
        bound = chebyshev_relative(cf.ED2, cf.VarD2_bound, eps)
        print(f"  P(|D2/E[D2] - 1| >= {eps:4.2f}) <= {bound:.4f}")
    print()
    print("the bound shrinks as n grows at fixed gamma, d and m:")
    for n in (2000, 20000, 200000):
        spec = GenSpec(family="expected_degree", n=n, gamma=3.0, d=5.0, m=60.0)
        cf = closed_form_moments(weights_for(spec))
        bound = chebyshev_relative(cf.ED2, cf.VarD2_bound, 0.1)
        print(f"  n = {n:>7}  P(|D2/E[D2] - 1| >= 0.10) <= {bound:.5f}")


if __name__ == "__main__":
    main()

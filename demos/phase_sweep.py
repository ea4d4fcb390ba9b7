"""Mini sweep: the meeting-rate ratio n * sum(pi^2) across gamma and n.

With power-law expected degrees (exponent gamma, mean d, cutoff
m = sqrt(n*d)) the normalized meeting rate is flat in n for gamma > 3,
grows like n^((3-gamma)/2) for gamma < 3, and picks up a log factor at
the boundary. This script generates one graph per grid point and prints
the measured ratios next to the regime predictions.
"""

import math

from coinwalk.generators import GenSpec, sampler_for
from coinwalk.graph_core import degree_statistics
from coinwalk.moments import predict_scaling
from coinwalk.rng import derive_seed


def measured_ratio(n, gamma, seed):
    d = 5.0
    m = math.sqrt(n * d)
    spec = GenSpec(family="expected_degree", n=n, gamma=gamma, d=d, m=m,
                   strict=False)
    g = sampler_for(spec)(seed)
    return g.n * degree_statistics(g).coincidence_rate


def main():
    gammas = (2.5, 3.0, 3.5)
    ns = (10**3, 10**4, 10**5)
    print("n * sum(pi^2), one sampled graph per point, d = 5, m = sqrt(n*d)")
    print("-" * 64)
    print(f"{'gamma':>6}", *(f"{'n=%d' % n:>12}" for n in ns), "  regime", sep="")
    table = []
    for gi, gamma in enumerate(gammas):
        ratios = [measured_ratio(n, gamma, derive_seed(42, gi * len(ns) + ni))
                  for ni, n in enumerate(ns)]
        table.append(ratios)
        pred = predict_scaling(gamma, 5.0, math.sqrt(ns[-1] * 5.0))
        print(f"{gamma:6.1f}", *(f"{r:12.4f}" for r in ratios), f"  {pred.regime}", sep="")
    print()
    print("log-log growth in n (slope between consecutive points):")
    for gamma, ratios in zip(gammas, table):
        slopes = [math.log(ratios[i + 1] / ratios[i]) / math.log(ns[i + 1] / ns[i])
                  for i in range(len(ns) - 1)]
        target = max(0.0, (3.0 - gamma) / 2.0)
        print(f"  gamma = {gamma}: slopes "
              + ", ".join(f"{s:+.3f}" for s in slopes)
              + f"   (theory: {target:+.3f} with m = sqrt(n*d))")
    print()
    print("regime predictions at fixed d = 5, m = 100:")
    for gamma in (2.2, 2.8, 3.0, 3.3, 4.5):
        pred = predict_scaling(gamma, 5.0, 100.0)
        log_note = " * log(m/d)" if pred.log_factor else ""
        print(f"  gamma = {gamma:3.1f}  {pred.regime:<15} "
              f"leading term ~ {pred.leading_estimate:10.4f} "
              f"* (m/d)^{pred.growth_exponent_in_md:.2f}{log_note}")


if __name__ == "__main__":
    main()

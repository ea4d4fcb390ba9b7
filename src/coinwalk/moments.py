"""Closed-form degree moments and their asymptotic scaling regimes.

Everything here is exact algebra over a weight sequence or its power
sums S_k = sum(w_i^k), plus the asymptotic evaluation of weight moments
for the power-law family.  Conventions match the samplers: pair (u, v)
is an edge with probability w_u w_v / W independently, vertices carry a
self-loop with probability w_v^2 / W, and a loop adds exactly 1 to the
degree.  D is the total degree, D2 = sum over vertices of deg*(deg-1).

Under those conventions E[deg(v)] = w_v exactly, and:

    E[D]    = W
    Var(D)  = 2*(W - S2^2/W^2) - (S2/W - S4/W^2)
    E[D2]   = S2 * (1 - S2/W^2)
    Var(D2) <= 4*S3 + 2*S2 + 4*S2^2/W   (upper bound, not exact)

:func:`closed_form_moments` evaluates all four from one pass of power sums.

With uniform weights w = n*p these reduce to n^2 p, (2n-1)np(1-p),
n^2(n-1)p^2 and 8n^4p^3 + 2n^3p^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .generators import GenSpec, WeightSequence, sampler_for
from .graph_core import degree_statistics
from .rng import derive_seed

#: Width of the band around integer exponents treated as the boundary case.
BOUNDARY_TOL = 1e-9

REGIME_ABOVE_3 = "gamma_above_3"
REGIME_AT_3 = "gamma_at_3"
REGIME_BELOW_3 = "gamma_below_3"


# ---------------------------------------------------------------------------
# weight moments


def empirical_wbar_k(w: WeightSequence, k: int) -> float:
    """Sample moment: mean of w_i^k over the sequence."""
    if k < 1:
        raise ValueError("moment order k must be at least 1")
    return float(np.mean(w.weights**k))


def asymptotic_wbar_k(gamma: float, d: float, m: float, k: int) -> float:
    """Large-n limit of the k-th weight moment for power-law weights.

    Three regimes, split at gamma = k + 1 (a band of width ``BOUNDARY_TOL``
    counts as the boundary):

    * gamma > k + 1: the moment converges, no m dependence;
    * gamma = k + 1: logarithmic growth in m / d;
    * gamma < k + 1: polynomial growth m^(k + 1 - gamma).

    Valid when d stays bounded below, m grows at most like sqrt(n*d), and
    m/d grows slower than n^(1/(gamma-1)).
    """
    if k < 2:
        raise ValueError("asymptotic moments are defined for k >= 2")
    if not all(map(math.isfinite, (gamma, d, m))):
        raise ValueError("gamma, d and m must be finite")
    if gamma <= 2:
        raise ValueError("gamma must exceed 2")
    if d <= 0 or m <= d:
        raise ValueError("need 0 < d < m")
    if abs(gamma - (k + 1)) < BOUNDARY_TOL:
        return (k - 1) ** k / k ** (k - 1) * d**k * math.log(m / d)
    if gamma > k + 1:
        return (gamma - 2) ** k / ((gamma - 1) ** (k - 1) * (gamma - 1 - k)) * d**k
    return ((gamma - 2) ** (gamma - 1) / ((gamma - 1) ** (gamma - 2) * (k + 1 - gamma))
            * d ** (gamma - 1) * m ** (k + 1 - gamma))


# ---------------------------------------------------------------------------
# closed forms


@dataclass(frozen=True)
class ClosedFormMoments:
    """Exact first/second degree-sum moments plus the D2 variance bound."""

    ED: float
    VarD: float
    ED2: float
    VarD2_bound: float


def closed_form_moments(w: WeightSequence, strict: bool = True) -> ClosedFormMoments:
    """E[D], Var(D), E[D2] and the Var(D2) bound for the expected-degree model.

    The formulas describe the unclamped model, so they are exact when
    W >= max(w)^2; ``strict`` (the default) rejects weights outside that
    regime.  With ``strict=False`` the algebra is evaluated regardless --
    at mild violations (the m = sqrt(n*d) boundary) only the heaviest few
    pairs clamp and the formula error stays small.
    """
    if strict and not w.probabilities_valid():
        raise ValueError(
            "closed forms assume valid pair probabilities (W >= max(w)^2); "
            "pass strict=False to evaluate the algebra anyway")
    wts, total = w.weights, w.total
    s2, s3, s4 = float(np.sum(wts**2)), float(np.sum(wts**3)), float(np.sum(wts**4))
    return ClosedFormMoments(
        ED=total,
        VarD=2.0 * (total - s2**2 / total**2) - (s2 / total - s4 / total**2),
        ED2=s2 * (1.0 - s2 / total**2),
        VarD2_bound=4.0 * s3 + 2.0 * s2 + 4.0 * s2**2 / total,
    )


def er_moments(n: int, p: float) -> ClosedFormMoments:
    """Closed forms for uniform weights w = n*p in terms of n and p.

    These describe the expected-degree sampler with constant weights,
    self-loops included; the loop-free G(n, p) family differs from them
    by O(1/n) relative corrections.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not (0.0 < p <= 1.0):
        raise ValueError("p must lie in (0, 1]")
    nf = float(n)
    return ClosedFormMoments(
        ED=nf**2 * p,
        VarD=(2 * nf - 1) * nf * p * (1 - p),
        ED2=nf**2 * (nf - 1) * p**2,
        VarD2_bound=8 * nf**4 * p**3 + 2 * nf**3 * p**2,
    )


def chebyshev_relative(mean: float, variance: float, eps: float) -> float:
    """Chebyshev bound on P(|X - E X| >= eps * E X), clipped to 1."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if variance < 0:
        raise ValueError("variance must be non-negative")
    if mean == 0:
        raise ValueError("relative deviation is undefined at mean 0")
    return min(1.0, variance / (eps**2 * mean**2))


# ---------------------------------------------------------------------------
# scaling prediction


@dataclass(frozen=True)
class ScalingPrediction:
    """How the meeting-rate ratio n * sum(pi_v^2) scales with m at fixed d.

    ``leading_estimate`` evaluates (wbar_2 + d) / d^2, the large-n limit of
    n * sum(pi_v^2) with wbar_2 at its asymptotic value;
    ``growth_exponent_in_md`` is the power of m in that estimate (0 in the
    convergent regime) and ``log_factor`` marks the logarithmic
    boundary case.
    """

    regime: str
    leading_estimate: float
    growth_exponent_in_md: float
    log_factor: bool


def predict_scaling(gamma: float, d: float, m: float) -> ScalingPrediction:
    """Classify the gamma regime and evaluate the predicted meeting rate.

    The split is at gamma = 3 because n * sum(pi_v^2) tracks
    (wbar_2 + wbar) / wbar^2: above 3 the second weight moment converges
    and two independent stationary walkers meet at a size-independent
    rate; at 3 the rate grows like log(m/d); below 3 like m^(3-gamma).
    """
    wbar2 = asymptotic_wbar_k(gamma, d, m, 2)
    if abs(gamma - 3.0) < BOUNDARY_TOL:
        regime, exponent, logf = REGIME_AT_3, 0.0, True
    elif gamma > 3.0:
        regime, exponent, logf = REGIME_ABOVE_3, 0.0, False
    else:
        regime, exponent, logf = REGIME_BELOW_3, 3.0 - gamma, False
    return ScalingPrediction(
        regime=regime,
        leading_estimate=(wbar2 + d) / d**2,
        growth_exponent_in_md=exponent,
        log_factor=logf,
    )


# ---------------------------------------------------------------------------
# ensemble estimation


@dataclass(frozen=True)
class EnsembleStats:
    """Sample mean/variance of D and D2 over independent replicate graphs."""

    mean_D: float
    var_D: float
    mean_D2: float
    var_D2: float
    ens_replicates: int


def ensemble_estimate(spec: GenSpec, replicates: int, seed: int) -> EnsembleStats:
    """Monte Carlo moments of (D, D2) for a graph spec.

    Replicate r draws the graph with the derived seed (seed, r), so the
    estimate is independent of spec.seed.  Variances use the unbiased
    (ddof = 1) estimator.
    """
    if replicates < 2:
        raise ValueError("need at least 2 replicates for a variance estimate")
    draw = sampler_for(spec)
    d_vals = np.empty(replicates, dtype=np.float64)
    d2_vals = np.empty(replicates, dtype=np.float64)
    for r in range(replicates):
        stats = degree_statistics(draw(derive_seed(seed, r)))
        d_vals[r], d2_vals[r] = stats.D, stats.D2
    return EnsembleStats(
        mean_D=float(d_vals.mean()),
        var_D=float(d_vals.var(ddof=1)),
        mean_D2=float(d2_vals.mean()),
        var_D2=float(d2_vals.var(ddof=1)),
        ens_replicates=replicates,
    )

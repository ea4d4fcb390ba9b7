"""Tests for closed-form degree moments and scaling predictions.

Two independent oracles anchor this file:

* an exhaustive enumeration over all subgraphs of a tiny weight sequence,
  which yields the exact moments of (D, D2) with no shared algebra;
* the elementary integral that the empirical k-th weight moment converges
  to as n grows at fixed (gamma, d, m) -- the sequence is a left-endpoint
  Riemann sum of it -- which in turn converges to the asymptotic formula
  as m grows.
"""

import itertools
import math

import numpy as np
import pytest

from coinwalk.generators import GenSpec, WeightSequence, power_law_weights, uniform_weights
from coinwalk.moments import (
    BOUNDARY_TOL,
    ClosedFormMoments,
    REGIME_ABOVE_3,
    REGIME_AT_3,
    REGIME_BELOW_3,
    asymptotic_wbar_k,
    chebyshev_relative,
    closed_form_moments,
    empirical_wbar_k,
    ensemble_estimate,
    er_moments,
    predict_scaling,
)


# ---------------------------------------------------------------------------
# oracle: exhaustive enumeration of the expected-degree model


def enumerate_moments(wvec):
    """Exact E/Var of (D, D2) by summing over all subgraphs, loops allowed."""
    n = len(wvec)
    total = sum(wvec)
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    probs = [min(1.0, wvec[i] * wvec[j] / total) for i, j in pairs]
    ed = ed_sq = ed2 = ed2_sq = 0.0
    for mask in itertools.product((0, 1), repeat=len(pairs)):
        prob = 1.0
        deg = [0] * n
        for present, (i, j), pp in zip(mask, pairs, probs):
            if present:
                prob *= pp
                deg[i] += 1
                if j != i:
                    deg[j] += 1
            else:
                prob *= 1.0 - pp
        if prob == 0.0:
            continue
        d_val = sum(deg)
        d2_val = sum(dv * (dv - 1) for dv in deg)
        ed += prob * d_val
        ed_sq += prob * d_val * d_val
        ed2 += prob * d2_val
        ed2_sq += prob * d2_val * d2_val
    return ed, ed_sq - ed**2, ed2, ed2_sq - ed2**2


ENUM_WEIGHTS = [
    [2.0, 2.0, 2.0, 2.0],
    [1.5, 1.0, 0.5],
    [2.5, 2.0, 1.5, 1.0],
    [0.8],
]


@pytest.mark.parametrize("wvec", ENUM_WEIGHTS)
def test_closed_forms_match_enumeration(wvec):
    ed, var_d, ed2, var_d2 = enumerate_moments(wvec)
    w = WeightSequence(weights=np.array(wvec))
    cf = closed_form_moments(w)
    assert cf.ED == pytest.approx(ed, rel=1e-12, abs=1e-12)
    assert cf.VarD == pytest.approx(var_d, rel=1e-12, abs=1e-12)
    assert cf.ED2 == pytest.approx(ed2, rel=1e-12, abs=1e-12)
    assert var_d2 <= cf.VarD2_bound


def test_uniform_w2_n4_reference_values():
    cf = closed_form_moments(uniform_weights(4, 2.0))
    assert cf.ED == pytest.approx(8.0, rel=1e-14)
    assert cf.VarD == pytest.approx(7.0, rel=1e-14)
    assert cf.ED2 == pytest.approx(12.0, rel=1e-14)
    assert cf.VarD2_bound == pytest.approx(288.0, rel=1e-14)
    # the enumerated exact Var(D2) for this sequence is 69
    assert enumerate_moments([2.0] * 4)[3] == pytest.approx(69.0, rel=1e-12)


def test_closed_form_strict_validity():
    bad = uniform_weights(2, 5.0)
    with pytest.raises(ValueError, match="strict=False"):
        closed_form_moments(bad)
    cf = closed_form_moments(bad, strict=False)
    assert cf.ED == 10.0
    assert math.isfinite(cf.VarD)


def test_er_moments_identity_grid():
    # uniform weights w = n*p must reproduce the n, p closed forms exactly
    for n in (10, 100, 1000):
        for p in (0.01, 0.1, 0.5):
            er = er_moments(n, p)
            cf = closed_form_moments(uniform_weights(n, n * p), strict=False)
            assert er.ED == pytest.approx(cf.ED, rel=1e-12)
            assert er.VarD == pytest.approx(cf.VarD, rel=1e-12)
            assert er.ED2 == pytest.approx(cf.ED2, rel=1e-12)
            assert er.VarD2_bound == pytest.approx(cf.VarD2_bound, rel=1e-12)


def test_er_moments_reference_point():
    er = er_moments(10, 0.5)
    assert er.ED == pytest.approx(50.0)
    assert er.VarD == pytest.approx(47.5)
    assert er.ED2 == pytest.approx(225.0)
    assert er.VarD2_bound == pytest.approx(8 * 10**4 * 0.125 + 2 * 10**3 * 0.25)
    with pytest.raises(ValueError):
        er_moments(0, 0.5)
    # an empty G(n, 0) has every moment exactly zero
    assert er_moments(10, 0.0) == ClosedFormMoments(ED=0.0, VarD=0.0, ED2=0.0, VarD2_bound=0.0)
    with pytest.raises(ValueError):
        er_moments(10, 1.5)


# ---------------------------------------------------------------------------
# weight moments: empirical -> integral -> asymptotic


def integral_wbar_k(gamma, d, m, k):
    """n -> infinity limit of the empirical k-th weight moment.

    The weights are f(i/n) for f(x) = m (1 + x/a)^(-1/(gamma-1)) with
    a = i0/n = (d (gamma-2) / (m (gamma-1)))^(gamma-1), so the empirical
    moment is a Riemann sum of integral_0^1 f(x)^k dx, which is elementary.
    """
    a = (d * (gamma - 2) / (m * (gamma - 1))) ** (gamma - 1)
    e = k / (gamma - 1)
    if abs(e - 1) < 1e-12:
        return m**k * a * math.log1p(1 / a)
    return m**k * a / (1 - e) * ((1 + 1 / a) ** (1 - e) - 1)


@pytest.mark.parametrize(
    "k, gamma, m, rel_tol",
    [
        (2, 4.0, 40.0, 1e-4),
        (2, 2.5, 300.0, 2e-3),
        (3, 4.0, 80.0, 3e-3),
    ],
)
def test_empirical_moment_converges_to_integral(k, gamma, m, rel_tol):
    d = 5.0
    w = power_law_weights(10**6, gamma, d, m)
    emp = empirical_wbar_k(w, k)
    assert emp == pytest.approx(integral_wbar_k(gamma, d, m, k), rel=rel_tol)


# per-regime final tolerance at m = 1e8: convergent regimes are fast
# (O((d/m)^(gamma-1-k))), the log boundary decays like 1/log(m/d)
INTEGRAL_LIMIT_CASES = [
    (2, 4.0, 1e-7),
    (2, 3.0, 5e-2),
    (2, 2.5, 1e-3),
    (3, 5.5, 1e-7),
    (3, 4.0, 5e-2),
    (3, 3.2, 1e-5),
    (4, 6.5, 1e-7),
    (4, 5.0, 5e-2),
    (4, 3.5, 1e-7),
]


@pytest.mark.parametrize("k, gamma, final_tol", INTEGRAL_LIMIT_CASES)
def test_asymptotic_moment_is_large_m_limit_of_integral(k, gamma, final_tol):
    d = 5.0
    devs = []
    for m in (1e2, 1e4, 1e6, 1e8):
        ratio = integral_wbar_k(gamma, d, m, k) / asymptotic_wbar_k(gamma, d, m, k)
        devs.append(abs(ratio - 1.0))
    assert all(devs[i] > devs[i + 1] for i in range(len(devs) - 1))
    assert devs[-1] < final_tol


def test_asymptotic_reference_values():
    # gamma > k+1, no m dependence: (gamma-2)^k / ((gamma-1)^(k-1) (gamma-1-k)) d^k
    assert asymptotic_wbar_k(4.0, 10.0, 100.0, 2) == pytest.approx(400.0 / 3.0, rel=1e-12)
    # gamma = k+1 boundary: (k-1)^k / k^(k-1) d^k log(m/d)
    assert asymptotic_wbar_k(3.0, 2.0, 200.0, 2) == pytest.approx(
        2.0 * math.log(100.0), rel=1e-12
    )
    # the boundary band has positive width
    assert asymptotic_wbar_k(3.0 + BOUNDARY_TOL / 4, 2.0, 200.0, 2) == pytest.approx(
        asymptotic_wbar_k(3.0, 2.0, 200.0, 2), rel=1e-12
    )


def test_asymptotic_m_independence_above_boundary():
    assert asymptotic_wbar_k(4.0, 10.0, 100.0, 2) == asymptotic_wbar_k(4.0, 10.0, 9999.0, 2)


def test_asymptotic_validation():
    with pytest.raises(ValueError, match="k >= 2"):
        asymptotic_wbar_k(3.0, 2.0, 20.0, 1)
    with pytest.raises(ValueError, match="gamma"):
        asymptotic_wbar_k(2.0, 2.0, 20.0, 2)
    with pytest.raises(ValueError, match="0 < d < m"):
        asymptotic_wbar_k(3.0, 20.0, 2.0, 2)
    for args in ((math.nan, 2.0, 20.0), (3.0, 2.0, math.inf), (math.inf, 2.0, 20.0)):
        with pytest.raises(ValueError, match="must be finite"):
            asymptotic_wbar_k(*args, 2)
    with pytest.raises(ValueError, match="at least 1"):
        empirical_wbar_k(uniform_weights(3, 1.0), 0)


# ---------------------------------------------------------------------------
# Chebyshev and scaling prediction


def test_chebyshev_relative():
    # P(|X - mu| >= eps mu) <= Var / (eps mu)^2, clipped to 1
    assert chebyshev_relative(10.0, 0.5, 0.1) == pytest.approx(0.5)
    assert chebyshev_relative(10.0, 4.0, 0.5) == pytest.approx(0.16)
    assert chebyshev_relative(10.0, 4.0, 0.1) == 1.0
    assert chebyshev_relative(10.0, 1e6, 0.1) == 1.0
    with pytest.raises(ValueError):
        chebyshev_relative(10.0, 4.0, 0.0)
    with pytest.raises(ValueError):
        chebyshev_relative(10.0, -1.0, 0.1)
    with pytest.raises(ValueError):
        chebyshev_relative(0.0, 4.0, 0.1)


def test_predict_scaling_regimes():
    lo = predict_scaling(2.5, 5.0, 500.0)
    assert lo.regime == REGIME_BELOW_3
    assert lo.growth_exponent_in_md == pytest.approx(0.5)
    assert not lo.log_factor

    mid = predict_scaling(3.0, 5.0, 500.0)
    assert mid.regime == REGIME_AT_3
    assert mid.growth_exponent_in_md == 0.0
    assert mid.log_factor

    hi = predict_scaling(3.8, 5.0, 500.0)
    assert hi.regime == REGIME_ABOVE_3
    assert hi.growth_exponent_in_md == 0.0
    assert not hi.log_factor

    # the estimate is (wbar_2 + d) / d^2 at the asymptotic wbar_2
    for pred, gamma in ((lo, 2.5), (mid, 3.0), (hi, 3.8)):
        wbar2 = asymptotic_wbar_k(gamma, 5.0, 500.0, 2)
        assert pred.leading_estimate == pytest.approx((wbar2 + 5.0) / 25.0, rel=1e-12)


# ---------------------------------------------------------------------------
# ensemble estimation


def test_ensemble_estimate_deterministic():
    spec = GenSpec(family="expected_degree", n=4, w=2.0)
    a = ensemble_estimate(spec, replicates=300, seed=17)
    b = ensemble_estimate(spec, replicates=300, seed=17)
    assert a == b
    # replicate streams derive from the ensemble seed, not spec.seed
    other = GenSpec(family="expected_degree", n=4, w=2.0, seed=555)
    assert ensemble_estimate(other, replicates=300, seed=17) == a
    assert ensemble_estimate(spec, replicates=300, seed=18) != a


def test_ensemble_estimate_tracks_closed_forms():
    spec = GenSpec(family="expected_degree", n=4, w=2.0)
    est = ensemble_estimate(spec, replicates=4000, seed=5)
    assert est.ens_replicates == 4000
    # within 4 standard errors of the exact values (VarD = 7, VarD2 = 69)
    assert abs(est.mean_D - 8.0) < 4 * math.sqrt(7.0 / 4000)
    assert abs(est.mean_D2 - 12.0) < 4 * math.sqrt(69.0 / 4000)
    assert est.var_D == pytest.approx(7.0, rel=0.15)
    assert est.var_D2 <= 288.0


def test_ensemble_estimate_needs_two_replicates():
    spec = GenSpec(family="expected_degree", n=4, w=2.0)
    with pytest.raises(ValueError, match="at least 2"):
        ensemble_estimate(spec, replicates=1, seed=0)

"""End-to-end acceptance checks for the package's headline guarantees.

Each test prints exactly one PASS line (with the measured numbers) when its
criterion holds; a failure shows up as an ordinary pytest failure.  Seeds
are frozen so every run checks the same realizations; tolerances are stated
inline.  Thirteen criteria:

 1. exact stationary identities on regular families;
 2. mean coincidence time matches t * sum(pi^2) on four small graphs;
 2b. on a circulant at n = 1e5 it matches t/n within 4 standard errors
    of the exact Var(tau(t));
 3. the concavity upper bound on mean infection probability holds;
 4. the sample variance of tau matches the exact spectral Var(tau(t));
 4b. the mean infection probability matches its exact Feynman-Kac value;
 5. uniform-weight closed forms and the G(n, p)-style ensemble agree;
 6. small expected-degree ensemble matches exact moments and the
    variance bound;
 7. closed-form Var(D) tracks 2W for power-law weights at m = sqrt(n*d);
 8. relative D2 concentration tightens as n grows;
 9. the meeting-rate ratio n * sum(pi^2) shows the predicted phase
    behavior in the power-law exponent;
10. walker micro-properties (jump counts, occupancy);
11. byte-identical output across repeated runs and worker counts.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.linalg import expm

from coinwalk.cli import EXIT_OK, main
from coinwalk.generators import (
    GenSpec,
    gen_circulant,
    gen_complete,
    gen_gnp,
    gen_random_regular,
    power_law_weights,
    sampler_for,
    uniform_weights,
    weights_for,
)
from coinwalk.graph_core import (
    build_graph,
    degree_statistics,
    theorem1_bounds,
)
from coinwalk.moments import (
    closed_form_moments,
    ensemble_estimate,
    er_moments,
)
from coinwalk.rng import derive_seed
from coinwalk.walk_sim import SimConfig, simulate_batch


def report(label: str, detail: str) -> None:
    print(f"PASS {label}: {detail}")


def path3():
    return build_graph(3, [(0, 1), (1, 2)])


def star3():
    return build_graph(4, [(0, 1), (0, 2), (0, 3)])


# ---------------------------------------------------------------------------


def test_stationary_identity_on_regular_families():
    """sum(pi^2) equals 1/n to relative 1e-12 on every regular family."""
    start = time.perf_counter()
    worst = 0.0
    for n in range(2, 1001):
        rate = degree_statistics(gen_complete(n)).coincidence_rate
        worst = max(worst, abs(rate * n - 1.0))
    for n, k in ((10**4, 1), (10**4, 3), (10**4, 25), (999, 7)):
        rate = degree_statistics(gen_circulant(n, k)).coincidence_rate
        worst = max(worst, abs(rate * n - 1.0))
    for n, r, seed in ((10**4, 3, 5), (5000, 3, 6), (2000, 4, 7)):
        g = gen_random_regular(n, r, seed=seed)
        rate = degree_statistics(g).coincidence_rate
        worst = max(worst, abs(rate * n - 1.0))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12
    assert elapsed < 1.0
    report("stationary identity", f"worst |n*sum(pi^2) - 1| = {worst:.2e}, {elapsed:.2f}s")


# shared Monte Carlo runs for the coincidence mean and the infection bound:
# K_10 at t=100, K_2 at t=1000, P3 at t=800, star K_{1,3} at t=300
MC_CASES = (
    ("K_10", lambda: gen_complete(10), 100.0),
    ("K_2", lambda: gen_complete(2), 1000.0),
    ("P3", path3, 800.0),
    ("K_1_3", star3, 300.0),
)
# a connected G(12, 0.4) at t=50, for the exact variance and infection checks
GNP_CASE = ("gnp12", lambda: gen_gnp(12, 0.4, seed=12, require_connected=True), 50.0)
MC_REPLICATES = 10**5
MC_MASTER_SEED = 20260817
_MC_CACHE: dict[str, object] = {}


def mc_batch(name):
    if name not in _MC_CACHE:
        for label, build, t_horizon in MC_CASES + (GNP_CASE,):
            if label == name:
                cfg = SimConfig(t_horizon=t_horizon, replicates=MC_REPLICATES,
                                master_seed=MC_MASTER_SEED)
                _MC_CACHE[name] = simulate_batch(build(), cfg)
    return _MC_CACHE[name]


def test_mean_coincidence_time_matches_prediction():
    """Monte Carlo mean of tau is within 3 standard errors of t * sum(pi^2)."""
    start = time.perf_counter()
    zs = []
    for name, build, t_horizon in MC_CASES:
        batch = mc_batch(name)
        predicted = theorem1_bounds(build(), t_horizon, 0.0).expected_tau
        mean = float(batch.taus.mean())
        stderr = float(batch.taus.std(ddof=1)) / math.sqrt(MC_REPLICATES)
        z = abs(mean - predicted) / stderr
        zs.append((name, z))
        assert z <= 3.0, (name, mean, predicted, stderr)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    detail = ", ".join(f"{name} z={z:.2f}" for name, z in zs)
    report("coincidence mean", f"{detail} (1e5 replicates, {elapsed:.1f}s)")


def test_infection_probability_concavity_bound():
    """Mean infection probability respects 1 - exp(-beta t sum(pi^2)) + 3 SE."""
    margins = []
    for name, build, t_horizon in MC_CASES:
        taus = mc_batch(name).taus
        for beta in (0.1, 1.0):
            infection = -np.expm1(-beta * taus)
            mean = float(infection.mean())
            stderr = float(infection.std(ddof=1)) / math.sqrt(MC_REPLICATES)
            upper = theorem1_bounds(build(), t_horizon, beta).gamma_upper
            assert mean <= upper + 3.0 * stderr, (name, beta, mean, upper)
            margins.append(upper + 3.0 * stderr - mean)
    report("infection bound",
           f"8 graph/beta combinations, min slack {min(margins):.2e}")


def symmetrized_generator(g):
    """pi and S = D^{-1/2} A D^{-1/2} - I, the walk generator D^{-1} A - I
    conjugated by D^{1/2}; S is symmetric because the walk is reversible."""
    rows = np.repeat(np.arange(g.n), g.degrees)
    adj = np.zeros((g.n, g.n))
    np.add.at(adj, (rows, g.neighbors), 1.0)
    deg = g.degrees.astype(np.float64)
    return deg / deg.sum(), adj / np.sqrt(np.outer(deg, deg)) - np.eye(g.n)


def exact_tau_variance(g, t_horizon):
    """Var(tau(t)) for two independent stationary rate-1 walkers on g.

    Cov(1{X_0=Y_0}, 1{X_r=Y_r}) = sum_{v,w} pi_v^2 P_r(v,w)^2 - (sum pi^2)^2
    (Aldous & Fill, ch. 3), and Var(tau(t)) = 2 int_0^t (t - r) Cov(r) dr.
    With S = D^{-1/2} A D^{-1/2} - I = U diag(lam) U^T and
    M = U^T diag(pi) U, the first term is sum_{k,l} M_kl^2 exp(-a_kl r) with
    a_kl = -(lam_k + lam_l) >= 0, which integrates in closed form.
    """
    pi, sym = symmetrized_generator(g)
    lam, u = np.linalg.eigh(sym)
    m = u.T @ (pi[:, None] * u)
    a = np.maximum(-(lam[:, None] + lam[None, :]), 0.0)
    at = a * t_horizon
    small = at < 1e-8  # a = 0 up to rounding: the integral is t^2 / 2
    a_safe = np.where(small, 1.0, a)
    integral = np.where(small, t_horizon**2 / 2 - a * t_horizon**3 / 6,
                        (at + np.expm1(-at)) / a_safe**2)
    return 2.0 * float(np.sum(m**2 * integral)) - (t_horizon * float(pi @ pi))**2


def circulant_tau_variance(n, k, t_horizon):
    """Var(tau(t)) on the circulant C_n(1..k), exact at any n.

    The walk is regular, so pi is uniform and Cov(r) = (1/n^2) sum_{j != 0}
    exp(-a_j r) with a_j = 2 (1 - lam_j), where lam_j = (1/k) sum_{s=1..k}
    cos(2 pi j s / n) are the eigenvalues of the circulant's transition
    matrix.  Integrating as in ``exact_tau_variance``, Var(tau(t)) =
    (2/n^2) sum_{j != 0} (a_j t + exp(-a_j t) - 1) / a_j^2 = (2 t^2 / n^2)
    sum_j f(a_j t) with f(x) = (x - 1 + exp(-x)) / x^2.  a_j is summed as
    (4/k) sum_s sin^2(pi j s / n), which keeps its relative precision when
    it is tiny, and f takes its Taylor series sum_m (-x)^m / (m + 2)! below
    x = 1/2, where the closed form would cancel.
    """
    j = np.arange(1, n, dtype=np.int64)
    a = sum(np.sin(np.pi * (j * s % n) / n) ** 2 for s in range(1, k + 1)) * (4.0 / k)
    x = a * t_horizon
    small = x < 0.5
    f = np.empty_like(x)
    xs = x[small]
    series = np.zeros_like(xs)
    for m in range(16, -1, -1):  # Horner, from the 17th term down
        series = series * -xs + 1.0 / math.factorial(m + 2)
    f[small] = series
    xl = x[~small]
    f[~small] = (xl + np.expm1(-xl)) / xl**2
    return 2.0 * t_horizon**2 / n**2 * float(f.sum())


def test_mean_coincidence_time_on_a_large_circulant_is_t_over_n():
    """At n = 1e5 the mean of tau is t/n within 4 exact standard errors.

    This is the paper's regime, a large homogeneous graph, where the dense
    oracles above cannot run.  The SE is sqrt(Var(tau) / R) from the exact
    circulant variance, not from the sample, so it does not shrink with a
    run of few or short coincidences.  The closed form is first pinned to
    the dense spectral value on small circulants.
    """
    for n, k, t_horizon in ((9, 2, 3.0), (12, 1, 40.0), (30, 3, 2.5), (50, 2, 10.0)):
        exact = exact_tau_variance(gen_circulant(n, k), t_horizon)
        assert circulant_tau_variance(n, k, t_horizon) == pytest.approx(exact, rel=1e-12)
    n, k, t_horizon, reps = 10**5, 30, 100.0, 300_000
    start = time.perf_counter()
    taus = simulate_batch(gen_circulant(n, k), SimConfig(
        t_horizon=t_horizon, replicates=reps, master_seed=2008)).taus
    se = math.sqrt(circulant_tau_variance(n, k, t_horizon) / reps)
    z = (float(taus.mean()) - t_horizon / n) / se
    coinciding = int(np.count_nonzero(taus))
    assert abs(z) <= 4.0, (float(taus.mean()), se, coinciding)
    report("large circulant mean",
           f"C_1e5(30), t=100: z={z:+.2f} with exact SE, {coinciding} of {reps} "
           f"replicates coincided ({time.perf_counter() - start:.1f}s)")


def test_variance_of_tau_matches_exact_spectral_value():
    """Sample variance of tau is within 4 SE of the exact Var(tau(t)).

    E[tau] = t * sum(pi^2) holds even for walkers that never move, so the
    mean checks cannot see the jump dynamics; the variance depends on the
    walk's rate and its transition kernel.  SE of the sample variance is
    sqrt((m4 - s^4) / N) with m4 the fourth central sample moment.
    """
    star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    # numerical quadrature of 2 int_0^t (t - r) Cov(r) dr gives the same value
    assert exact_tau_variance(star, 15.0) == pytest.approx(2.4305555555555, rel=1e-9)
    zs = []
    for name, build, t_horizon in MC_CASES + (GNP_CASE,):
        taus = mc_batch(name).taus
        exact = exact_tau_variance(build(), t_horizon)
        dev = taus - taus.mean()
        s2 = float(dev.var(ddof=1))
        se = math.sqrt((float(np.mean(dev**4)) - s2**2) / MC_REPLICATES)
        z = (s2 - exact) / se
        zs.append((name, z))
        assert abs(z) <= 4.0, (name, s2, exact, se)
    detail = ", ".join(f"{name} z={z:+.2f}" for name, z in zs)
    report("coincidence variance", f"{detail} (1e5 replicates)")


def exact_escape_transform(g, t_horizon, beta):
    """E[exp(-beta tau(t))] for two independent stationary rate-1 walkers on g.

    Feynman-Kac on the product chain (X, Y): with Q = D^{-1} A - I and
    Delta = diag(1{x = y}), E[exp(-beta tau(t))] =
    (pi x pi)^T exp(t (Q x I + I x Q - beta Delta)) 1.  Conjugating by
    diag(sqrt(pi x pi)) turns the exponent into t H with the symmetric
    H = S x I + I x S - beta Delta, so the value is sum_k (U^T s)_k^2
    exp(t mu_k) over the eigenpairs (mu_k, U_k) of H, with s = sqrt(pi x pi).
    """
    pi, sym = symmetrized_generator(g)
    eye = np.eye(g.n)
    h = np.kron(sym, eye) + np.kron(eye, sym) - beta * np.diag(eye.ravel())
    mu, u = np.linalg.eigh(h)
    c = u.T @ np.sqrt(np.kron(pi, pi))
    return float(c**2 @ np.exp(t_horizon * mu))


def test_infection_probability_matches_exact_feynman_kac_value():
    """Mean infection probability 1 - exp(-beta tau) is within 4 SE of its
    exact value, at beta = 1 / (t sum(pi^2)), where it is mid-range.

    The concavity bound alone holds for walkers that never move; the exact
    Laplace transform depends on the holding rate and the jump kernel.
    """
    # on the star K_{1,3} the eigen-decomposition agrees with a direct matrix
    # exponential of the product generator, and beta = 0 gives exactly 1
    adj = np.zeros((4, 4))
    adj[0, 1:] = adj[1:, 0] = 1.0
    q = adj / adj.sum(axis=1, keepdims=True) - np.eye(4)
    pi = np.array([3.0, 1.0, 1.0, 1.0]) / 6.0
    gen = np.kron(q, np.eye(4)) + np.kron(np.eye(4), q) - 0.3 * np.diag(np.eye(4).ravel())
    direct = float(np.kron(pi, pi) @ expm(15.0 * gen) @ np.ones(16))
    star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    assert exact_escape_transform(star, 15.0, 0.3) == pytest.approx(direct, rel=1e-10)
    assert exact_escape_transform(star, 15.0, 0.0) == pytest.approx(1.0, rel=1e-12)
    zs = []
    for name, build, t_horizon in MC_CASES + (GNP_CASE,):
        g = build()
        beta = 1.0 / theorem1_bounds(g, t_horizon, 0.0).expected_tau
        exact = 1.0 - exact_escape_transform(g, t_horizon, beta)
        # Jensen's bound, strict because tau is not constant
        assert exact < theorem1_bounds(g, t_horizon, beta).gamma_upper
        infection = -np.expm1(-beta * mc_batch(name).taus)
        se = float(infection.std(ddof=1)) / math.sqrt(MC_REPLICATES)
        z = (float(infection.mean()) - exact) / se
        zs.append((name, z, exact))
        assert abs(z) <= 4.0, (name, float(infection.mean()), exact, se)
    detail = ", ".join(f"{name} z={z:+.2f} (exact {exact:.5f})" for name, z, exact in zs)
    report("infection probability", f"{detail} (1e5 replicates)")


def test_uniform_weight_closed_forms_and_ensemble():
    """Closed forms reduce exactly to the n, p formulas; a 10^4-replicate
    ensemble at n=200, w=10 (the G(200, 0.05) surrogate) matches them."""
    start = time.perf_counter()
    for n in (10, 100, 1000):
        for p in (0.01, 0.1, 0.5):
            er = er_moments(n, p)
            cf = closed_form_moments(uniform_weights(n, n * p), strict=False)
            assert er.ED == pytest.approx(cf.ED, rel=1e-12)
            assert er.VarD == pytest.approx(cf.VarD, rel=1e-12)
            assert er.ED2 == pytest.approx(cf.ED2, rel=1e-12)
            assert er.VarD2_bound == pytest.approx(cf.VarD2_bound, rel=1e-12)
    n, p, reps = 200, 0.05, 10**4
    spec = GenSpec(family="expected_degree", n=n, w=n * p)
    est = ensemble_estimate(spec, replicates=reps, seed=42)
    er = er_moments(n, p)
    z_d = abs(est.mean_D - er.ED) / math.sqrt(est.var_D / reps)
    z_d2 = abs(est.mean_D2 - er.ED2) / math.sqrt(est.var_D2 / reps)
    var_rel = abs(est.var_D - er.VarD) / er.VarD
    elapsed = time.perf_counter() - start
    assert z_d <= 3.0
    assert z_d2 <= 3.0
    assert var_rel <= 0.10
    assert est.var_D2 <= er.VarD2_bound
    assert elapsed < 120.0
    report("uniform-weight moments",
           f"9 exact identities; ensemble z_D={z_d:.2f} z_D2={z_d2:.2f} "
           f"var_D rel err {var_rel:.3f}, var_D2 {est.var_D2:.0f} <= "
           f"{er.VarD2_bound:.0f} ({elapsed:.1f}s)")


def test_small_expected_degree_ensemble_moments():
    """10^5 graphs at n=4, w=2: means within 3 SE of (8, 12), Var(D) within
    5% of 7, Var(D2) below its closed-form bound 288."""
    start = time.perf_counter()
    spec = GenSpec(family="expected_degree", n=4, w=2.0)
    reps = 10**5
    est = ensemble_estimate(spec, replicates=reps, seed=43)
    z_d = abs(est.mean_D - 8.0) / math.sqrt(est.var_D / reps)
    z_d2 = abs(est.mean_D2 - 12.0) / math.sqrt(est.var_D2 / reps)
    var_rel = abs(est.var_D - 7.0) / 7.0
    elapsed = time.perf_counter() - start
    assert z_d <= 3.0
    assert var_rel <= 0.05
    assert z_d2 <= 3.0
    assert est.var_D2 <= 288.0
    assert elapsed < 60.0
    report("small ensemble",
           f"z_D={z_d:.2f} var_D rel err {var_rel:.4f} z_D2={z_d2:.2f} "
           f"var_D2={est.var_D2:.1f} <= 288 ({elapsed:.1f}s)")


def test_variance_of_D_tracks_2W_for_power_law_weights():
    """Closed-form Var(D) / (2W) lies in [0.9, 1.1] at n=1e5, m=sqrt(n*d).

    At that maximal m the finite-n weight total W falls short of m^2 by a
    few percent, so the algebra is evaluated with strict=False.
    """
    start = time.perf_counter()
    n, d = 10**5, 5.0
    m = math.sqrt(n * d)
    ratios = {}
    for gamma in (2.5, 3.5):
        w = power_law_weights(n, gamma, d, m)
        var_d = closed_form_moments(w, strict=False).VarD
        ratios[gamma] = var_d / (2.0 * w.total)
        assert 0.9 <= ratios[gamma] <= 1.1, (gamma, ratios[gamma])
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report("Var(D) ~ 2W",
           f"ratios gamma=2.5: {ratios[2.5]:.6f}, gamma=3.5: {ratios[3.5]:.6f} "
           f"({elapsed:.2f}s)")


def test_concentration_of_D2_improves_with_n():
    """Mean |D2/E[D2] - 1| over 100 graphs strictly decreases across
    n = 1e3, 1e4, 1e5 for gamma in {2.5, 3.0, 3.5} (d=5, m=sqrt(n*d))."""
    start = time.perf_counter()
    gammas = (2.5, 3.0, 3.5)
    ns = (10**3, 10**4, 10**5)
    graphs_per_point = 100
    lines = []
    for gi, gamma in enumerate(gammas):
        devs = []
        for ni, n in enumerate(ns):
            d = 5.0
            m = math.sqrt(n * d)
            spec = GenSpec(family="expected_degree", n=n, gamma=gamma, d=d, m=m,
                           strict=False)
            ed2 = closed_form_moments(weights_for(spec), strict=False).ED2
            point_seed = derive_seed(1234, gi * len(ns) + ni)
            seeds = [derive_seed(point_seed, j) for j in range(graphs_per_point)]
            draw = sampler_for(spec, seeds)  # the replicates in lockstep
            acc = 0.0
            for s in seeds:
                stats = degree_statistics(draw(s))
                acc += abs(stats.D2 / ed2 - 1.0)
            devs.append(acc / graphs_per_point)
        assert devs[0] > devs[1] > devs[2], (gamma, devs)
        lines.append(f"gamma={gamma}: " + " > ".join(f"{x:.4f}" for x in devs))
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    report("D2 concentration", "; ".join(lines) + f" ({elapsed:.0f}s)")


def test_meeting_rate_phase_behavior_in_gamma():
    """n * sum(pi^2), averaged over 5 graphs per point at d=5, m=sqrt(n*d):

    * gamma=2.5: log-log slope across n in {1e3..1e6} within 0.25 +/- 0.12
      (the predicted (3 - gamma) / 2 with m = sqrt(n*d));
    * gamma=3.8: slope within 0 +/- 0.1 (size-free meeting rate);
    * gamma=3.0: ratio to log(m/d) varies by less than a factor 1.6.
    """
    start = time.perf_counter()
    gammas = (2.5, 3.0, 3.8)
    ns = (10**3, 10**4, 10**5, 10**6)
    seeds_per_point = 5
    vals = {}
    for gi, gamma in enumerate(gammas):
        for ni, n in enumerate(ns):
            d = 5.0
            m = math.sqrt(n * d)
            spec = GenSpec(family="expected_degree", n=n, gamma=gamma, d=d, m=m,
                           strict=False)
            point_seed = derive_seed(777, gi * len(ns) + ni)
            seeds = [derive_seed(point_seed, j) for j in range(seeds_per_point)]
            draw = sampler_for(spec, seeds)  # the replicates in lockstep
            acc = 0.0
            for s in seeds:
                g = draw(s)
                acc += g.n * degree_statistics(g).coincidence_rate
            vals[(gamma, n)] = acc / seeds_per_point

    def slope(gamma):
        x = np.log([float(n) for n in ns])
        y = np.log([vals[(gamma, n)] for n in ns])
        return float(np.polyfit(x, y, 1)[0])

    slope_low = slope(2.5)
    slope_high = slope(3.8)
    log_ratios = [vals[(3.0, n)] / math.log(math.sqrt(n * 5.0) / 5.0) for n in ns]
    spread = max(log_ratios) / min(log_ratios)
    elapsed = time.perf_counter() - start
    assert abs(slope_low - 0.25) <= 0.12, slope_low
    assert abs(slope_high) <= 0.10, slope_high
    assert spread < 1.6, spread
    assert elapsed < 1200.0
    report("phase behavior",
           f"slope(2.5)={slope_low:.3f} (target 0.25), slope(3.8)={slope_high:.3f} "
           f"(target 0), log-ratio spread(3.0)={spread:.3f} < 1.6 ({elapsed:.0f}s)")


def test_walk_microproperties():
    """Jump counts and occupancy of the batch engine match the walk's law."""
    start = time.perf_counter()
    g = path3()
    # each walker jumps at the rings of its own rate-1 clock, so its jump
    # count over [0, t] is Poisson(t): mean t, variance t (4 SE per walker);
    # marginal occupancy matches pi at 0 (the stationary initial draw), T/4,
    # T/2 and T (4 SE per vertex)
    t_final = 12.0
    replicates = 40000
    pi = g.degrees / g.total_degree
    z_jump = z_occ = 0.0
    for t in (0.0, t_final / 4, t_final / 2, t_final):
        batch = simulate_batch(g, SimConfig(t_horizon=t, replicates=replicates,
                                            master_seed=314))
        if t > 0:
            se_jump = math.sqrt(t / replicates)
            for jumps in (batch.jumps_x, batch.jumps_y):
                z_jump = max(z_jump, abs(float(jumps.mean()) - t) / se_jump)
        for v in range(g.n):
            freq = float((batch.final_x == v).mean())
            se_v = math.sqrt(pi[v] * (1 - pi[v]) / replicates)
            z_occ = max(z_occ, abs(freq - pi[v]) / se_v)
    assert z_jump <= 4.0
    assert z_occ <= 4.0
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report("walk micro-properties",
           f"jump-count worst z={z_jump:.2f}, occupancy worst z={z_occ:.2f} "
           f"({elapsed:.1f}s)")


def test_output_is_byte_deterministic(tmp_path, capsys):
    """The CLI emits byte-identical CSV across runs and --jobs in {1, 8}."""
    start = time.perf_counter()
    sim_spec = tmp_path / "sim.json"
    sim_spec.write_text(json.dumps({
        "kind": "simulate", "seed": 2026,
        "graph": {"family": "gnp", "n": [50, 80], "p": [0.1, 0.2]},
        "sim": {"t_horizon": 5.0, "beta": 0.5, "replicates": 200},
    }), encoding="utf-8")
    sweep_spec = tmp_path / "sweep.json"
    sweep_spec.write_text(json.dumps({
        "kind": "sweep", "seed": 2027,
        "sweep": {"n": [500, 1000], "gamma": [2.5, 3.5], "d": 4.0,
                  "m": "sqrt_nd", "seeds_per_point": 2, "strict": False},
    }), encoding="utf-8")
    outputs = []
    for spec_path, command in ((sim_spec, "simulate"), (sweep_spec, "sweep")):
        variants = []
        for jobs in ("1", "8", "1"):
            assert main([command, "--spec", str(spec_path), "--jobs", jobs]) == EXIT_OK
            variants.append(capsys.readouterr().out)
        assert variants[0] == variants[1] == variants[2]
        assert variants[0].count("\n") == 5  # header + 4 grid points
        outputs.append(variants[0])
    assert outputs[0] != outputs[1]
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report("byte determinism",
           f"2 specs x 3 runs x jobs in {{1, 8}} identical ({elapsed:.1f}s)")

"""Acceptance suite.

Each test implements one exit criterion at its stated tolerance and prints
one pass/fail line (run ``pytest tests/test_acceptance.py -s`` to see the
lines as they complete).  The Monte Carlo criteria use about 10^5 trials
each and dominate the runtime (a few minutes total).
"""

import math
import random

import numpy as np
import pytest

import hetcov as hc
from hetcov import mcsim
from helpers import random_converging_network, random_network


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}{detail}")
    assert ok, f"criterion {num} failed: {name}{detail}"


def test_c01_convergence_threshold_value():
    value = hc.convergence_threshold(1.0, 4.0)
    ok = 0.355 <= value <= 0.366
    report(1, "activity threshold at unit target, exponent 4", ok, f" (value={value:.4f})")


def test_c02_closed_forms_match_series_terms():
    rng = random.Random(202)
    worst = 0.0
    for _ in range(100):
        k = rng.choice([1, 2])
        tiers = tuple(
            hc.Tier(
                power=10.0 ** rng.uniform(-2, 1),
                density=10.0 ** rng.uniform(-1, 1),
                target_sir=rng.uniform(1.0001, 10.0),
                activity=rng.uniform(0.01, 1.0),
            )
            for _ in range(k)
        )
        net = hc.Network(alpha=4.0, tiers=tiers)
        g1, g2 = hc.closed_form_first_terms(net)
        worst = max(
            worst,
            abs(g1 - hc.correction_term(net, 1)),
            abs(g2 - hc.correction_term(net, 2)),
        )
    report(2, "closed forms vs series terms at exponent 4", worst <= 1e-10,
           f" (worst |diff|={worst:.2e} over 100 networks)")


def test_c03_full_load_reduction():
    rng = random.Random(303)
    ok = True
    for _ in range(50):
        net = random_network(rng, activity_range=(1.0, 1.0))
        result = hc.coverage(net)
        full = hc.full_load_coverage(net)
        ok &= result.terms_used == 0
        ok &= abs(result.value - full.value) <= 1e-12
    report(3, "full activity collapses to the head term", ok, " (50 networks)")


def test_c04_bounds_sandwich():
    rng = random.Random(404)

    def windowed_network():
        # ratio window keeps the 20th term far above the float floor, so
        # the bracket identities are testable at ulp-level tolerances
        while True:
            net = random_converging_network(rng)
            if not 3.4 <= net.alpha <= 5.5:
                continue
            if 0.6 <= hc.derived_constants(net).a_over_eta <= 0.85:
                return net

    tight = hc.SeriesControl(epsilon=1e-14, max_terms=10_000)
    ok = True
    for _ in range(20):
        net = windowed_network()
        value = hc.coverage(net, tight).value
        widths = []
        for m in range(1, 11):
            lower, upper = hc.coverage_bounds(net, m)
            term = abs(hc.correction_term(net, 2 * m))
            width = upper - lower
            ok &= lower - 1e-13 <= value <= upper + 1e-13
            ok &= abs(width - term) <= 1e-12 * term + 1e-15
            widths.append(width)
        ok &= all(a > b for a, b in zip(widths, widths[1:]))
    report(4, "truncation bounds sandwich with exact, shrinking widths", ok,
           " (20 networks, orders 1..10)")


def test_c05_scale_invariance():
    reference = hc.coverage(
        hc.Network(alpha=3.9, tiers=(hc.Tier(1.0, 1.0, 2.0, 0.55),))
    ).value
    worst = 0.0
    for c in (0.1, 1.0, 10.0):
        for d in (0.1, 1.0, 10.0):
            scaled = hc.coverage(
                hc.Network(alpha=3.9, tiers=(hc.Tier(d, c, 2.0, 0.55),))
            ).value
            worst = max(worst, abs(scaled - reference))
    tiers = tuple(hc.Tier(10.0**i, 1.5 * i + 0.5, 2.0, 0.55) for i in range(3))
    k_tier = hc.coverage(hc.Network(alpha=3.9, tiers=tiers)).value
    single = hc.coverage_single_tier(1.0, 1.0, 2.0, 0.55, 3.9).value
    ok = worst <= 1e-10 and abs(k_tier - single) <= 1e-10
    report(5, "scale invariance and K-tier collapse", ok,
           f" (worst scale dev={worst:.2e}, collapse dev={abs(k_tier - single):.2e})")


def test_c06_tier_addition_trichotomy():
    rng = random.Random(606)
    ok = True
    for _ in range(30):
        k = rng.choice([1, 2, 3])
        beta = rng.uniform(1.2, 6.0)
        tiers = tuple(
            hc.Tier(10.0 ** rng.uniform(-2, 1), 10.0 ** rng.uniform(-1, 1), beta,
                    rng.uniform(0.3, 0.95))
            for _ in range(k)
        )
        net = hc.Network(alpha=rng.uniform(2.8, 5.0), tiers=tiers)
        p_eff = hc.effective_load(net)
        before = hc.coverage_equal_targets(net).value
        cases = (
            (p_eff, "unchanged"),
            (max(p_eff - 0.15, 0.02), "increases"),
            (min(p_eff + 0.15, 0.99), "decreases"),
        )
        for p_new, expected in cases:
            new_tier = hc.Tier(
                10.0 ** rng.uniform(-2, 1), 10.0 ** rng.uniform(-1, 1), beta, p_new
            )
            ok &= hc.tier_addition_effect(net, new_tier) == expected
            after = hc.coverage_equal_targets(
                hc.Network(alpha=net.alpha, tiers=net.tiers + (new_tier,))
            ).value
            if expected == "unchanged":
                ok &= abs(after - before) < 1e-8
            elif expected == "increases":
                ok &= after > before
            else:
                ok &= after < before
    report(6, "tier addition trichotomy against effective load", ok, " (30 instances)")


def fig6_network(beta_db: float) -> hc.Network:
    beta = 10.0 ** (beta_db / 10.0)
    return hc.Network(
        alpha=3.8,
        tiers=(hc.Tier(1.0, 1.0, beta, 0.8), hc.Tier(0.01, 2.0, beta, 0.6)),
    )


def test_c07_monte_carlo_agreement_two_tier():
    ok = True
    details = []
    # the five nets differ only in their targets, so one draw decides them all
    betas_db = (0.0, 2.0, 4.0, 8.0, -6.0)
    nets = [fig6_network(beta_db) for beta_db in betas_db]
    estimates = mcsim._estimate_loads(
        nets, hc.SimConfig(trials=100_000, seed=1234), "ppp", ["conditional-thinning"])
    for beta_db, net, est in zip(betas_db[:-1], nets, estimates):
        analytic = hc.coverage(net).value
        tolerance = max(0.01, 3.0 * est.stderr)
        ok &= abs(analytic - est.mean) <= tolerance
        details.append(f"{beta_db:+.0f}dB:{abs(analytic - est.mean):.4f}")
    analytic_low = hc.coverage(nets[-1]).value
    est_low = estimates[-1]
    ok &= analytic_low > est_low.mean  # series overshoots below 0 dB
    report(7, "two-tier series vs simulation", ok,
           f" (|diff| {', '.join(details)}; -6dB overshoot "
           f"{analytic_low - est_low.mean:+.3f})")


def test_c08_full_load_pessimism():
    loaded = hc.coverage(
        hc.Network(alpha=3.8, tiers=(hc.Tier(1.0, 1.0, 1.0, 0.8),))
    ).value
    full = hc.coverage(
        hc.Network(alpha=3.8, tiers=(hc.Tier(1.0, 1.0, 1.0, 1.0),))
    ).value
    analytic_gap = loaded - full
    net = hc.Network(alpha=3.8, tiers=(hc.Tier(1.0, 1.0, 1.0, 0.8),))
    sim = hc.SimConfig(trials=30_000, seed=88)
    ct = hc.estimate_coverage(net, sim, load="conditional-thinning")
    fl = hc.estimate_coverage(net, sim, load="fully-loaded")
    mc_gap = ct.mean - fl.mean
    noise = 3.0 * math.hypot(ct.stderr, fl.stderr)
    ok = analytic_gap > 0.01 and mc_gap > noise
    report(8, "full-load model is pessimistic at activity 0.8", ok,
           f" (analytic gap={analytic_gap:.4f}, simulated gap={mc_gap:.4f} > {noise:.4f})")


def test_c09_density_sweep_trends():
    def level(lam2: float, p2: float) -> float:
        return hc.coverage(
            hc.Network(
                alpha=3.8,
                tiers=(hc.Tier(1.0, 1.0, 1.0, 0.6), hc.Tier(0.01, lam2, 1.0, p2)),
            )
        ).value

    grid = np.geomspace(0.1, 10.0, 15)
    rising = [level(lam, 0.4) for lam in grid]
    flat = [level(lam, 0.6) for lam in grid]
    falling = [level(lam, 0.8) for lam in grid]
    ok = (
        all(a < b for a, b in zip(rising, rising[1:]))
        and max(flat) - min(flat) < 1e-9
        and all(a > b for a, b in zip(falling, falling[1:]))
    )
    report(9, "second-tier density sweep trends", ok,
           f" (flat span={max(flat) - min(flat):.1e})")


@pytest.mark.slow
def test_c10_detailed_system_simulation():
    net = hc.Network(
        alpha=3.8,
        tiers=(hc.Tier(1.0, 1.0, 1.0, 0.5), hc.Tier(0.1, 1.0, 1.0, 0.5)),
    )
    blocks = 20
    ok = True
    details = []
    # one run, one association per trial, decides all five user densities
    user_densities = (4.0, 8.0, 12.0, 16.0, 20.0)
    estimates = mcsim._estimate_system(
        net, user_densities, blocks, hc.SimConfig(trials=2500, seed=77, window_radius=12.0))
    for user_density, est in zip(user_densities, estimates):
        activities = hc.activity_from_user_density(net, user_density, blocks)
        calibrated = hc.Network(
            alpha=net.alpha,
            tiers=tuple(
                hc.Tier(t.power, t.density, t.target_sir, a)
                for t, a in zip(net.tiers, activities)
            ),
        )
        analytic = hc.coverage(calibrated).value
        gap = abs(analytic - est.mean)
        ok &= gap <= 0.05
        details.append(f"{gap:.3f}")
    report(10, "per-station load simulation vs calibrated series", ok,
           f" (|diff| per point: {', '.join(details)})")


def test_c11_closed_versus_open():
    rng = random.Random(31)
    ok = True
    for i in range(20):
        k = rng.choice([2, 3])
        tiers = tuple(
            hc.Tier(10.0 ** rng.uniform(-2, 0.5), rng.uniform(0.5, 2.0),
                    rng.uniform(1.2, 6.0), rng.uniform(0.5, 0.95))
            for _ in range(k)
        )
        keep = rng.randrange(1, k)
        closed = hc.Network(
            alpha=rng.uniform(2.8, 5.0), tiers=tiers, access=list(range(1, keep + 1))
        )
        opened = hc.Network(alpha=closed.alpha, tiers=tiers)
        ok &= hc.coverage(closed).value <= hc.coverage(opened).value + 1e-12
        # the pair differs only in its access set, so it shares one draw
        sim = hc.SimConfig(trials=1500, seed=400 + i)
        closed_est, opened_est = mcsim._estimate_loads(
            [closed, opened], sim, "ppp", ["conditional-thinning"])
        ok &= closed_est.mean <= opened_est.mean

    # a fixed fraction of one class in closed access: the open/closed gap
    # must shrink as the open share of that class grows
    macro = hc.Tier(1.0, 1.0, 1.0, 1.0)
    closed_part = hc.Tier(0.01, 10.0, 1.0, 0.5)
    gaps = []
    for f in (0.0, 0.15, 0.3, 0.45, 0.6, 0.75, 0.9):
        open_density = 10.0 * f / (1.0 - f)
        open_part = hc.Tier(0.01, open_density, 1.0, 0.5)
        tiers = (macro, closed_part, open_part)
        restricted = hc.Network(alpha=3.8, tiers=tiers, access=[1, 3])
        unrestricted = hc.Network(alpha=3.8, tiers=tiers)
        gaps.append(
            hc.coverage(unrestricted).value - hc.coverage(restricted).value
        )
    ok &= all(g >= -1e-12 for g in gaps)
    ok &= all(a >= b - 1e-12 for a, b in zip(gaps, gaps[1:]))
    report(11, "closed access never beats open; gap shrinks with open share", ok,
           f" (gap {gaps[0]:.3f} -> {gaps[-1]:.3f})")


def test_c12_convergence_behaviour():
    def one_tier(p: float) -> hc.Network:
        return hc.Network(alpha=4.0, tiers=(hc.Tier(1.0, 1.0, 1.0, p),))

    trace = hc.correction_trace(one_tier(0.25), hc.SeriesControl(epsilon=1e-10))
    magnitudes = [abs(t.partial_sum) for t in trace]
    peak = magnitudes.index(max(magnitudes))
    rise_then_fall = (
        0 < peak < len(magnitudes) - 1
        and magnitudes[peak] > magnitudes[0]
        and magnitudes[peak] > magnitudes[-1]
    )
    counts = [
        hc.truncation_terms(one_tier(p), 1e-8) for p in (0.25, 0.5, 0.75, 1.0)
    ]
    monotone = all(a >= b for a, b in zip(counts, counts[1:])) and counts[0] > counts[-1]
    report(12, "partial sums rise then fall; term counts fall with activity",
           rise_then_fall and monotone,
           f" (peak at m={peak + 1} of {len(magnitudes)}; counts={counts})")


@pytest.mark.slow
def test_c13_idle_only_variant():
    rng = random.Random(55)
    ok = True
    details = []
    for i in range(5):
        p = rng.uniform(0.4, 0.85)
        beta = rng.uniform(1.2, 5.0)
        alpha = rng.uniform(3.2, 4.8)
        net = hc.Network(alpha=alpha, tiers=(hc.Tier(1.0, 1.0, beta, p),))
        analytic = hc.coverage_idle_only(net).value
        est = hc.estimate_coverage(
            net, hc.SimConfig(trials=100_000, seed=800 + i), load="idle-only"
        )
        z = abs(analytic - est.mean) / est.stderr
        ok &= z < 3.0
        details.append(f"{z:.2f}")
    report(13, "idle-only series vs restricted-candidate simulation", ok,
           f" (z-scores: {', '.join(details)})")

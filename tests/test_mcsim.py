"""Simulator tests: samplers and their spatial statistics, estimator
reproducibility and coupling properties, the detailed load simulation and
the coverage-region raster."""

import io
import math
import re
import typing
import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.spatial import cKDTree

import hetcov as hc
from hetcov import mcsim
from hetcov.mcsim import _trial_rng


def single_tier(power=1.0, density=1.0, target_sir=2.0, activity=0.5, alpha=4.0):
    return hc.Network(
        alpha=alpha,
        tiers=(hc.Tier(power=power, density=density, target_sir=target_sir, activity=activity),),
    )


def two_tier(p1=0.8, p2=0.6, beta=2.0, alpha=3.8):
    return hc.Network(
        alpha=alpha,
        tiers=(hc.Tier(1.0, 1.0, beta, p1), hc.Tier(0.01, 2.0, beta, p2)),
    )


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            hc.SimConfig(trials=0)
        with pytest.raises(ValueError):
            hc.SimConfig(trials=10, window_radius=0.0)
        with pytest.raises(ValueError):
            hc.SimConfig(trials=10, min_expected_points=0)
        with pytest.raises(ValueError):
            hc.SimConfig(trials=10, seed=-1)

    def test_default_window_sizes_off_the_sparsest_active_tier(self):
        net = two_tier(p1=0.8, p2=0.6)
        radius = hc.default_window_radius(net)
        sparsest = min(0.8 * 1.0, 0.6 * 2.0)
        assert sparsest * math.pi * radius**2 == pytest.approx(500.0, rel=1e-12)


class TestSamplePpp:
    def test_zero_density_is_empty(self):
        pts = hc.sample_ppp(0.0, 5.0, _trial_rng(0, 0))
        assert pts.shape == (0, 2)
        # whatever the radius: 0 * inf points would be nan
        assert hc.sample_ppp(0.0, 1e300, _trial_rng(0, 0)).shape == (0, 2)

    def test_tiny_disc_at_huge_density_draws(self):
        # 1e200 * pi * (1e-100)^2: about 3 expected points
        pts = hc.sample_ppp(1e200, 1e-100, _trial_rng(0, 0))
        assert pts.shape[1] == 2 and len(pts) < 20
        assert np.all(np.hypot(pts[:, 0], pts[:, 1]) <= 1e-100)

    def test_count_matches_the_intensity(self):
        # lambda * pi * R^2 = 100; mean count over 10^4 draws within 100 +- 3
        rng = _trial_rng(1, 0)
        radius = 5.0
        density = 100.0 / (math.pi * radius**2)
        counts = [len(hc.sample_ppp(density, radius, rng)) for _ in range(10_000)]
        assert abs(np.mean(counts) - 100.0) < 3.0

    def test_count_in_cell_uniformity(self):
        # chi-square over 4 quadrants x 5 equal-area annuli at the 1% level
        rng = _trial_rng(2, 0)
        radius = 10.0
        pts = hc.sample_ppp(40.0, radius, rng)
        r2 = pts[:, 0] ** 2 + pts[:, 1] ** 2
        annulus = np.minimum((r2 / radius**2 * 5).astype(int), 4)
        quadrant = (pts[:, 0] > 0).astype(int) * 2 + (pts[:, 1] > 0).astype(int)
        cell = annulus * 4 + quadrant
        observed = np.bincount(cell, minlength=20)
        _, p_value = stats.chisquare(observed)
        assert p_value > 0.01

    def test_domains(self):
        with pytest.raises(ValueError):
            hc.sample_ppp(-1.0, 5.0, _trial_rng(0, 0))
        with pytest.raises(ValueError):
            hc.sample_ppp(1.0, 0.0, _trial_rng(0, 0))

    def test_nan_density_is_rejected(self):
        # nan < 0 is false, so a sign test alone would draw an empty field
        with pytest.raises(ValueError, match="non-negative densities"):
            hc.sample_ppp(float("nan"), 5.0, _trial_rng(0, 0))

    @pytest.mark.parametrize(
        "density, radius, expected",
        [(1.0, 1e300, "inf"), (1e300, 1e300, "inf"), (1e10, 1.0, "3.14e+10")],
        ids=["overflowing-area", "overflowing-both", "above-limit"],
    )
    def test_discs_it_cannot_draw_name_the_expected_count(self, density, radius, expected):
        with pytest.raises(ValueError, match=re.escape(f"holds {expected} expected points")):
            hc.sample_ppp(density, radius, _trial_rng(0, 0))


class TestSampleHexGrid:
    def test_realised_density(self):
        pts = hc.sample_hex_grid(1.0, 30.0, _trial_rng(3, 0))
        realised = len(pts) / (math.pi * 30.0**2)
        assert abs(realised - 1.0) < 0.02

    def test_interior_nearest_neighbour_distance_is_the_spacing(self):
        pts = hc.sample_hex_grid(1.0, 30.0, _trial_rng(4, 0))
        spacing = math.sqrt(2.0 / (math.sqrt(3.0) * 1.0))
        interior = pts[np.hypot(pts[:, 0], pts[:, 1]) < 30.0 - 2 * spacing]
        distances, _ = cKDTree(pts).query(interior, k=2)
        nearest = distances[:, 1]
        assert nearest.max() - nearest.min() < 1e-9
        assert nearest.mean() == pytest.approx(spacing, rel=1e-12)

    def test_translation_randomisation_keeps_estimates_stable(self):
        net = two_tier(beta=2.0)
        a = hc.estimate_coverage(
            net, hc.SimConfig(trials=4000, seed=5), placement="hex-first-tier"
        )
        b = hc.estimate_coverage(
            net, hc.SimConfig(trials=4000, seed=6), placement="hex-first-tier"
        )
        assert abs(a.mean - b.mean) < 3.0 * math.hypot(a.stderr, b.stderr)

    def test_domains(self):
        with pytest.raises(ValueError):
            hc.sample_hex_grid(0.0, 5.0, _trial_rng(0, 0))

    def test_index_range_keeps_every_site_of_the_disc_in_order(self):
        density, radius = 0.7, 6.0
        spacing = math.sqrt(2.0 / (math.sqrt(3.0) * density))
        shift = _trial_rng(7, 0).random((300, 2))
        x, y = mcsim._hex_sites(density, radius, shift)
        # only the pairs within radius + 2 spacings of the origin remain
        assert x.shape[-1] < density * math.pi * (radius + 2.5 * spacing) ** 2
        j, k = (a.ravel() for a in np.meshgrid(np.arange(-20, 21), np.arange(-20, 21),
                                               indexing="ij"))
        wide_x = (j + shift[:, :1] + 0.5 * (k + shift[:, 1:])) * spacing
        wide_y = (k + shift[:, 1:]) * (spacing * math.sqrt(3.0) / 2.0)
        for t in range(len(shift)):
            inside = x[t] ** 2 + y[t] ** 2 <= radius**2
            wide = wide_x[t] ** 2 + wide_y[t] ** 2 <= radius**2
            np.testing.assert_array_equal(x[t][inside], wide_x[t][wide])
            np.testing.assert_array_equal(y[t][inside], wide_y[t][wide])

    @pytest.mark.parametrize(
        "density, radius, expected",
        [(1.0, 1e300, "inf"), (1e10, 1.0, "3.14e+10")],
        ids=["overflowing-area", "above-limit"],
    )
    def test_discs_it_cannot_draw_name_the_expected_count(self, density, radius, expected):
        with pytest.raises(ValueError, match=re.escape(f"holds {expected} expected points")):
            hc.sample_hex_grid(density, radius, _trial_rng(0, 0))


class TestRealization:
    def test_structure_and_marks(self):
        net = two_tier()
        real = hc.draw_realization(net, 6.0, _trial_rng(7, 0))
        n = len(real)
        assert real.positions.shape == (n, 2)
        assert set(np.unique(real.tiers)) <= {1, 2}
        assert np.hypot(real.positions[:, 0], real.positions[:, 1]).max() <= 6.0
        assert (real.fading > 0).all()
        assert real.powers[real.tiers == 1].max() == 1.0

    def test_thinning_consistency(self):
        # marginal active density must match activity * density within 3 sigma
        net = single_tier(density=0.7, activity=0.45)
        radius, trials = 5.0, 10_000
        active = sum(
            int(hc.draw_realization(net, radius, _trial_rng(8, t)).active.sum())
            for t in range(trials)
        )
        expected = 0.45 * 0.7 * math.pi * radius**2 * trials
        assert abs(active - expected) < 3.0 * math.sqrt(expected)

    def test_csv_export(self):
        real = hc.draw_realization(two_tier(), 4.0, _trial_rng(9, 0))
        buffer = io.StringIO()
        hc.realization_to_csv(real, buffer)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == "x,y,tier,active,fading"
        assert len(lines) == len(real) + 1


class TestEstimateCoverage:
    def test_bit_identical_reproducibility(self):
        net = two_tier()
        sim = hc.SimConfig(trials=3000, seed=12)
        assert hc.estimate_coverage(net, sim) == hc.estimate_coverage(net, sim)

    def test_stderr_is_binomial(self):
        est = hc.estimate_coverage(single_tier(), hc.SimConfig(trials=2000, seed=13))
        assert est.stderr == pytest.approx(
            math.sqrt(est.mean * (1.0 - est.mean) / est.trials), rel=1e-12
        )

    def test_full_activity_makes_thinning_a_no_op(self):
        net = single_tier(activity=1.0)
        sim = hc.SimConfig(trials=3000, seed=14)
        ct = hc.estimate_coverage(net, sim, load="conditional-thinning")
        fl = hc.estimate_coverage(net, sim, load="fully-loaded")
        assert ct == fl

    @pytest.mark.parametrize("activity", [0.5, 0.8])
    def test_full_load_never_exceeds_thinned_coverage(self, activity):
        net = single_tier(activity=activity)
        sim = hc.SimConfig(trials=4000, seed=15)
        ct = hc.estimate_coverage(net, sim, load="conditional-thinning")
        fl = hc.estimate_coverage(net, sim, load="fully-loaded")
        assert fl.mean <= ct.mean

    def test_closed_access_never_exceeds_open(self):
        tiers = (hc.Tier(1.0, 1.0, 2.0, 0.7), hc.Tier(0.01, 5.0, 2.0, 0.4))
        closed = hc.Network(alpha=3.8, tiers=tiers, access=[1])
        opened = hc.Network(alpha=3.8, tiers=tiers)
        sim = hc.SimConfig(trials=4000, seed=16)
        assert hc.estimate_coverage(closed, sim).mean <= hc.estimate_coverage(opened, sim).mean

    def test_full_load_estimate_matches_closed_value(self):
        net = single_tier(target_sir=1.0, activity=1.0)
        est = hc.estimate_coverage(net, hc.SimConfig(trials=100_000, seed=17))
        assert abs(est.mean - 2.0 / math.pi) < 3.0 * est.stderr

    def test_thinned_estimate_matches_series_single_tier(self):
        net = single_tier(target_sir=1.0, activity=0.5)
        est = hc.estimate_coverage(net, hc.SimConfig(trials=100_000, seed=26))
        analytic = hc.coverage(net).value
        assert abs(est.mean - analytic) < 3.0 * est.stderr

    def test_window_adequacy(self):
        # doubling the window moves the estimate by less than twice the noise
        net = single_tier(target_sir=2.0, activity=0.7)
        base_radius = hc.default_window_radius(net)
        small = hc.estimate_coverage(net, hc.SimConfig(trials=20_000, seed=18))
        large = hc.estimate_coverage(
            net, hc.SimConfig(trials=20_000, seed=18, window_radius=2 * base_radius)
        )
        assert abs(small.mean - large.mean) < 2.0 * math.hypot(small.stderr, large.stderr)

    def test_empty_window_warns(self):
        net = single_tier(density=0.05, activity=0.9)
        sim = hc.SimConfig(trials=2000, seed=19, window_radius=1.0)
        with pytest.warns(UserWarning, match="no candidate"):
            est = hc.estimate_coverage(net, sim)
        assert est.mean < 0.5

    def test_idle_only_estimates_idle_coverage(self):
        net = single_tier(target_sir=2.0, activity=0.5)
        sim = hc.SimConfig(trials=4000, seed=20)
        idle = hc.estimate_coverage(net, sim, load="idle-only")
        ct = hc.estimate_coverage(net, sim, load="conditional-thinning")
        assert 0.0 < idle.mean < ct.mean

    @pytest.mark.parametrize("load", ["conditional-thinning", "fully-loaded", "idle-only"])
    def test_batching_changes_nothing(self, monkeypatch, load):
        net = two_tier(p1=0.5, p2=0.3)
        sim = hc.SimConfig(trials=60, seed=31, window_radius=5.0)
        batched = hc.estimate_coverage(net, sim, load=load)
        monkeypatch.setattr(mcsim, "_POINT_BUDGET", 1)  # one row per chunk
        assert hc.estimate_coverage(net, sim, load=load) == batched

    def test_reports_the_window_it_sampled(self):
        net = two_tier()
        est = hc.estimate_coverage(net, hc.SimConfig(trials=5, seed=0))
        assert est.window_radius == hc.default_window_radius(net)
        est = hc.estimate_coverage(net, hc.SimConfig(trials=5, seed=0, window_radius=3.5))
        assert est.window_radius == 3.5

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            hc.estimate_coverage(single_tier(), hc.SimConfig(trials=10, seed=0), load="nope")
        with pytest.raises(ValueError):
            hc.estimate_coverage(single_tier(), hc.SimConfig(trials=10, seed=0), placement="nope")


class TestEstimateCoverageSystem:
    def fig5(self):
        return hc.Network(
            alpha=3.8,
            tiers=(hc.Tier(1.0, 1.0, 1.0, 0.5), hc.Tier(0.1, 1.0, 1.0, 0.5)),
        )

    def test_no_users_leaves_everything_idle(self):
        # with every station idle the candidate field is interference-free,
        # so every trial connects: the idle-only variant's trivial value
        sim = hc.SimConfig(trials=300, seed=21, window_radius=6.0)
        est = hc.estimate_coverage_system(self.fig5(), 0.0, 20, sim)
        assert est.mean == 1.0
        assert est.tier_mean_activity == (0.0, 0.0)

    def test_user_shares_match_the_association_model(self):
        net = self.fig5()
        sim = hc.SimConfig(trials=250, seed=22, window_radius=8.0)
        est = hc.estimate_coverage_system(net, 15.0, 20, sim)
        model = hc.user_fraction_per_tier(net)
        for got, err, want in zip(
            est.tier_user_fraction, est.tier_user_fraction_stderr, model
        ):
            assert abs(got - want) < 3.0 * err

    def test_coverage_tracks_the_calibrated_series(self):
        net = self.fig5()
        sim = hc.SimConfig(trials=400, seed=23, window_radius=8.0)
        est = hc.estimate_coverage_system(net, 15.0, 20, sim)
        activities = hc.activity_from_user_density(net, 15.0, 20)
        loaded = hc.Network(
            alpha=net.alpha,
            tiers=tuple(
                hc.Tier(t.power, t.density, t.target_sir, a)
                for t, a in zip(net.tiers, activities)
            ),
        )
        analytic = hc.coverage(loaded).value
        assert abs(est.mean - analytic) < 0.05

    def test_batching_changes_nothing(self, monkeypatch):
        sim = hc.SimConfig(trials=40, seed=32, window_radius=5.0)
        batched = hc.estimate_coverage_system(self.fig5(), 8.0, 10, sim)
        # every block a lone column: the reducer's cumsum branches
        monkeypatch.setattr(mcsim, "_BLOCK_TRIALS", 1)
        assert hc.estimate_coverage_system(self.fig5(), 8.0, 10, sim) == batched

    @pytest.mark.parametrize(
        "trials, seed, user_density, blocks",
        # 33 leaves a lone trial in the last 16-trial block
        [(33, 34, 8.0, 10), (70, 35, 15.0, 20), (1, 36, 8.0, 10)],
    )
    def test_block_width_changes_nothing(self, monkeypatch, trials, seed, user_density, blocks):
        # every trial draws its own (seed, t) stream, so the block width
        # only regroups the columns the reducer sums slot by slot
        sim = hc.SimConfig(trials=trials, seed=seed, window_radius=5.0)
        wide = hc.estimate_coverage_system(self.fig5(), user_density, blocks, sim)
        assert mcsim._BLOCK_TRIALS != 16
        monkeypatch.setattr(mcsim, "_BLOCK_TRIALS", 16)
        assert hc.estimate_coverage_system(self.fig5(), user_density, blocks, sim) == wide

    def test_empty_windows_count_as_uncovered(self):
        # 2 stations per unit area on a disc of radius 0.15: about 87 % of
        # the trials hold no station at all
        sim = hc.SimConfig(trials=400, seed=33, window_radius=0.15)
        with pytest.warns(UserWarning, match="no candidate") as caught:
            idle = hc.estimate_coverage_system(self.fig5(), 0.0, 20, sim)
        empty = int(str(caught[0].message).split()[0])
        assert empty > 300
        # without users every station is idle and covers the centre, so
        # exactly the empty trials fail
        assert idle.mean == (sim.trials - empty) / sim.trials
        with pytest.warns(UserWarning, match="no candidate"):
            loaded = hc.estimate_coverage_system(self.fig5(), 50.0, 2, sim)
        assert loaded.mean <= idle.mean

    def test_user_fractions_without_users_are_zero(self):
        sim = hc.SimConfig(trials=70, seed=40, window_radius=4.0)
        est = hc.estimate_coverage_system(self.fig5(), 0.0, 20, sim)
        assert est.tier_user_fraction == (0.0, 0.0)
        assert est.tier_user_fraction_stderr == (0.0, 0.0)

    def test_one_trial_gives_shares_without_spread(self):
        sim = hc.SimConfig(trials=1, seed=41, window_radius=4.0)
        est = hc.estimate_coverage_system(self.fig5(), 8.0, 10, sim)
        assert sum(est.tier_user_fraction) == pytest.approx(1.0, abs=1e-12)
        assert est.tier_user_fraction_stderr == (0.0, 0.0)

    def test_user_fractions_average_only_trials_with_inner_users(self):
        # the inner disc of radius 0.3 holds 0.57 expected users, and the
        # window 1.1 expected stations per tier: many trials have no inner
        # user or no station, and drop out of the average
        net, radius, users_per_area, trials, seed = self.fig5(), 0.6, 2.0, 70, 42
        sim = hc.SimConfig(trials=trials, seed=seed, window_radius=radius)
        with pytest.warns(UserWarning, match="no candidate"):
            est = hc.estimate_coverage_system(net, users_per_area, 10, sim)
        rank = np.array([t.power for t in net.tiers]) ** (2.0 / net.alpha)
        rows = []
        for t in range(trials):
            rng = _trial_rng(seed, t)
            positions, tier_idx, _, _ = mcsim._sample_field(net, radius, rng, "ppp")
            users = hc.sample_ppp(users_per_area, radius, rng)
            inner = users[users[:, 0] ** 2 + users[:, 1] ** 2 <= (radius / 2.0) ** 2]
            if len(positions) and len(inner):
                best = tier_idx[mcsim._serving_station(inner, positions, rank[tier_idx])]
                rows.append(np.bincount(best, minlength=2) / len(inner))
        assert 10 < len(rows) < trials - 10
        assert sum(est.tier_user_fraction) == pytest.approx(1.0, abs=1e-12)
        assert est.tier_user_fraction == pytest.approx(np.mean(rows, axis=0), abs=1e-12)
        assert est.tier_user_fraction_stderr == pytest.approx(
            np.std(rows, axis=0, ddof=1) / math.sqrt(len(rows)), abs=1e-12
        )

    def test_default_window_sizes_off_the_raw_densities(self):
        # activities are an outcome of the simulation, so the window holds
        # 500 expected stations of the sparsest tier whatever the activities
        net = self.fig5()
        est = hc.estimate_coverage_system(net, 1.0, 20, hc.SimConfig(trials=2, seed=0))
        assert 1.0 * math.pi * est.window_radius**2 == pytest.approx(500.0, rel=1e-12)
        assert est.window_radius < hc.default_window_radius(net)
        est = hc.estimate_coverage_system(
            net, 1.0, 20, hc.SimConfig(trials=2, seed=0, window_radius=4.0)
        )
        assert est.window_radius == 4.0

    def test_domains(self):
        sim = hc.SimConfig(trials=10, seed=0, window_radius=5.0)
        with pytest.raises(ValueError):
            hc.estimate_coverage_system(self.fig5(), -1.0, 20, sim)
        with pytest.raises(ValueError):
            hc.estimate_coverage_system(self.fig5(), 1.0, 0, sim)


def bincount_count_covered(network, load, r2, tier_idx, fade, act, trial_idx, batch):
    """The flat SIR test the estimators used before the block engine: one
    bincount per trial quantity over a batch of concatenated trials.
    Returns (covered, empty)."""
    power = np.array([t.power for t in network.tiers])
    beta = np.array([t.target_sir for t in network.tiers])
    delta = np.array([t.delta for t in network.tiers])
    accessible = np.array([i in network.access for i in range(1, network.num_tiers + 1)])
    signal = power[tier_idx] * fade * r2 ** (-network.alpha / 2.0)
    interference = np.bincount(trial_idx, weights=np.where(act, signal, 0.0), minlength=batch)
    per_point_interference = interference[trial_idx]
    in_access = accessible[tier_idx]
    if load == "conditional-thinning":
        candidate = in_access
        threshold = np.where(act, delta[tier_idx], beta[tier_idx])
    elif load == "fully-loaded":
        candidate = in_access & act
        threshold = delta[tier_idx]
    else:
        candidate = in_access & ~act
        threshold = beta[tier_idx]
    hits = candidate & (signal >= threshold * per_point_interference)
    covered = int(np.count_nonzero(np.bincount(trial_idx[hits], minlength=batch)))
    candidates = np.bincount(trial_idx[candidate], minlength=batch)
    return covered, int(np.count_nonzero(candidates == 0))


def bincount_interference(network, r2, tier_idx, fade, act, trial_idx, batch):
    """Active interference at the centre of each trial of a batch."""
    power = np.array([t.power for t in network.tiers])
    signal = power[tier_idx] * fade * r2 ** (-network.alpha / 2.0)
    return np.bincount(trial_idx, weights=np.where(act, signal, 0.0), minlength=batch)


def random_block(rng, num_tiers, trials):
    """Per-tier (r2, fade, active, present) columns of random trials, many
    of them empty, with random values in the padding slots."""
    fields = []
    for _ in range(num_tiers):
        counts = rng.integers(0, 5, size=trials) * (rng.random(trials) < 0.4)
        slots = int(counts.max()) + int(rng.integers(0, 3))
        present = np.arange(slots)[:, None] < counts[None, :]
        fields.append((
            rng.uniform(0.01, 4.0, size=(slots, trials)),
            rng.standard_exponential((slots, trials)),
            rng.random((slots, trials)) < 0.5,
            present,
        ))
    return fields


class TestBlockEngine:
    def net(self):
        return hc.Network(
            alpha=3.6,
            tiers=(
                hc.Tier(1.0, 1.0, 2.0, 0.6),
                hc.Tier(0.1, 2.0, 0.8, 0.4),
                hc.Tier(0.01, 3.0, 1.5, 0.7),
            ),
            access=[1, 3],
        )

    @pytest.mark.parametrize("load", mcsim.LOAD_MODES)
    def test_column_reducer_matches_the_bincount_reducer(self, load):
        net = self.net()
        rng = np.random.default_rng(51)
        for _ in range(200):
            # two blocks of one run, at columns [0, w1) and [w1, w1 + w2)
            w1, w2 = (int(w) for w in rng.integers(1, 17, size=2))
            trials = w1 + w2
            blocks = [(slice(0, w1), random_block(rng, net.num_tiers, w1)),
                      (slice(w1, trials), random_block(rng, net.num_tiers, w2))]
            flat = [
                (r2[j, i], k, fade[j, i], active[j, i], columns.start + i)
                for columns, fields in blocks
                for i in range(columns.stop - columns.start)
                for k, (r2, fade, active, present) in enumerate(fields)
                for j in np.flatnonzero(present[:, i])
            ]
            records = list(zip(*flat)) or [()] * 5
            r2, tier_idx, fade, act, trial_idx = (
                np.array(c, dtype=d) for c, d in zip(records, (float, int, float, bool, int))
            )
            want = bincount_count_covered(net, load, r2, tier_idx, fade, act, trial_idx, trials)
            # a fully-loaded estimate counts the active stations only
            stations = int(np.count_nonzero(act)) if load == "fully-loaded" else len(flat)
            heard = bincount_interference(net, r2, tier_idx, fade, act, trial_idx, trials)
            # stations counted but not placed add to the count, not the test
            unplaced = rng.integers(0, 3, size=(net.num_tiers, 2, trials))
            stations += int(unplaced[:, 0].sum())
            if load != "fully-loaded":
                stations += int(unplaced[:, 1].sum())

            def chunks():
                # the second block first: the columns, not the order, place
                # a chunk; each tier as its active and its idle stations,
                # each cut at a random slot: chunking changes no sum
                for columns, fields in reversed(blocks):
                    for k, (r2, fade, active, present) in enumerate(fields):
                        for is_active, mask in ((True, present & active),
                                                (False, present & ~active)):
                            cut = int(rng.integers(0, len(r2) + 1))
                            yield columns, k, is_active, r2[:cut], fade[:cut], mask[:cut], 0
                            yield (columns, k, is_active, r2[cut:], fade[cut:], mask[cut:],
                                   unplaced[k, 1 - is_active, columns])

            run = mcsim._count_covered(net, trials, chunks())
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # most trials hold no candidate
                est = mcsim._binomial_estimate(run, load, 1.0, 0.0)
            got = (round(est.mean * trials), est.empty_trials,
                   round(est.mean_stations_per_trial * trials))
            assert got == (*want, stations)
            np.testing.assert_allclose(run[0], heard, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("placement", mcsim.PLACEMENTS)
    def test_a_run_is_a_prefix_of_any_longer_run(self, monkeypatch, placement):
        net = two_tier(p1=0.5, p2=0.3)
        reducer = mcsim._count_covered
        # per trial of the latest run: stations and in-window interference
        stations, heard, unplaced = [], [], []  # unplaced over all runs

        def counting(network, trials, chunks):
            per_trial = np.zeros(trials, dtype=np.int64)

            def tee():
                for chunk in chunks:
                    per_trial[chunk[0]] += np.count_nonzero(chunk[5], axis=0) + chunk[6]
                    unplaced.append(np.sum(chunk[6]))
                    yield chunk

            result = reducer(network, trials, tee())
            stations.extend(per_trial.tolist())
            heard.extend(result[0].tolist())
            return result

        monkeypatch.setattr(mcsim, "_count_covered", counting)
        # runs that end one short of, at and one past two block boundaries,
        # a lone trial (a block of one column) and the benchmark's counts
        width = mcsim._BLOCK_TRIALS
        ns = sorted({1, 2, 40, 41, 120, 121, width - 1, width, width + 1,
                     2 * width - 1, 2 * width, 2 * width + 1})
        covered, runs = [], []
        for n in ns:
            # the idle streams hold ~60 and ~160 stations, past their cutoffs
            sim = hc.SimConfig(trials=n, seed=43, window_radius=6.0)
            stations.clear()
            heard.clear()
            est = hc.estimate_coverage(net, sim, placement=placement)
            covered.append(round(est.mean * n))
            assert sum(stations) == round(est.mean_stations_per_trial * n)
            runs.append((list(stations), list(heard)))
        for more, fewer, n, m in zip(covered[1:], covered, ns[1:], ns):
            assert 0 <= more - fewer <= n - m
        assert 0 < covered[-1] < ns[-1]
        for run_stations, run_heard in runs:
            assert run_stations == runs[-1][0][: len(run_stations)]
            assert run_heard == runs[-1][1][: len(run_heard)]
        assert sum(unplaced) > 0  # idle stations past the cutoff were counted

    @pytest.mark.parametrize("stream, density", [(0, 0.8), (1, 1.2)])
    def test_a_larger_window_holds_every_station_of_a_smaller_one(
        self, monkeypatch, stream, density
    ):
        # the active (0) and idle (1) streams of a tier of density 2 at
        # activity 0.4

        def stations(radius):
            rng = mcsim._block_rng(7, 3, 0, stream)
            # a chunk holds until the next one is drawn, so copy each
            chunks = [
                [a.copy() for a in chunk[:3]]
                for chunk in mcsim._poisson_tier(rng, density, radius, width)
            ]
            return [np.vstack(part) for part in zip(*chunks)]

        width = mcsim._BLOCK_TRIALS
        monkeypatch.setattr(mcsim, "_POINT_BUDGET", width * 7)  # chunks of 7 slots
        small_r2, small_fade, small_present = stations(3.0)
        large_r2, large_fade, large_present = stations(6.0)
        for i in range(width):
            n = int(np.count_nonzero(small_present[:, i]))
            assert n > 0 and small_present[:n, i].all()
            assert large_present[:n, i].all()
            assert int(np.count_nonzero(large_present[:, i])) > n
            np.testing.assert_array_equal(large_r2[:n, i], small_r2[:n, i])
            np.testing.assert_array_equal(large_fade[:n, i], small_fade[:n, i])
            assert small_r2[:n, i].max() <= 9.0 < large_r2[n, i]

    def test_estimates_report_empty_trials_and_stations(self):
        net = single_tier(density=0.05, activity=0.9)
        sim = hc.SimConfig(trials=2000, seed=19, window_radius=1.0)
        with pytest.warns(UserWarning, match="no candidate") as caught:
            est = hc.estimate_coverage(net, sim)
        assert str(caught[0].message).startswith(f"{est.empty_trials} of 2000 trials")
        assert caught[0].filename == __file__
        # a trial without stations cannot cover its user
        assert est.mean <= 1.0 - est.empty_trials / sim.trials
        expected = 0.05 * math.pi
        assert abs(est.mean_stations_per_trial - expected) < 5.0 * math.sqrt(expected / 2000)

    def test_system_estimate_reports_empty_trials_and_stations(self):
        fig5 = TestEstimateCoverageSystem().fig5()
        sim = hc.SimConfig(trials=400, seed=33, window_radius=0.15)
        with pytest.warns(UserWarning, match="no candidate") as caught:
            idle = hc.estimate_coverage_system(fig5, 0.0, 20, sim)
        assert str(caught[0].message).startswith(f"{idle.empty_trials} of 400 trials")
        assert caught[0].filename == __file__
        assert idle.mean == (sim.trials - idle.empty_trials) / sim.trials
        expected = 2.0 * math.pi * 0.15**2
        assert abs(idle.mean_stations_per_trial - expected) < 5.0 * math.sqrt(expected / 400)

    @pytest.mark.parametrize("placement", mcsim.PLACEMENTS)
    def test_one_draw_serves_every_load(self, placement):
        # closed access: tier 2's idle stations are never drawn
        net = hc.Network(
            alpha=3.8, tiers=(hc.Tier(1.0, 1.0, 2.0, 0.7), hc.Tier(0.05, 3.0, 1.5, 0.4)),
            access=[1],
        )
        sim = hc.SimConfig(trials=150, seed=44)
        shared = mcsim._estimate_loads(net, sim, placement, mcsim.LOAD_MODES)
        alone = [hc.estimate_coverage(net, sim, placement, load) for load in mcsim.LOAD_MODES]
        assert shared == alone
        ct, fl, idle = alone
        assert fl.mean <= ct.mean and idle.mean <= ct.mean
        assert fl.mean_stations_per_trial < ct.mean_stations_per_trial

    def test_fully_loaded_draws_the_active_stations_only(self):
        net = two_tier(p1=0.5, p2=0.3)
        sim = hc.SimConfig(trials=400, seed=45)
        est = hc.estimate_coverage(net, sim, load="fully-loaded")
        expected = sum(t.activity * t.density for t in net.tiers) * math.pi * est.window_radius**2
        assert abs(est.mean_stations_per_trial - expected) < 5.0 * math.sqrt(expected / 400)

    def test_truncated_interference_bound(self):
        net = single_tier(target_sir=2.0, activity=0.6)
        small = hc.estimate_coverage(net, hc.SimConfig(trials=200, seed=46))
        large = hc.estimate_coverage(
            net, hc.SimConfig(trials=200, seed=46, window_radius=2.0 * small.window_radius)
        )
        # the larger window holds every active station of the smaller one,
        # so at least as much interference, and leaves 2^(2 - alpha) = 1/4 of
        # its outside interference
        assert 0.0 < large.truncated_interference_bound
        assert large.truncated_interference_bound <= small.truncated_interference_bound / 4.0
        assert small.truncated_interference_bound < 0.05

    def test_truncated_interference_bound_holds_as_trials_grow(self):
        # the in-window interference has no finite mean: its sample mean
        # grew with the trial count, and the bound over it fell; the median
        # settles
        net = two_tier()
        bounds = [
            hc.estimate_coverage(
                net, hc.SimConfig(trials=n, seed=5), load="fully-loaded"
            ).truncated_interference_bound
            for n in (1_000, 30_000)
        ]
        assert 0.5 < bounds[1] / bounds[0] < 2.0

    def test_system_bound_uses_the_measured_activity(self):
        fig5 = TestEstimateCoverageSystem().fig5()
        sim = hc.SimConfig(trials=20, seed=47, window_radius=5.0)
        idle = hc.estimate_coverage_system(fig5, 0.0, 20, sim)
        assert idle.truncated_interference_bound == 0.0  # nothing transmits
        loaded = hc.estimate_coverage_system(fig5, 8.0, 10, sim)
        assert 0.0 < loaded.truncated_interference_bound < math.inf

    def test_every_float_field_is_a_python_float(self):
        # an int window radius and the system simulation's numpy activities
        # stay out of the reported types
        sim = hc.SimConfig(trials=20, seed=48, window_radius=4)
        for est in (
            hc.estimate_coverage(two_tier(), sim),
            hc.estimate_coverage_system(TestEstimateCoverageSystem().fig5(), 8.0, 10, sim),
        ):
            for name, hint in typing.get_type_hints(type(est)).items():
                value = getattr(est, name)
                if hint is float:
                    assert type(value) is float, name
                elif hint == tuple[float, ...]:
                    assert value and all(type(v) is float for v in value), name


CUTOFF_NETS = {
    "closed": hc.Network(
        alpha=3.6,
        tiers=(hc.Tier(1.0, 1.0, 2.0, 0.6), hc.Tier(0.1, 2.0, 0.8, 0.4), hc.Tier(0.01, 3.0, 1.5, 0.7)),
        access=[1, 3],
    ),
    "sub-0-dB": hc.Network(
        alpha=4.0, tiers=(hc.Tier(1.0, 1.0, 0.5, 0.3), hc.Tier(0.2, 4.0, 0.25, 0.2))
    ),
    "alpha-2.2": hc.Network(
        alpha=2.2, tiers=(hc.Tier(1.0, 0.5, 1.0, 0.5), hc.Tier(0.05, 3.0, 0.7, 0.3))
    ),
    "alpha-5.5": hc.Network(alpha=5.5, tiers=(hc.Tier(1.0, 1.0, 3.0, 0.4),)),
}


class TestIdleCutoff:
    def test_fade_max_bounds_every_fade(self):
        # Generator.random draws multiples of 2^-53 below 1, so a fade
        # -log1p(-u) is at most -log1p(-(1 - 2^-53))
        u = np.random.default_rng(3).random(1 << 16)
        assert (u < 1.0).all()
        np.testing.assert_array_equal(np.ldexp(u, 53), np.floor(np.ldexp(u, 53)))
        largest = np.nextafter(1.0, 0.0)
        assert largest == 1.0 - 2.0**-53
        assert mcsim._FADE_MAX >= -math.log1p(-largest)
        assert mcsim._FADE_MAX >= -np.log1p(-largest)
        assert mcsim._FADE_MAX < 1.0001 * 53.0 * math.log(2.0)

    @pytest.mark.parametrize("step", [1, mcsim._IDLE_STEP])
    @pytest.mark.parametrize("alpha", [2.2, 3.8, 5.5])
    def test_an_idle_stream_stops_without_losing_its_largest_signal(
        self, monkeypatch, alpha, step
    ):
        # windows of ~2,000 idle stations: the cut stream places a fraction
        # of them, keeps each column's largest fade * r2^(-alpha/2) and counts
        # the rest; steps of one row stop right at the cutoff
        monkeypatch.setattr(mcsim, "_IDLE_STEP", step)
        density, radius, blocks = 1.0, math.sqrt(2000.0 / math.pi), 16

        def stream(block, trials):
            largest = np.zeros(trials)
            placed, counted = 0, np.zeros(trials, dtype=np.int64)
            rng = mcsim._block_rng(9, block, 1, 1)
            for r2, fade, present, unplaced in mcsim._poisson_tier(
                rng, density, radius, trials, alpha
            ):
                gain = fade * r2 ** (-alpha / 2.0) * present
                np.maximum(largest, gain.max(axis=0), out=largest)
                placed += len(r2)
                counted += np.count_nonzero(present, axis=0) + unplaced
            return largest, placed, counted

        width = mcsim._BLOCK_TRIALS
        cut, placed, counted = zip(*(stream(b, width) for b in range(blocks)))
        assert max(placed) < 1000
        counted = np.concatenate(counted)
        assert abs(counted.mean() - 2000.0) < 5.0 * math.sqrt(2000.0 / len(counted))
        # a partial block stops where the full block stops
        np.testing.assert_array_equal(stream(0, 5)[2], counted[:5])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mcsim, "_FADE_MAX", math.inf)  # nothing is cut
            patch.setattr(mcsim, "_IDLE_STEP", 512)
            uncut = [stream(b, width) for b in range(blocks)]
        np.testing.assert_array_equal(np.concatenate(cut), np.concatenate([u[0] for u in uncut]))
        assert min(u[1] for u in uncut) > 2000

    @pytest.mark.parametrize("placement", mcsim.PLACEMENTS)
    @pytest.mark.parametrize("name", CUTOFF_NETS)
    def test_cutting_changes_no_decision(self, monkeypatch, name, placement):
        net = CUTOFF_NETS[name]
        sim = hc.SimConfig(trials=200, seed=61)
        cut = mcsim._estimate_loads(net, sim, placement, mcsim.LOAD_MODES)
        monkeypatch.setattr(mcsim, "_FADE_MAX", math.inf)  # nothing is cut
        uncut = mcsim._estimate_loads(net, sim, placement, mcsim.LOAD_MODES)
        area = math.pi * cut[0].window_radius ** 2
        for load, a, b in zip(mcsim.LOAD_MODES, cut, uncut):
            assert (a.mean, a.stderr, a.empty_trials, a.truncated_interference_bound) == (
                b.mean, b.stderr, b.empty_trials, b.truncated_interference_bound
            )
            # every active station, and the idle ones of accessible tiers
            # for a load with idle candidates
            expected = area * sum(
                t.density if load != "fully-loaded" and k + 1 in net.access
                else t.activity * t.density
                for k, t in enumerate(net.tiers)
            )
            for est in (a, b):
                assert abs(est.mean_stations_per_trial - expected) < 5.0 * math.sqrt(
                    expected / sim.trials
                )


def make_realization(positions, active, powers=None, radius=5.0, alpha=4.0):
    n = len(positions)
    return hc.Realization(
        positions=np.asarray(positions, dtype=float),
        tiers=np.ones(n, dtype=np.int64),
        active=np.asarray(active, dtype=bool),
        fading=np.ones(n),
        powers=np.ones(n) if powers is None else np.asarray(powers, dtype=float),
        radius=radius,
        alpha=alpha,
    )


def brute_force_serving(points, positions, rank):
    """Rank every point against every station: argmax of rank / d^2."""
    d2 = ((points[:, None, :] - positions[None, :, :]) ** 2).sum(axis=2)
    with np.errstate(divide="ignore"):
        return np.argmax(rank[None, :] / d2, axis=1)


def brute_force_raster(real, resolution, mode):
    centers = mcsim._pixel_centers(real.radius, resolution)
    x, y = np.meshgrid(centers, centers)
    pixels = np.column_stack((x.ravel(), y.ravel()))
    subset = np.arange(len(real))
    if mode == "thinned-biased":
        subset = np.flatnonzero(real.active)
    rank = real.powers[subset] ** (2.0 / real.alpha)
    grid = subset[brute_force_serving(pixels, real.positions[subset], rank)]
    grid = grid.reshape(resolution, resolution)
    if mode == "thinned-regions":
        grid = np.where(real.active[grid], grid, -1)
    return grid


def per_row_realization_csv(real) -> str:
    """Reference field writer: one numpy scalar conversion per cell."""
    lines = ["x,y,tier,active,fading\n"]
    for (x, y), tier, act, fade in zip(real.positions, real.tiers, real.active, real.fading):
        lines.append(f"{float(x)!r},{float(y)!r},{int(tier)},{int(act)},{float(fade)!r}\n")
    return "".join(lines)


def per_row_raster_csv(real, grid) -> str:
    """Reference raster writer: one pixel at a time, blank pixels as tier -1."""
    centers = mcsim._pixel_centers(real.radius, grid.shape[0]).tolist()
    lines = ["x,y,bs_id,tier\n"]
    for iy, y in enumerate(centers):
        for ix, x in enumerate(centers):
            bs = int(grid[iy, ix])
            tier = int(real.tiers[bs]) if bs >= 0 else -1
            lines.append(f"{x!r},{y!r},{bs},{tier}\n")
    return "".join(lines)


class TestServingStation:
    def test_matches_the_brute_force_ranking(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            positions = rng.uniform(-4.0, 4.0, size=(n, 2))
            # repeated powers, plus one power group with a single member
            powers = rng.choice([0.05, 1.0, 20.0], size=n)
            powers[rng.integers(n)] = 3.0
            rank = powers ** (2.0 / rng.uniform(2.5, 5.0))
            on_station = positions[rng.integers(n, size=5)]
            points = np.vstack((rng.uniform(-5.0, 5.0, size=(40, 2)), on_station))
            got = mcsim._serving_station(points, positions, rank)
            np.testing.assert_array_equal(
                got, brute_force_serving(points, positions, rank)
            )

    def test_ties_go_to_the_lower_rank(self):
        # rank 4 at distance 2 and rank 1 at distance 1 score exactly alike
        positions = np.array([[2.0, 0.0], [0.0, 1.0]])
        got = mcsim._serving_station(np.zeros((1, 2)), positions, np.array([4.0, 1.0]))
        np.testing.assert_array_equal(got, [1])

    def test_no_station_serves_nobody(self):
        got = mcsim._serving_station(np.zeros((3, 2)), np.zeros((0, 2)), np.zeros(0))
        np.testing.assert_array_equal(got, [-1, -1, -1])


class TestCoverageRegionRaster:
    @pytest.mark.parametrize("placement", mcsim.PLACEMENTS)
    @pytest.mark.parametrize("mode", mcsim.RASTER_MODES)
    def test_matches_the_brute_force_grid(self, placement, mode):
        net = hc.Network(
            alpha=3.3,
            tiers=(
                hc.Tier(10.0, 0.3, 2.0, 0.6),
                hc.Tier(1.0, 1.0, 2.0, 0.5),
                hc.Tier(0.05, 2.0, 2.0, 0.3),
            ),
        )
        for seed in range(3):
            real = hc.draw_realization(net, 4.0, _trial_rng(seed, 0), placement)
            np.testing.assert_array_equal(
                hc.coverage_region_raster(real, 24, mode),
                brute_force_raster(real, 24, mode),
            )

    def test_single_station_owns_every_pixel(self):
        real = make_realization([[1.0, -2.0]], [True])
        grid = hc.coverage_region_raster(real, 16, "full")
        assert (grid == 0).all()

    def test_equal_power_boundary_is_the_bisector(self):
        real = make_realization([[-2.0, 0.0], [2.0, 0.0]], [True, True])
        grid = hc.coverage_region_raster(real, 20, "full")
        assert (grid[:, :10] == 0).all()
        assert (grid[:, 10:] == 1).all()

    def test_thinned_regions_blank_the_silent_cells(self):
        real = make_realization([[-2.0, 0.0], [2.0, 0.0]], [True, False])
        grid = hc.coverage_region_raster(real, 20, "thinned-regions")
        assert (grid[:, :10] == 0).all()
        assert (grid[:, 10:] == -1).all()

    def test_thinned_biased_expands_the_survivors(self):
        real = make_realization([[-2.0, 0.0], [2.0, 0.0]], [True, False])
        grid = hc.coverage_region_raster(real, 20, "thinned-biased")
        assert (grid == 0).all()

    def test_cell_areas_grow_under_thinning(self):
        net = two_tier(p1=0.5, p2=0.5)
        real = hc.draw_realization(net, 6.0, _trial_rng(24, 0))
        full = hc.coverage_region_raster(real, 50, "full")
        biased = hc.coverage_region_raster(real, 50, "thinned-biased")
        for station in np.unique(full):
            if real.active[station]:
                assert (biased == station).sum() >= (full == station).sum()

    def test_higher_power_station_reaches_further(self):
        real = make_realization(
            [[-2.0, 0.0], [2.0, 0.0]], [True, True], powers=[100.0, 1.0]
        )
        grid = hc.coverage_region_raster(real, 20, "full")
        assert (grid == 0).sum() > (grid == 1).sum()

    def test_csv_export_shape(self):
        real = make_realization([[0.0, 0.0]], [True])
        grid = hc.coverage_region_raster(real, 8, "full")
        buffer = io.StringIO()
        hc.raster_to_csv(real, grid, buffer)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == "x,y,bs_id,tier"
        assert len(lines) == 8 * 8 + 1

    def test_csv_coordinates_are_the_raster_pixel_centres(self):
        real = make_realization([[1.0, -2.0]], [True], radius=3.7)
        grid = hc.coverage_region_raster(real, 7, "full")
        buffer = io.StringIO()
        hc.raster_to_csv(real, grid, buffer)
        centres = [-3.7 + (k + 0.5) * (2.0 * 3.7 / 7) for k in range(7)]
        want = [f"{x!r},{y!r},0,1" for y in centres for x in centres]
        assert buffer.getvalue().splitlines()[1:] == want

    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("placement", mcsim.PLACEMENTS)
    @pytest.mark.parametrize("mode", mcsim.RASTER_MODES)
    def test_csv_writers_match_the_per_row_writers(self, mode, placement, seed):
        real = hc.draw_realization(two_tier(p1=0.5, p2=0.3), 3.0, _trial_rng(seed, 0),
                                   placement=placement)
        grid = hc.coverage_region_raster(real, 15, mode)
        if mode == "thinned-regions":
            assert (grid == -1).any()  # blank pixels take the tier -1 path
        raster, field = io.StringIO(), io.StringIO()
        hc.raster_to_csv(real, grid, raster)
        hc.realization_to_csv(real, field)
        assert raster.getvalue() == per_row_raster_csv(real, grid)
        assert field.getvalue() == per_row_realization_csv(real)

    @pytest.mark.parametrize("mode", mcsim.RASTER_MODES)
    def test_an_empty_field_blanks_every_pixel(self, mode):
        real = make_realization(np.zeros((0, 2)), [])
        grid = hc.coverage_region_raster(real, 6, mode)
        np.testing.assert_array_equal(grid, np.full((6, 6), -1))
        buffer = io.StringIO()
        hc.raster_to_csv(real, grid, buffer)
        rows = buffer.getvalue().splitlines()[1:]
        assert len(rows) == 36
        assert all(row.endswith(",-1,-1") for row in rows)

    def test_validation(self):
        real = make_realization([[0.0, 0.0]], [True])
        with pytest.raises(ValueError):
            hc.coverage_region_raster(real, 0, "full")
        with pytest.raises(ValueError):
            hc.coverage_region_raster(real, 8, "nope")

"""Series-layer tests: the coverage series and its corollaries, truncation
bounds, stopping behaviour and the structural properties of the model."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hetcov import (
    AssumptionWarning,
    ModelValidationError,
    Network,
    SeriesControl,
    SeriesConvergenceError,
    Tier,
    closed_form_first_terms,
    convergence_threshold,
    correction_term,
    correction_trace,
    coverage,
    coverage_bounds,
    coverage_equal_targets,
    coverage_idle_only,
    coverage_single_tier,
    derived_constants,
    effective_load,
    full_load_coverage,
    hypergeometric_sum,
    interference_constant,
    laplace_interference,
    tier_addition_effect,
    truncation_terms,
)
from hetcov.analytic import _hyper_rows, _network_series, coverage_batch
from helpers import coverage_mpmath, hyp2f1_quadrature, random_converging_network, random_network

# Frozen values also used in test_model and test_specfun: the single-tier
# hypergeometric sum at alpha = 4, m = 1, unit target and full activity, and
# 2F1(1, 1/2; 2; 1/2) = 4 - 2 sqrt(2).
B1_SINGLE_TIER = 0.8284271247461898
HYP_1_HALF_2_HALF = 1.1715728752538095


def single_tier(power=1.0, density=1.0, target_sir=1.0, activity=0.5, alpha=4.0):
    return Network(
        alpha=alpha,
        tiers=(Tier(power=power, density=density, target_sir=target_sir, activity=activity),),
    )


class TestLaplaceInterference:
    def test_at_zero(self):
        assert laplace_interference(single_tier(), 0.0) == 1.0

    def test_closed_single_tier_value(self):
        net = single_tier(activity=1.0)
        assert laplace_interference(net, 1.0) == pytest.approx(
            math.exp(-math.pi**2 / 2.0), rel=1e-14
        )

    def test_completely_monotone_grid(self):
        net = single_tier(activity=0.7)
        values = [laplace_interference(net, s) for s in (0.0, 0.1, 1.0, 10.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            laplace_interference(single_tier(), -1.0)

    def test_nan_is_outside_the_domain(self):
        with pytest.raises(ValueError, match="non-negative"):
            laplace_interference(single_tier(), float("nan"))


class TestCorrectionTerm:
    def test_vanishes_when_fully_loaded(self):
        net = Network(alpha=4.0, tiers=(Tier(1, 1, 2.0, 1.0), Tier(0.01, 3, 4.0, 1.0)))
        assert all(correction_term(net, m) == 0.0 for m in range(1, 6))

    def test_signs_alternate(self):
        net = single_tier(target_sir=2.0, activity=0.6)
        for m in range(1, 12):
            term = correction_term(net, m)
            assert (term < 0) == (m % 2 == 1)

    def test_envelope_dominates(self):
        rng = random.Random(9)
        for _ in range(12):
            net = random_network(rng, activity_range=(0.25, 0.98))
            ratio = derived_constants(net).a_over_eta
            for m in range(1, 51):
                envelope = math.exp(
                    m * math.log(ratio) - math.lgamma(1.0 + 2.0 * m / net.alpha)
                )
                assert abs(correction_term(net, m)) <= envelope * (1.0 + 1e-12)

    def test_index_domain(self):
        with pytest.raises(ValueError):
            correction_term(single_tier(), 0)

    def test_index_must_be_integral(self):
        net = single_tier(target_sir=2.0, activity=0.6)
        for m in (2.5, math.inf, math.nan):
            with pytest.raises(ValueError, match="must be an integer"):
                correction_term(net, m)
        # numpy's integers and integral floats name the same term
        assert correction_term(net, np.int64(3)) == correction_term(net, 3.0) == correction_term(
            net, 3)

    def test_overflowing_term_raises_as_the_bounds_do(self):
        # activity 0.001 at 3 dB: the terms pass the largest double well
        # before index 400, where the trace reads inf
        net = single_tier(target_sir=10.0**0.3, activity=0.001)
        assert correction_trace(net, count=400)[-1].term == math.inf
        with pytest.raises(SeriesConvergenceError, match="term 400 overflows"):
            correction_term(net, 400)
        with pytest.raises(SeriesConvergenceError):
            coverage_bounds(net, 200)


class TestClosedFormFirstTerms:
    def test_fully_loaded_gives_zeros(self):
        net = Network(alpha=4.0, tiers=(Tier(1, 1, 2.0, 1.0),))
        assert closed_form_first_terms(net) == (0.0, 0.0)

    def test_single_tier_cross_check(self):
        net = single_tier(target_sir=1.0, activity=0.5)
        g1, g2 = closed_form_first_terms(net)
        assert g1 == pytest.approx(correction_term(net, 1), abs=1e-10)
        assert g2 == pytest.approx(correction_term(net, 2), abs=1e-10)

    def test_two_tier_cross_check(self):
        rng = random.Random(4)
        for _ in range(25):
            net = random_network(rng, k=2, alpha=4.0, beta_range=(1.01, 10.0),
                                 activity_range=(0.05, 1.0))
            g1, g2 = closed_form_first_terms(net)
            assert g1 == pytest.approx(correction_term(net, 1), abs=1e-10)
            assert g2 == pytest.approx(correction_term(net, 2), abs=1e-10)

    def test_requires_exponent_four(self):
        with pytest.raises(ValueError):
            closed_form_first_terms(single_tier(alpha=3.9))


class TestFullLoadCoverage:
    def test_single_tier_unit_target(self):
        net = single_tier(activity=1.0)
        result = full_load_coverage(net)
        assert result.value == pytest.approx(2.0 / math.pi, rel=1e-14)
        assert result.lower == result.value == result.upper
        assert result.terms_used == 0

    def test_equal_targets_scale_free(self):
        rng = random.Random(11)
        for _ in range(15):
            beta = rng.uniform(1.1, 8.0)
            alpha = rng.uniform(2.5, 5.5)
            p = rng.uniform(0.2, 1.0)
            tiers = tuple(
                Tier(10 ** rng.uniform(-2, 1), 10 ** rng.uniform(-1, 1), beta, p)
                for _ in range(3)
            )
            net = Network(alpha=alpha, tiers=tiers)
            expected = math.pi / interference_constant(alpha) * beta ** (-2.0 / alpha)
            assert full_load_coverage(net).value == pytest.approx(expected, rel=1e-12)

    def test_access_equal_to_everything_matches_open(self):
        tiers = (Tier(1, 1, 2.0, 0.8), Tier(0.01, 2, 3.0, 0.5))
        open_net = Network(alpha=3.8, tiers=tiers)
        closed_net = Network(alpha=3.8, tiers=tiers, access=[1, 2])
        assert full_load_coverage(closed_net).value == full_load_coverage(open_net).value


class TestCoverage:
    def test_fully_loaded_reduction_is_exact(self):
        rng = random.Random(21)
        for _ in range(20):
            net = random_network(rng, activity_range=(1.0, 1.0))
            result = coverage(net)
            assert result.terms_used == 0
            assert result.value == full_load_coverage(net).value

    def test_low_target_warns(self):
        with pytest.warns(AssumptionWarning):
            coverage(single_tier(target_sir=1.0))

    def test_low_target_trace_warns(self):
        with pytest.warns(AssumptionWarning):
            correction_trace(single_tier(target_sir=1.0), count=2)

    def test_high_target_does_not_warn(self):
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error", AssumptionWarning)
            coverage(single_tier(target_sir=2.0))

    @pytest.mark.parametrize(
        "call, flags",
        [
            (lambda net: coverage(net), 1),
            (lambda net: coverage_batch([net]), 1),
            (lambda net: correction_trace(net), 1),
            (lambda net: correction_term(net, 2), 1),
            (lambda net: full_load_coverage(net), 1),
            (lambda net: coverage_bounds(net, 2), 1),
            (lambda net: truncation_terms(net, 1e-10), 1),
            (lambda net: coverage_single_tier(1.0, 1.0, net.tiers[0].target_sir, 0.5, 4.0), 1),
            (lambda net: coverage_equal_targets(net), 1),
            # the idle-only series is exact for every target
            (lambda net: coverage_idle_only(net), 0),
        ],
        ids=["coverage", "coverage_batch", "correction_trace", "correction_term",
             "full_load_coverage", "coverage_bounds", "truncation_terms",
             "coverage_single_tier", "coverage_equal_targets", "coverage_idle_only"],
    )
    def test_a_target_below_0_db_is_flagged_once_at_the_callers_line(
        self, recwarn, call, flags
    ):
        call(single_tier(target_sir=10.0**-0.3))  # -3 dB
        flagged = [(w.category, w.filename) for w in recwarn]
        assert flagged == [(AssumptionWarning, __file__)] * flags

    def test_converged_bracket(self):
        net = single_tier(target_sir=1.5, activity=0.6)
        result = coverage(net)
        assert result.converged
        assert result.lower <= result.value <= result.upper
        assert result.upper - result.lower < 1e-9

    def test_matches_single_tier_form(self):
        rng = random.Random(2)
        for _ in range(25):
            p = rng.uniform(0.25, 1.0)
            beta = rng.uniform(1.05, 8.0)
            alpha = rng.uniform(2.5, 5.5)
            lam, power = 10 ** rng.uniform(-1, 1), 10 ** rng.uniform(-2, 1)
            general = coverage(single_tier(power, lam, beta, p, alpha)).value
            reduced = coverage_single_tier(power, lam, beta, p, alpha).value
            assert general == pytest.approx(reduced, abs=1e-12)

    def test_matches_equal_targets_form(self):
        rng = random.Random(3)
        for _ in range(25):
            net = random_network(rng, equal_beta=True, activity_range=(0.3, 1.0))
            assert coverage(net).value == pytest.approx(
                coverage_equal_targets(net).value, abs=1e-12
            )

    def test_full_load_is_pessimistic(self):
        # Unit target, exponent 3.8: partial load restores a chunk of coverage.
        loaded = coverage(single_tier(target_sir=1.0, activity=0.8, alpha=3.8))
        full = coverage(single_tier(target_sir=1.0, activity=1.0, alpha=3.8))
        assert loaded.value - full.value > 0.01

    def test_term_cap_reports_non_convergence(self):
        result = coverage(single_tier(activity=0.6), SeriesControl(epsilon=1e-10, max_terms=3))
        assert not result.converged
        assert result.terms_used == 3

    def test_closed_access_not_above_open(self):
        rng = random.Random(14)
        for _ in range(15):
            net = random_network(rng, k=rng.choice([2, 3]), closed=True)
            if net.is_open_access:
                continue
            open_net = Network(alpha=net.alpha, tiers=net.tiers)
            assert coverage(net).value <= coverage(open_net).value + 1e-12


class TestCoverageBounds:
    def test_fully_loaded_collapses(self):
        net = single_tier(activity=1.0)
        lower, upper = coverage_bounds(net, 1)
        assert lower == upper == full_load_coverage(net).value

    def test_width_is_the_even_term(self):
        # equality up to one rounding of the endpoint arithmetic
        net = single_tier(target_sir=1.5, activity=0.5)
        for m in (1, 2, 4):
            lower, upper = coverage_bounds(net, m)
            width = upper - lower
            term = abs(correction_term(net, 2 * m))
            assert width == pytest.approx(term, rel=1e-12, abs=1e-15)

    def test_sandwich_and_shrinking_widths(self):
        net = single_tier(activity=0.5)  # activity above the decay threshold
        value = coverage(net).value
        widths = []
        for m in range(1, 9):
            lower, upper = coverage_bounds(net, m)
            assert lower <= value <= upper
            widths.append(upper - lower)
        assert all(a > b for a, b in zip(widths, widths[1:]))

    def test_order_domain(self):
        with pytest.raises(ValueError):
            coverage_bounds(single_tier(), 0)

    def test_order_must_be_integral(self):
        net = single_tier(activity=0.5)
        for m in (1.5, math.inf, math.nan):
            with pytest.raises(ValueError, match="must be an integer"):
                coverage_bounds(net, m)
        assert coverage_bounds(net, np.int32(2)) == coverage_bounds(net, 2)


class TestTruncationTerms:
    def test_fully_loaded_needs_one_term(self):
        assert truncation_terms(single_tier(activity=1.0), 1e-8) == 1

    def test_non_increasing_in_activity(self):
        counts = [
            truncation_terms(single_tier(activity=p), 1e-8)
            for p in (0.25, 0.5, 0.75, 1.0)
        ]
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        assert counts[0] > counts[-1]

    def test_partial_sums_rise_then_fall_at_low_activity(self):
        trace = correction_trace(single_tier(activity=0.25), SeriesControl(epsilon=1e-10))
        magnitudes = [abs(t.partial_sum) for t in trace]
        peak = magnitudes.index(max(magnitudes))
        assert 0 < peak < len(magnitudes) - 1
        assert magnitudes[peak] > magnitudes[0]
        assert magnitudes[peak] > magnitudes[-1]

    def test_no_hump_at_high_activity(self):
        trace = correction_trace(single_tier(activity=0.75), SeriesControl(epsilon=1e-10))
        magnitudes = [abs(t.partial_sum) for t in trace]
        assert magnitudes.index(max(magnitudes)) == 0

    def test_cap_exceeded_raises(self):
        with pytest.raises(SeriesConvergenceError):
            truncation_terms(single_tier(activity=0.6), 1e-10, max_terms=3)


class TestCorrectionTrace:
    def test_trace_matches_terms_and_envelope(self):
        net = single_tier(target_sir=2.0, activity=0.5)
        trace = correction_trace(net, count=6)
        ratio = derived_constants(net).a_over_eta
        running = 0.0
        for entry in trace:
            assert entry.term == correction_term(net, entry.index)
            running += entry.term
            assert entry.partial_sum == pytest.approx(running, rel=1e-12)
            expected_env = math.exp(
                entry.index * math.log(ratio)
                - math.lgamma(1.0 + 2.0 * entry.index / net.alpha)
            )
            assert entry.majorant == pytest.approx(expected_env, rel=1e-12)
            assert abs(entry.term) <= entry.majorant * (1.0 + 1e-12)

    def test_count_domain(self):
        with pytest.raises(ValueError):
            correction_trace(single_tier(), count=0)

    def test_count_must_be_integral(self):
        net = single_tier(target_sir=2.0, activity=0.5)
        for count in (2.5, math.inf, math.nan):
            with pytest.raises(ValueError, match="must be an integer"):
                correction_trace(net, count=count)
        assert correction_trace(net, count=np.int64(3)) == correction_trace(net, count=3)

    def test_fully_loaded_access_tiers_trace_no_term(self):
        # no access tier has an idle station, so A/eta is 0 and every term
        # vanishes; the other tier's idle stations cannot serve the user
        net = Network(
            alpha=4.0, tiers=(Tier(1.0, 1.0, 2.0, 1.0), Tier(0.1, 2.0, 2.0, 0.5)), access=[1]
        )
        assert derived_constants(net).a_over_eta == 0.0
        assert correction_trace(net) == []

    def test_partial_sums_are_fsums_of_the_prefixes(self):
        rng = random.Random(47)
        for _ in range(60):
            net = random_network(rng, activity_range=(0.02, 1.0))
            trace = correction_trace(net, count=rng.randint(16, 1500))
            terms = [t.term for t in trace]
            assert [t.partial_sum for t in trace] == [
                math.fsum(terms[:i]) for i in range(1, len(terms) + 1)
            ]


class TestConvergenceThreshold:
    def test_unit_target_exponent_four(self):
        value = convergence_threshold(1.0, 4.0)
        assert value == pytest.approx(1.0 / (1.0 + math.sqrt(math.pi)), rel=1e-14)
        assert 0.355 <= value <= 0.366

    def test_vanishes_for_huge_targets(self):
        assert convergence_threshold(1e12, 4.0) < 1e-5

    def test_guarantees_decaying_envelope(self):
        rng = random.Random(17)
        for _ in range(100):
            net = random_converging_network(rng, k=3)
            assert derived_constants(net).a_over_eta < 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            convergence_threshold(0.0, 4.0)


class TestCoverageSingleTier:
    def test_fully_loaded_closed_value(self):
        for alpha, beta in ((4.0, 1.0), (3.8, 2.5)):
            expected = math.pi / interference_constant(alpha) * beta ** (-2.0 / alpha)
            got = coverage_single_tier(1.0, 1.0, beta, 1.0, alpha).value
            assert got == pytest.approx(expected, rel=1e-14)

    def test_scale_free_exactly(self):
        base = coverage_single_tier(1.0, 1.0, 2.0, 0.6, 3.8)
        moved = coverage_single_tier(7.0, 3.0, 2.0, 0.6, 3.8)
        assert base.value == moved.value

    def test_zero_activity_rejected(self):
        with pytest.raises(ModelValidationError):
            coverage_single_tier(1.0, 1.0, 2.0, 0.0, 4.0)


class TestCoverageEqualTargets:
    def test_common_activity_collapses_to_single_tier(self):
        tiers = tuple(Tier(10.0**i, 2.0 * i + 1.0, 2.0, 0.7) for i in range(3))
        net = Network(alpha=3.7, tiers=tiers)
        assert coverage_equal_targets(net).value == pytest.approx(
            coverage_single_tier(1.0, 1.0, 2.0, 0.7, 3.7).value, abs=1e-10
        )

    def test_fully_loaded_reduction(self):
        tiers = (Tier(1, 1, 2.0, 1.0), Tier(0.01, 5, 2.0, 1.0))
        net = Network(alpha=4.0, tiers=tiers)
        expected = math.pi / interference_constant(4.0) * 2.0**-0.5
        assert coverage_equal_targets(net).value == pytest.approx(expected, rel=1e-12)

    def test_density_sweep_is_flat_for_matched_activities(self):
        values = [
            coverage_equal_targets(
                Network(
                    alpha=3.8,
                    tiers=(Tier(1.0, lam1, 1.5, 0.6), Tier(0.01, 2.0, 1.5, 0.6)),
                )
            ).value
            for lam1 in np.linspace(0.2, 5.0, 9)
        ]
        assert max(values) - min(values) < 1e-9

    def test_decreasing_in_effective_load(self):
        values = [
            coverage_equal_targets(
                Network(
                    alpha=3.8,
                    tiers=(Tier(1.0, 1.0, 2.0, p), Tier(0.01, 3.0, 2.0, p)),
                )
            ).value
            for p in (0.2, 0.4, 0.6, 0.8, 1.0)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_mixed_targets_rejected(self):
        net = Network(alpha=4.0, tiers=(Tier(1, 1, 2.0, 0.5), Tier(1, 1, 3.0, 0.5)))
        with pytest.raises(ModelValidationError):
            coverage_equal_targets(net)


class TestTierAddition:
    def base_network(self) -> Network:
        return Network(
            alpha=3.8,
            tiers=(Tier(1.0, 1.0, 2.0, 0.6), Tier(0.01, 2.0, 2.0, 0.4)),
        )

    def test_trichotomy_verdicts_and_coverage_signs(self):
        net = self.base_network()
        p_eff = effective_load(net)
        before = coverage_equal_targets(net).value
        cases = (
            (p_eff, "unchanged"),
            (max(p_eff - 0.2, 0.02), "increases"),
            (min(p_eff + 0.2, 0.99), "decreases"),
        )
        for p_new, expected in cases:
            new_tier = Tier(0.05, 1.5, 2.0, p_new)
            assert tier_addition_effect(net, new_tier) == expected
            after = coverage_equal_targets(
                Network(alpha=net.alpha, tiers=net.tiers + (new_tier,))
            ).value
            if expected == "unchanged":
                assert after == pytest.approx(before, abs=1e-8)
            elif expected == "increases":
                assert after > before
            else:
                assert after < before

    def test_lightly_loaded_small_cells_help(self):
        macro = Network(alpha=3.8, tiers=(Tier(1.0, 1.0, 2.0, 0.6),))
        small = Tier(0.001, 10.0, 2.0, 0.4)
        assert tier_addition_effect(macro, small) == "increases"

    def test_mixed_targets_rejected(self):
        with pytest.raises(ModelValidationError):
            tier_addition_effect(self.base_network(), Tier(1.0, 1.0, 3.0, 0.5))


class TestCoverageIdleOnly:
    def test_no_idle_candidates_means_no_coverage(self):
        net = Network(alpha=4.0, tiers=(Tier(1, 1, 2.0, 1.0),))
        result = coverage_idle_only(net)
        assert result.value == 0.0
        assert result.terms_used == 0

    def test_bracketed_and_sensible(self):
        result = coverage_idle_only(single_tier(activity=0.5))
        assert result.converged
        assert 0.0 < result.value < 1.0
        assert result.lower <= result.value <= result.upper

    def test_more_idle_stations_more_idle_coverage(self):
        values = [
            coverage_idle_only(single_tier(target_sir=2.0, activity=p)).value
            for p in (0.9, 0.6, 0.3)
        ]
        assert values[0] < values[1] < values[2]


class TestScaleInvariance:
    def test_single_tier_grid(self):
        reference = coverage(single_tier(1.0, 1.0, 2.0, 0.55, 3.9)).value
        for c in (0.1, 1.0, 10.0):
            for d in (0.1, 1.0, 10.0):
                scaled = coverage(single_tier(d, c, 2.0, 0.55, 3.9)).value
                assert scaled == pytest.approx(reference, abs=1e-10)

    def test_compensated_per_tier_rescaling(self):
        rng = random.Random(8)
        tiers = tuple(Tier(10 ** rng.uniform(-1, 1), 10 ** rng.uniform(-1, 1), 2.0, 0.65) for _ in range(3))
        net = Network(alpha=3.6, tiers=tiers)
        reference = coverage_equal_targets(net).value
        # rescale densities per tier and compensate powers so each product
        # density * power^(2/alpha) scales by the same factor
        factor = 4.0
        scaled_tiers = []
        for t in net.tiers:
            c_i = rng.uniform(0.2, 5.0)
            d_i = (factor / c_i) ** (net.alpha / 2.0)
            scaled_tiers.append(Tier(t.power * d_i, t.density * c_i, t.target_sir, t.activity))
        scaled = coverage_equal_targets(Network(alpha=net.alpha, tiers=tuple(scaled_tiers))).value
        assert scaled == pytest.approx(reference, abs=1e-10)


class TestSeriesControl:
    def test_validation(self):
        with pytest.raises(ValueError):
            SeriesControl(epsilon=0.0)
        with pytest.raises(ValueError):
            SeriesControl(max_terms=0)


class TestSeriesKernel:
    def test_batch_is_bitwise_single_point_coverage(self):
        rng = random.Random(31)
        nets = [random_network(rng, activity_range=(0.3, 1.0), closed=rng.random() < 0.4)
                for _ in range(30)]
        nets.append(single_tier(activity=1.0))  # ratio zero: no series at all
        nets.append(single_tier(target_sir=2.0, activity=0.05))  # unconverged
        control = SeriesControl(epsilon=1e-10)
        assert coverage_batch(nets, control) == [coverage(n, control) for n in nets]

    def test_tier_sum_matches_hypergeometric_sum(self):
        rng = random.Random(32)
        m = np.arange(1.0, 41.0)
        for _ in range(20):
            net = random_network(rng, closed=rng.random() < 0.4)
            series = _network_series(net)
            rows = _hyper_rows(
                np.full(len(series.betas), 2.0 / net.alpha), np.array(series.betas), m
            )
            scale = derived_constants(net).interference_scale
            kernel = scale * (np.array(series.weights) @ rows)
            for index in (1, 2, 7, 40):
                assert kernel[index - 1] == pytest.approx(
                    hypergeometric_sum(net, index), rel=1e-12
                )

    def test_tier_sum_frozen_and_quadrature_baselines(self):
        one = np.array([1.0])
        assert _hyper_rows(np.array([0.5]), one, one)[0, 0] == pytest.approx(
            B1_SINGLE_TIER, rel=1e-12
        )
        assert _hyper_rows(np.array([0.5]), one, one)[0, 0] == pytest.approx(
            2.0**-0.5 * HYP_1_HALF_2_HALF, rel=1e-12
        )
        rng = random.Random(33)
        for _ in range(30):
            alpha, beta, index = rng.uniform(2.2, 6.0), rng.uniform(0.3, 9.0), rng.randint(1, 12)
            delta = 2.0 / alpha
            b, c = delta * index, 1.0 + (index + 1) * delta
            expected = (1.0 + beta) ** -b * hyp2f1_quadrature(1.0, b, c, 1.0 / (1.0 + beta))
            got = _hyper_rows(np.array([delta]), np.array([beta]), np.array([float(index)]))
            assert got[0, 0] == pytest.approx(expected, rel=1e-8)

    def test_blocks_do_not_change_terms(self):
        # Term m must not depend on which block or batch computed it.
        net = single_tier(target_sir=2.0, activity=0.3)
        trace = correction_trace(net, count=100)
        for m in (1, 31, 32, 33, 96, 97, 100):
            assert trace[m - 1].term == correction_term(net, m)


@st.composite
def loaded_networks(draw):
    k = draw(st.integers(1, 3))
    tiers = tuple(
        Tier(
            power=10.0 ** draw(st.floats(-2.0, 1.0)),
            density=10.0 ** draw(st.floats(-1.0, 1.0)),
            target_sir=draw(st.floats(1.2, 6.0)),
            activity=draw(st.floats(0.3, 1.0)),
        )
        for _ in range(k)
    )
    access = None
    if k > 1 and draw(st.booleans()):
        access = draw(st.sets(st.integers(1, k), min_size=1, max_size=k - 1))
    return Network(alpha=draw(st.floats(2.6, 5.5)), tiers=tiers, access=access)


class TestAgainstMpmathOracle:
    @settings(max_examples=25)
    @given(loaded_networks())
    def test_value_within_bracket_of_oracle(self, net):
        pytest.importorskip("mpmath")
        result = coverage(net)
        assert result.converged
        assert result.lower <= result.value <= result.upper
        reference = coverage_mpmath(net)
        assert abs(result.value - reference) <= result.upper - result.lower + 1e-12

    def test_oracle_precision_follows_the_peak_term(self):
        # The term envelope peaks near 1e71 here; 40 fixed digits returned 5.7e30.
        pytest.importorskip("mpmath")
        net = single_tier(target_sir=2.0, activity=0.03)
        reference = coverage_mpmath(net)
        assert reference == pytest.approx(0.99844001431, abs=1e-11)
        assert abs(reference - coverage_mpmath(net, digits=60)) <= 1e-15


class TestLowLoad:
    """At low activity the alternating terms grow far beyond one before they
    cancel, and double precision cannot hold the sum: the result must say
    so rather than return a wrong number as converged."""

    def test_rounding_beats_epsilon_reports_non_convergence(self):
        net = single_tier(target_sir=2.0, activity=0.05)
        assert not coverage(net).converged
        assert not coverage_single_tier(1.0, 1.0, 2.0, 0.05, 4.0).converged
        assert not coverage_equal_targets(net).converged
        assert not coverage_idle_only(net).converged
        with pytest.raises(SeriesConvergenceError):
            truncation_terms(net, 1e-10)

    def test_huge_ratio_neither_overflows_nor_converges(self):
        net = single_tier(target_sir=2.0, activity=0.02)
        result = coverage(net)
        assert not result.converged
        assert math.isfinite(result.value)
        with pytest.raises(SeriesConvergenceError):
            truncation_terms(net, 1e-10)
        assert all(math.isfinite(t.term) for t in correction_trace(net, count=400))

    def test_overflowing_terms_read_inf_or_raise(self):
        # the envelope passes 1e308 near index 200, and fsum of an inf and
        # a -inf raises
        net = single_tier(target_sir=10.0 ** 0.3, activity=0.001)
        trace = correction_trace(net, count=400)
        assert math.isfinite(trace[99].partial_sum)
        assert math.isinf(trace[-1].term) and math.isinf(trace[-1].majorant)
        assert math.isnan(trace[-1].partial_sum)
        with pytest.raises(SeriesConvergenceError):
            coverage_bounds(net, 300)

    @pytest.mark.xfail(
        strict=True,
        reason="the rounding estimate u * sum |t_m| is 2-8x optimistic once the "
        "peak term passes ~1e4: this point reports converged 1.8e-10 from the "
        "oracle, outside its 6.75e-11 bracket",
    )
    def test_converged_value_within_its_bracket_of_the_oracle(self):
        pytest.importorskip("mpmath")
        net = single_tier(target_sir=2.0, activity=0.1)
        result = coverage(net)
        reference = coverage_mpmath(net)
        assert (
            not result.converged
            or abs(result.value - reference) <= result.upper - result.lower + 1e-13
        )

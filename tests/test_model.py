"""Model-layer tests: type validation, derived scalars, activity calibration,
tier splitting and the JSON scenario format."""

import inspect
import math
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from hetcov import (
    ModelValidationError,
    Network,
    Tier,
    activity_from_user_density,
    derived_constants,
    effective_load,
    hypergeometric_sum,
    network_from_dict,
    network_from_json,
    network_to_dict,
    network_to_json,
    split_access_fraction,
    user_fraction_per_tier,
    validate,
    validation_warnings,
)
from hetcov import mcsim, model
from helpers import hyp2f1_quadrature, random_network

# Frozen from direct evaluation with the quadrature-backed hypergeometric
# oracle: single tier, alpha=4, m=1, unit power/density, target 1, activity 1.
B1_SINGLE_TIER = 0.8284271247461898


def tier(power=1.0, density=1.0, target_sir=1.0, activity=0.5) -> Tier:
    return Tier(power=power, density=density, target_sir=target_sir, activity=activity)


class TestTier:
    @pytest.mark.parametrize(
        "kwargs,field",
        [
            (dict(power=0.0), "power"),
            (dict(power=-1.0), "power"),
            (dict(density=-0.5), "density"),
            (dict(target_sir=0.0), "target_sir"),
            (dict(target_sir=1e-320), "target_sir must have a finite reciprocal"),
            (dict(activity=-0.1), "activity"),
            (dict(activity=1.1), "activity"),
            (dict(power=math.inf), "power"),
        ],
    )
    def test_invalid_fields_name_the_field(self, kwargs, field):
        with pytest.raises(ModelValidationError, match=field):
            tier(**kwargs)

    def test_zero_density_is_allowed(self):
        assert tier(density=0.0).density == 0.0

    def test_delta_ratio(self):
        assert tier(target_sir=1.0).delta == 0.5
        assert tier(target_sir=3.0).delta == 0.75


class TestNetwork:
    def test_alpha_at_the_pole_rejected(self):
        with pytest.raises(ModelValidationError, match="alpha"):
            Network(alpha=2.0, tiers=(tier(),))

    def test_all_tiers_silent_rejected(self):
        with pytest.raises(ModelValidationError, match="transmits"):
            Network(alpha=4.0, tiers=(tier(activity=0.0), tier(activity=0.0)))

    def test_single_silent_tier_is_fine(self):
        net = Network(alpha=4.0, tiers=(tier(activity=0.0), tier(activity=0.5)))
        assert validate(net) is net

    def test_valid_network_is_echoed(self):
        net = Network(alpha=3.8, tiers=(tier(), tier(power=0.01, density=2.0)))
        assert validate(net) is net

    def test_empty_access_rejected(self):
        with pytest.raises(ModelValidationError, match="access"):
            Network(alpha=4.0, tiers=(tier(),), access=[])

    def test_out_of_range_access_rejected(self):
        with pytest.raises(ModelValidationError, match="access"):
            Network(alpha=4.0, tiers=(tier(),), access=[2])

    @pytest.mark.parametrize("index", [1.5, "x", None])
    def test_non_integral_access_rejected(self, index):
        # int(1.5) would silently truncate the index to tier 1
        with pytest.raises(ModelValidationError, match="integers"):
            Network(alpha=4.0, tiers=(tier(), tier()), access=[index])

    def test_integral_float_access_is_an_index(self):
        assert Network(alpha=4.0, tiers=(tier(), tier()), access=[2.0]).access == {2}

    @pytest.mark.parametrize("index", [2, 1.5, "x", None, True, 2.0])
    def test_a_frozenset_access_is_checked_as_a_list(self, index):
        # a frozenset of ints is kept as it is; anything else is rebuilt
        def access_of(container):
            try:
                return Network(alpha=4.0, tiers=(tier(),), access=container([index])).access
            except ModelValidationError as exc:
                return str(exc)

        assert access_of(frozenset) == access_of(list)

    def test_a_frozenset_of_indices_is_kept(self):
        access = frozenset({2})
        assert Network(alpha=4.0, tiers=(tier(), tier()), access=access).access is access

    def test_default_access_is_open(self):
        net = Network(alpha=4.0, tiers=(tier(), tier()))
        assert net.is_open_access
        assert net.access == frozenset({1, 2})

    def test_low_target_warns_instead_of_rejecting(self):
        net = Network(alpha=4.0, tiers=(tier(target_sir=0.5), tier(target_sir=2.0)))
        flags = validation_warnings(net)
        assert len(flags) == 1 and "tier 1" in flags[0]
        assert validation_warnings(Network(alpha=4.0, tiers=(tier(target_sir=2.0),))) == ()


class TestDerivedConstants:
    def test_idle_weight_vanishes_when_fully_loaded(self):
        net = Network(alpha=4.0, tiers=(tier(activity=1.0), tier(activity=1.0)))
        assert derived_constants(net).idle_weight == 0.0

    def test_single_tier_frozen_values(self):
        net = Network(alpha=4.0, tiers=(tier(),))
        dc = derived_constants(net)
        assert dc.idle_weight == pytest.approx(math.pi**1.5 / 4.0, rel=1e-14)
        assert dc.interference_scale == pytest.approx(math.pi**2 / 4.0, rel=1e-14)
        assert dc.c_alpha == pytest.approx(math.pi**2 / 2.0, rel=1e-15)

    def test_density_scaling_is_linear(self):
        net = Network(alpha=3.8, tiers=(tier(), tier(power=0.01, density=2.0)))
        doubled = Network(
            alpha=3.8,
            tiers=tuple(
                Tier(t.power, 2.0 * t.density, t.target_sir, t.activity)
                for t in net.tiers
            ),
        )
        one, two = derived_constants(net), derived_constants(doubled)
        assert two.idle_weight == pytest.approx(2.0 * one.idle_weight, rel=1e-15)
        assert two.interference_scale == pytest.approx(2.0 * one.interference_scale, rel=1e-15)
        assert two.a_over_eta == pytest.approx(one.a_over_eta, rel=1e-14)

    def test_power_scaling_cancels_in_ratio_for_equal_targets(self):
        rng = random.Random(5)
        for _ in range(20):
            net = random_network(rng, equal_beta=True)
            scaled = Network(
                alpha=net.alpha,
                tiers=tuple(
                    Tier(7.3 * t.power, t.density, t.target_sir, t.activity)
                    for t in net.tiers
                ),
            )
            assert derived_constants(scaled).a_over_eta == pytest.approx(
                derived_constants(net).a_over_eta, rel=1e-12
            )


class TestHypergeometricSum:
    def test_silent_tiers_contribute_nothing(self):
        net = Network(alpha=4.0, tiers=(tier(activity=0.0), tier(activity=0.4)))
        silent_only = hypergeometric_sum(
            Network(alpha=4.0, tiers=(tier(activity=0.0), tier(activity=0.4)), access=[1]), 1
        )
        assert silent_only == 0.0
        assert hypergeometric_sum(net, 1) > 0.0

    def test_frozen_single_tier_value(self):
        net = Network(alpha=4.0, tiers=(tier(activity=1.0),))
        assert hypergeometric_sum(net, 1) == pytest.approx(B1_SINGLE_TIER, rel=1e-12)

    def test_agrees_with_quadrature_backed_evaluation(self):
        net = Network(alpha=3.8, tiers=(tier(target_sir=2.0, activity=0.7),))
        m, alpha = 3, 3.8
        b, c = 2.0 * m / alpha, 1.0 + (m + 1) * 2.0 / alpha
        z = 1.0 / 3.0
        expected = 0.7 * 2.0 ** (-2.0 / alpha) * 3.0 ** (-b) * hyp2f1_quadrature(1.0, b, c, z)
        assert hypergeometric_sum(net, m) == pytest.approx(expected, rel=1e-8)

    def test_decreasing_in_target(self):
        values = [
            hypergeometric_sum(
                Network(alpha=4.0, tiers=(tier(target_sir=beta, activity=1.0),)), 1
            )
            for beta in (1.0, 2.0, 4.0)
        ]
        assert values[0] > values[1] > values[2]

    def test_index_domain(self):
        with pytest.raises(ValueError):
            hypergeometric_sum(Network(alpha=4.0, tiers=(tier(),)), 0)


class TestEffectiveLoad:
    def test_common_activity_is_recovered(self):
        net = Network(
            alpha=3.8,
            tiers=(tier(activity=0.6), tier(power=0.01, density=5.0, activity=0.6)),
        )
        assert effective_load(net) == pytest.approx(0.6, rel=1e-14)

    def test_symmetric_half_loaded(self):
        net = Network(alpha=4.0, tiers=(tier(activity=1.0), tier(activity=0.0)))
        assert effective_load(net) == 0.5

    def test_frozen_weighted_mean(self):
        net = Network(
            alpha=4.0,
            tiers=(
                tier(density=1.0, activity=0.6),
                tier(power=0.01, density=2.0, activity=0.4),
            ),
        )
        assert effective_load(net) == pytest.approx(0.5666666666666667, rel=1e-15)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_between_extreme_activities(self, seed):
        net = random_network(random.Random(seed), activity_range=(0.05, 1.0))
        activities = [t.activity for t in net.tiers]
        load = effective_load(net)
        assert min(activities) - 1e-12 <= load <= max(activities) + 1e-12


class TestActivityCalibration:
    def fig5_network(self) -> Network:
        return Network(
            alpha=3.8,
            tiers=(tier(power=1.0, activity=0.5), tier(power=0.1, activity=0.5)),
        )

    def test_no_users_no_activity(self):
        assert activity_from_user_density(self.fig5_network(), 0.0, 20) == (0.0, 0.0)

    def test_single_tier_serves_everyone(self):
        net = Network(alpha=4.0, tiers=(tier(),))
        assert user_fraction_per_tier(net) == (1.0,)

    def test_two_tier_share_ratio(self):
        net = self.fig5_network()
        shares = user_fraction_per_tier(net)
        assert sum(shares) == pytest.approx(1.0, rel=1e-15)
        # share ratio equals the (power/target) association-weight ratio
        assert shares[1] / shares[0] == pytest.approx(0.1 ** (2.0 / 3.8), rel=1e-12)
        activities = activity_from_user_density(net, 15.0, 20)
        weight = 1.0 + 0.1 ** (2.0 / 3.8)
        assert activities[0] == pytest.approx(15.0 / 20.0 / weight, rel=1e-12)
        assert activities[1] == pytest.approx(
            15.0 / 20.0 * 0.1 ** (2.0 / 3.8) / weight, rel=1e-12
        )

    def test_cap_at_one(self):
        assert activity_from_user_density(self.fig5_network(), 1e6, 20) == (1.0, 1.0)

    @given(
        st.floats(min_value=0.0, max_value=40.0),
        st.floats(min_value=0.0, max_value=40.0),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=40),
    )
    def test_monotone_in_users_and_blocks(self, lu1, lu2, m1, m2):
        net = self.fig5_network()
        lo_u, hi_u = sorted((lu1, lu2))
        lo_m, hi_m = sorted((m1, m2))
        a_low = activity_from_user_density(net, lo_u, lo_m)
        a_high = activity_from_user_density(net, hi_u, lo_m)
        assert all(x <= y for x, y in zip(a_low, a_high))
        b_many = activity_from_user_density(net, hi_u, hi_m)
        assert all(x >= y for x, y in zip(a_high, b_many))

    def test_input_domains(self):
        with pytest.raises(ModelValidationError):
            activity_from_user_density(self.fig5_network(), -1.0, 20)
        for user_density in (math.nan, math.inf):
            with pytest.raises(ModelValidationError):
                activity_from_user_density(self.fig5_network(), user_density, 20)
        with pytest.raises(ModelValidationError):
            activity_from_user_density(self.fig5_network(), 1.0, 0)

    def test_an_underflowing_association_weight_is_a_validation_error(self):
        # (P / beta)^(2/alpha) underflows to 0: both shares raise the one message
        net = Network(alpha=2.01, tiers=(Tier(1e-300, 1.0, 1e300, 0.8),))
        with pytest.raises(ModelValidationError, match="^all tiers have zero association weight$"):
            activity_from_user_density(net, 1.0, 5)
        with pytest.raises(ModelValidationError, match="^all tiers have zero association weight$"):
            user_fraction_per_tier(net)


class TestSplitAccessFraction:
    def test_full_fraction_empties_the_closed_part(self):
        opened, closed = split_access_fraction(tier(density=3.0), 1.0)
        assert opened.density == 3.0 and closed.density == 0.0

    def test_halving(self):
        opened, closed = split_access_fraction(tier(density=10.0), 0.5)
        assert (opened.density, closed.density) == (5.0, 5.0)

    def test_fixed_closed_density_relation(self):
        # Keeping the closed part at density 10 while 0.3 of the class is
        # open means splitting a total of 10/0.7.
        total = tier(density=10.0 / 0.7)
        opened, closed = split_access_fraction(total, 0.3)
        assert opened.density == pytest.approx(4.285714285714286, rel=1e-15)
        assert opened.density == pytest.approx(0.3 / 0.7 * 10.0, rel=1e-12)
        assert closed.density == pytest.approx(10.0, rel=1e-12)

    def test_marks_are_shared(self):
        source = tier(power=2.0, density=4.0, target_sir=3.0, activity=0.25)
        opened, closed = split_access_fraction(source, 0.6)
        for part in (opened, closed):
            assert (part.power, part.target_sir, part.activity) == (2.0, 3.0, 0.25)

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=1e-6, max_value=1e6),
    )
    def test_superposition_is_exact(self, fraction, density):
        opened, closed = split_access_fraction(tier(density=density), fraction)
        assert opened.density + closed.density == density

    def test_fraction_domain(self):
        with pytest.raises(ModelValidationError):
            split_access_fraction(tier(), 1.5)


class TestScenarioFormat:
    def scenario(self) -> dict:
        return {
            "alpha": 3.8,
            "tiers": [
                {"power": 1.0, "density": 1.0, "target_sir_db": 3.0, "activity": 0.8},
                {"power": 0.01, "density": 2.0, "target_sir_db": 0.0, "activity": 0.6},
            ],
            "access": [1, 2],
        }

    def test_db_converts_to_linear_on_load(self):
        net = network_from_dict(self.scenario())
        assert net.tiers[0].target_sir == pytest.approx(10.0**0.3, rel=1e-15)
        assert net.tiers[1].target_sir == pytest.approx(1.0, rel=1e-15)

    def test_round_trip(self):
        net = network_from_dict(self.scenario())
        for again in (
            network_from_dict(network_to_dict(net)),
            network_from_json(network_to_json(net)),
        ):
            assert again.alpha == net.alpha
            assert again.access == net.access
            for got, want in zip(again.tiers, net.tiers):
                assert (got.power, got.density, got.activity) == (
                    want.power,
                    want.density,
                    want.activity,
                )
                # the dB representation costs one rounding each way
                assert got.target_sir == pytest.approx(want.target_sir, rel=1e-14)

    def test_missing_access_means_open(self):
        doc = self.scenario()
        del doc["access"]
        assert network_from_dict(doc).is_open_access

    @pytest.mark.parametrize("key", ["alpha", "tiers"])
    def test_missing_top_level_key(self, key):
        doc = self.scenario()
        del doc[key]
        with pytest.raises(ModelValidationError, match=key):
            network_from_dict(doc)

    def test_missing_tier_key_names_the_tier(self):
        doc = self.scenario()
        del doc["tiers"][1]["activity"]
        with pytest.raises(ModelValidationError, match="tier 2"):
            network_from_dict(doc)

    def test_non_list_tiers(self):
        doc = self.scenario()
        doc["tiers"] = {}
        with pytest.raises(ModelValidationError, match="tiers"):
            network_from_dict(doc)

    def test_tier_errors_pass_through_unchanged(self):
        doc = self.scenario()
        doc["tiers"][0]["power"] = -1.0
        with pytest.raises(ModelValidationError, match="^power must be positive, got -1.0$"):
            network_from_dict(doc)


def test_public_names_stay():
    import hetcov

    assert sorted(hetcov.__all__) == [
        "AssumptionWarning", "CoverageResult", "DerivedConstants", "Estimate",
        "ModelValidationError", "Network", "Realization", "SeriesControl",
        "SeriesConvergenceError", "SeriesTermTrace", "SeriesTolerance", "SimConfig",
        "SystemEstimate", "Tier", "activity_from_user_density",
        "closed_form_first_terms", "convergence_threshold", "correction_term",
        "correction_trace", "coverage", "coverage_bounds", "coverage_equal_targets",
        "coverage_idle_only", "coverage_region_raster", "coverage_single_tier",
        "default_window_radius", "derived_constants", "draw_realization",
        "effective_load", "estimate_coverage", "estimate_coverage_system",
        "full_load_coverage", "gauss_2f1", "hypergeometric_sum",
        "interference_constant", "laplace_interference", "log_gamma",
        "network_from_dict", "network_from_json", "network_to_dict",
        "network_to_json", "raster_to_csv", "realization_to_csv", "sample_hex_grid",
        "sample_ppp", "split_access_fraction", "tier_addition_effect",
        "truncation_terms", "user_fraction_per_tier", "validate",
        "validation_warnings",
    ]
    # a name listed twice would be bound by two star imports, one silently
    assert len(set(hetcov.__all__)) == len(hetcov.__all__)
    assert all(hasattr(hetcov, name) for name in hetcov.__all__)


def test_each_rule_has_one_copy():
    # every warning is raised, and its frame found, in model._warn alone; the
    # association weight (P / beta)^(2/alpha) is computed in one place
    sources = {p.name: p.read_text() for p in Path(model.__file__).parent.glob("*.py")}
    for needle, owner in [("warnings.warn(", model._warn), ("sys._getframe", model._warn),
                          ("(t.power / t.target_sir)", model._association_shares)]:
        assert {name: text.count(needle) for name, text in sources.items()
                if needle in text} == {"model.py": 1}
        assert needle in inspect.getsource(owner)
    # one stream scheme: the package constructs one generator, a block
    # stream, and the rendered field is drawn from block streams too
    for needle in ("np.random.Generator(", "np.random.PCG64"):
        assert {name: text.count(needle) for name, text in sources.items()
                if needle in text} == {"mcsim.py": 1}
        assert needle in inspect.getsource(mcsim._block_rng)
    assert not any(re.search(r"Philox|default_rng|RandomState", text)
                   for text in sources.values())
    # one block loop: _count_covered alone walks the blocks, and it and
    # draw_realization (block 0 of a run) alone bind a block's streams;
    # each estimator only says what one block holds
    reducer = inspect.getsource(mcsim._count_covered)
    pattern = r"range\(0, [^)]*_BLOCK_TRIALS\)"
    assert {name: len(re.findall(pattern, text)) for name, text in sources.items()
            if re.search(pattern, text)} == {"mcsim.py": 1}
    assert re.search(pattern, reducer)
    binding = r"partial\(_block_rng, |(?<!def )_block_rng\("
    assert {name: len(re.findall(binding, text)) for name, text in sources.items()
            if re.search(binding, text)} == {"mcsim.py": 2}
    assert "partial(_block_rng, sim.seed, b)" in reducer
    assert "partial(_block_rng, " in inspect.getsource(mcsim.draw_realization)
    # one decision step: the reducer keeps raw signals, and a run meets the
    # targets and the access set only where it is decided
    decision = inspect.getsource(mcsim._binomial_estimate)
    for needle in (".delta", ".target_sir"):
        assert sources["mcsim.py"].count(needle) == decision.count(needle) == 1
    assert not re.search(r"delta|target_sir|access", reducer)
    # stations are counted by their density: the one Poisson count drawn is
    # the size of a public sampler's field
    assert {name: text.count(".poisson(") for name, text in sources.items()
            if ".poisson(" in text} == {"mcsim.py": 1}
    assert ".poisson(" in inspect.getsource(mcsim.sample_ppp)

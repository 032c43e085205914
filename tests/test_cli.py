"""End-to-end CLI tests: subcommands, exit codes, output formats and
byte-level determinism."""

import argparse
import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hetcov import (
    AssumptionWarning,
    Estimate,
    Network,
    SimConfig,
    Tier,
    activity_from_user_density,
    cli,
    coverage,
    estimate_coverage,
    estimate_coverage_system,
    mcsim,
    network_from_dict,
)


def write_scenario(path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def full_load_scenario(tmp_path):
    return write_scenario(
        tmp_path / "full.json",
        {
            "alpha": 4.0,
            "tiers": [
                {"power": 1.0, "density": 1.0, "target_sir_db": 0.0, "activity": 1.0}
            ],
        },
    )


@pytest.fixture
def loaded_scenario(tmp_path):
    return write_scenario(
        tmp_path / "loaded.json",
        {
            "alpha": 3.8,
            "tiers": [
                {"power": 1.0, "density": 1.0, "target_sir_db": 3.0, "activity": 0.8},
                {"power": 0.01, "density": 2.0, "target_sir_db": 3.0, "activity": 0.6},
            ],
        },
    )


@pytest.fixture
def split_scenario(tmp_path):
    return write_scenario(
        tmp_path / "split.json",
        {
            "alpha": 3.8,
            "tiers": [
                {"power": 1.0, "density": 1.0, "target_sir_db": 0.0, "activity": 1.0},
                {"power": 0.01, "density": 10.0, "target_sir_db": 0.0, "activity": 0.5},
            ],
            "access": [1],
        },
    )


@pytest.fixture
def low_load_scenario(tmp_path):
    """One tier at activity 0.02: the series terms peak near 1e165."""
    return write_scenario(
        tmp_path / "low.json",
        {
            "alpha": 4.0,
            "tiers": [
                {"power": 1.0, "density": 1.0, "target_sir_db": 10.0 * math.log10(2.0),
                 "activity": 0.02}
            ],
        },
    )


@pytest.fixture
def near_free_space_scenario(tmp_path):
    """One tier at alpha 2.01, where b^(-2/alpha) overflows for a subnormal
    target b."""
    return write_scenario(
        tmp_path / "near_free_space.json",
        {
            "alpha": 2.01,
            "tiers": [
                {"power": 1.0, "density": 1.0, "target_sir_db": 3.0, "activity": 0.8}
            ],
        },
    )


@pytest.fixture
def alpha_three_scenario(tmp_path):
    """One tier at alpha 3, where a target of -3070 dB is tiny but normal."""
    return write_scenario(
        tmp_path / "alpha_three.json",
        {
            "alpha": 3.0,
            "tiers": [
                {"power": 1.0, "density": 1.0, "target_sir_db": 3.0, "activity": 0.8}
            ],
        },
    )


def run_json(capsys, argv):
    code = cli.main(argv)
    return code, json.loads(capsys.readouterr().out)


def run_csv(capsys, argv):
    code = cli.main(argv)
    lines = capsys.readouterr().out.splitlines()
    meta = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    header = body[0].split(",")
    rows = [line.split(",") for line in body[1:]]
    return code, meta, header, rows


# one short run of every command
COMMAND_LINES = {
    "coverage": ["coverage", "--max-terms", "50", "--epsilon=1e-9"],
    "simulate": ["simulate", "--trials", "5", "--radius", "2", "--load", "fully-loaded"],
    "sweep": ["sweep", "--sweep-target", "tier[1].power", "--sweep-values", "1,2",
              "--engine", "analytic"],
    "compare": ["compare", "--trials", "5", "--radius", "2", "--seed", "3"],
    "raster": ["raster", "--resolution", "3", "--radius", "2", "--mode", "full"],
}


@pytest.mark.parametrize("command", COMMAND_LINES)
def test_a_command_line_is_parsed_once(capsys, monkeypatch, loaded_scenario, command):
    parsed = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def spy(parser, *args, **kwargs):
        parsed.append(parser.prog)
        return parse_known_args(parser, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", spy)
    code = cli.main([*COMMAND_LINES[command], "--scenario", loaded_scenario])
    assert (code, capsys.readouterr().err) == (cli.EXIT_OK, "")
    assert parsed == [f"hetcov {command}"]


@pytest.mark.parametrize("command", COMMAND_LINES)
def test_a_command_gets_the_namespace_of_the_whole_parser(command):
    argv = [*COMMAND_LINES[command], "--scen", "net.json"]
    found = vars(cli._parse_args(argv))
    assert found == vars(cli._build_parser().parse_args(argv))
    assert found["command"] == command


class TestCoverageCommand:
    def test_full_load_report(self, capsys, full_load_scenario):
        code, report = run_json(
            capsys, ["coverage", "--scenario", full_load_scenario]
        )
        assert code == cli.EXIT_OK
        assert report["terms_used"] == 0
        assert report["converged"] is True
        assert report["value"] == pytest.approx(2.0 / math.pi, rel=1e-12)
        assert report["lower"] <= report["value"] <= report["upper"]
        assert report["a_over_eta"] == 0.0
        assert report["access"] == "open"
        assert len(report["warnings"]) == 1  # unit target sits at 0 dB

    def test_non_convergence_exit(self, capsys, loaded_scenario):
        code, report = run_json(
            capsys,
            ["coverage", "--scenario", loaded_scenario, "--max-terms", "2"],
        )
        assert code == cli.EXIT_NONCONVERGENCE
        assert report["converged"] is False

    def test_low_load_exits_3_without_traceback(self, capsys, low_load_scenario):
        code, report = run_json(capsys, ["coverage", "--scenario", low_load_scenario])
        assert code == cli.EXIT_NONCONVERGENCE
        assert report["converged"] is False
        code, report = run_json(
            capsys, ["compare", "--scenario", low_load_scenario, "--trials", "30"]
        )
        assert code == cli.EXIT_NONCONVERGENCE

    def test_out_file(self, tmp_path, full_load_scenario):
        out = tmp_path / "report.json"
        code = cli.main(
            ["coverage", "--scenario", full_load_scenario, "--out", str(out)]
        )
        assert code == cli.EXIT_OK
        assert json.loads(out.read_text())["terms_used"] == 0


class TestErrorPaths:
    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"alpha": 4.0,')
        code = cli.main(["coverage", "--scenario", str(bad)])
        assert code == cli.EXIT_VALIDATION
        assert "line" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert cli.main(["coverage", "--scenario", "/nope/missing.json"]) == cli.EXIT_VALIDATION

    def test_invalid_network(self, tmp_path, capsys):
        doc = {
            "alpha": 2.0,
            "tiers": [{"power": 1, "density": 1, "target_sir_db": 0, "activity": 1}],
        }
        scenario = write_scenario(tmp_path / "pole.json", doc)
        assert cli.main(["coverage", "--scenario", scenario]) == cli.EXIT_VALIDATION

    def test_usage_errors(self, capsys):
        assert cli.main(["coverage", "--nonsense"]) == cli.EXIT_USAGE
        assert cli.main(["not-a-command"]) == cli.EXIT_USAGE
        assert cli.main([]) == cli.EXIT_USAGE

    def test_unknown_sweep_target(self, capsys, loaded_scenario):
        code = cli.main(
            [
                "sweep",
                "--scenario",
                loaded_scenario,
                "--sweep-target",
                "tier[1].nothing",
                "--sweep-values",
                "1,2",
            ]
        )
        assert code == cli.EXIT_VALIDATION

    def test_user_density_needs_resource_blocks(self, capsys, loaded_scenario):
        code = cli.main(
            [
                "sweep",
                "--scenario",
                loaded_scenario,
                "--sweep-target",
                "user_density",
                "--sweep-values",
                "1,2",
            ]
        )
        assert code == cli.EXIT_VALIDATION


TIER = {"power": 1.0, "density": 1.0, "target_sir_db": 3.0, "activity": 0.8}


@pytest.mark.parametrize(
    "doc",
    [
        {"alpha": 3.8, "tiers": [{**TIER, "power": "abc"}]},
        {"alpha": "x", "tiers": [TIER]},
        {"alpha": 3.8, "tiers": [1]},
        {"alpha": 3.8, "tiers": [TIER], "access": "x"},
        {"alpha": 3.8, "tiers": [TIER, TIER], "access": [1.5]},
        {"alpha": 3.8, "tiers": [{**TIER, "target_sir_db": 1e4}]},
        # JSON true and "4" are not numbers, though Python would read them as 1 and 4
        {"alpha": 3.8, "tiers": [{**TIER, "power": True}]},
        {"alpha": "4", "tiers": [TIER]},
        {"alpha": 3.8, "tiers": [TIER, TIER], "access": [True]},
    ],
    ids=["power", "alpha", "tier", "access", "fractional-access", "db-overflow",
         "boolean-power", "string-alpha", "boolean-access"],
)
def test_malformed_scenario_values_are_validation_errors(capsys, tmp_path, doc):
    scenario = write_scenario(tmp_path / "malformed.json", doc)
    code = cli.main(["coverage", "--scenario", scenario])
    captured = capsys.readouterr()
    assert code == cli.EXIT_VALIDATION
    assert captured.out == ""
    assert captured.err.startswith("validation error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["--sweep-target", "tier[1].density", "--sweep-values", "1:2:x"],
        # numpy would print a RuntimeWarning for the infinite grid step
        ["--sweep-target", "tier[1].density", "--sweep-values", "1:inf:3"],
        # min(1, nan) is 1: a nan user density must not pass as full activity
        ["--sweep-target", "user_density", "--sweep-values", "nan", "--resource-blocks", "10"],
        ["--sweep-target", "user_density", "--sweep-values", "nan", "--resource-blocks", "10",
         "--engine", "mc"],
        ["--sweep-target", "user_density", "--sweep-values", "1e400", "--resource-blocks", "10"],
        # no tier transmits at 0 users: the series has no interference field
        ["--sweep-target", "user_density", "--sweep-values", "0,2", "--resource-blocks", "5"],
        ["--sweep-target", "user_density", "--sweep-values", "0,2", "--resource-blocks", "5",
         "--engine", "both"],
        ["--sweep-target", "series_index", "--sweep-values", "nan"],
        ["--sweep-target", "series_index", "--sweep-values", "2,inf"],
        # a trace is capped by the series term cap like the series itself
        ["--sweep-target", "series_index", "--sweep-values", "6", "--max-terms", "5"],
        # a trace follows the analytic series, which no other engine has
        ["--sweep-target", "series_index", "--sweep-values", "1,2", "--engine", "mc"],
        ["--sweep-target", "series_index", "--sweep-values", "1,2", "--engine", "both"],
        ["--sweep-target", "tier[1].density", "--sweep-values", "1:2"],
        ["--sweep-target", "tier[1].density", "--sweep-values", "1:2:0"],
        # counts past the float64 values one numpy array holds, 2**63 included
        ["--sweep-target", "tier[1].density", "--sweep-values", "1:2:100000000000000000000"],
        ["--sweep-target", "tier[1].density", "--sweep-values", "1:2:9223372036854775807"],
        ["--sweep-target", "tier[1].density", "--sweep-values", "1:2:1152921504606846976"],
        ["--sweep-target", "tier[1].density", "--sweep-values", "0:2:3:log"],
        ["--sweep-target", "tier[1].density", "--sweep-values", "1,x"],
        ["--sweep-target", "tier[1].density", "--sweep-values", ","],
        ["--sweep-target", "series_index", "--sweep-values", "0"],
        ["--sweep-target", "tier[9].density", "--sweep-values", "1"],
        # the one closed tier of the split scenario has no open part at f = 1
        ["--sweep-target", "access_fraction", "--sweep-values", "1.0",
         "--scenario", "split_scenario"],
    ],
    ids=" ".join,
)
def test_bad_sweep_values_are_validation_errors(capsys, request, argv):
    # a row may name its own scenario fixture; the last --scenario wins
    argv = ["--scenario", "loaded_scenario", *argv]
    argv = [request.getfixturevalue(a) if a.endswith("_scenario") else a for a in argv]
    code = cli.main(["sweep", *argv])
    captured = capsys.readouterr()
    assert code == cli.EXIT_VALIDATION
    assert captured.out == ""
    assert captured.err.startswith("validation error: ")
    assert captured.err.count("\n") == 1


# every float, subnormal steps, equal and overflowing spans included
FLOATS = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=5e-324, allow_infinity=False)
COUNTS = st.integers(min_value=1, max_value=40)


@given(FLOATS, FLOATS, COUNTS)
def test_linear_grids_are_numpys(start, stop, count):
    with np.errstate(over="ignore", invalid="ignore"):
        expected = np.linspace(start, stop, count).tolist()
        found = cli._linspace(start, stop, count).tolist()
    assert repr(found) == repr(expected)


@given(POSITIVE, POSITIVE, COUNTS)
def test_log_grids_are_numpys(start, stop, count):
    with np.errstate(over="ignore", invalid="ignore"):
        expected = np.geomspace(start, stop, count).tolist()
        found = cli._geomspace(start, stop, count).tolist()
    assert repr(found) == repr(expected)


SUBNORMAL_TARGET = "target_sir must have a finite reciprocal, got 1e-320"
NO_TRANSMITTER = ("no tier transmits (activity * density * power is zero everywhere); "
                  "the interference field would be empty and the SIR model degenerate")
USERS = ["--resource-blocks", "10"]


@pytest.mark.parametrize(
    "scenario, target, extra, message",
    [
        ("loaded_scenario", "tier[1].activity=1,1.5", [], "activity must lie in [0, 1], got 1.5"),
        ("loaded_scenario", "tier[2].density=1,-1", [], "density must be non-negative, got -1.0"),
        ("loaded_scenario", "tier[1].power=1,0", [], "power must be positive, got 0.0"),
        ("full_load_scenario", "tier[1].activity=1,0", [], NO_TRANSMITTER),
        ("full_load_scenario", "tier[1].activity=1,0", ["--engine", "mc"], NO_TRANSMITTER),
        ("loaded_scenario", "target_sir_db=3,-4000", [], "target_sir must be positive, got 0.0"),
        ("loaded_scenario", "target_sir_db=3,4000", [], "4000.0 dB is beyond the float range"),
        # every point is checked before any series sum, so the tiny first
        # target does not reach the series before the second is rejected
        ("near_free_space_scenario", "target_sir_db=-3070,-4000", [],
         "target_sir must be positive, got 0.0"),
        ("near_free_space_scenario", "target_sir_db=3,-3200", [], SUBNORMAL_TARGET),
        ("alpha_three_scenario", "target_sir_db=3,-3200", [], SUBNORMAL_TARGET),
        ("alpha_three_scenario", "target_sir_db=3,-3200", ["--engine", "mc"], SUBNORMAL_TARGET),
        ("split_scenario", "access_fraction=0.5,1", [],
         "access fractions must lie in [0, 1), got 1.0"),
        ("loaded_scenario", "user_density=1,0", [*USERS, "--engine", "analytic"], NO_TRANSMITTER),
        ("loaded_scenario", "user_density=1,0", [*USERS, "--engine", "both"], NO_TRANSMITTER),
        ("loaded_scenario", "user_density=1,-1", USERS,
         "user_density must be finite and non-negative, got -1.0"),
    ],
    ids=["activity-above-1", "negative-density", "zero-power", "no-tier-transmits",
         "no-tier-transmits-mc", "target-underflows", "target-overflows",
         "tiny-target-then-zero", "subnormal-target-overflows",
         "subnormal-target-alpha-3", "subnormal-target-alpha-3-mc",
         "access-fraction-1", "no-users", "no-users-both", "negative-users"],
)
def test_sweep_points_outside_the_model_domain_name_the_check(
    capsys, request, scenario, target, extra, message
):
    # the first value is valid, so the point built from the second fails
    target, values = target.split("=")
    argv = ["sweep", "--scenario", request.getfixturevalue(scenario),
            "--sweep-target", target, f"--sweep-values={values}", *extra]
    assert cli.main(argv) == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"validation error: {message}\n")


def test_a_subnormal_target_is_a_validation_error(capsys, tmp_path):
    scenario = write_scenario(tmp_path / "subnormal.json", {
        "alpha": 2.01,
        "tiers": [{"power": 1.0, "density": 1.0, "target_sir_db": -3200.0, "activity": 0.8}],
    })
    assert cli.main(["coverage", "--scenario", scenario]) == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"validation error: {SUBNORMAL_TARGET}\n")


def test_a_tiny_normal_target_clears_every_mc_trial_quietly(capsys, alpha_three_scenario):
    # signal / 1e-307 overflows to inf, which clears the target as the
    # exact ratio does
    argv = ["sweep", "--scenario", alpha_three_scenario, "--sweep-target", "target_sir_db",
            "--sweep-values", "-3070", "--engine", "mc", "--trials", "50", "--seed", "1"]
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines()[-1] == "-3070.0,1.0,0.0"


def brackets(command, out):
    """(value, lower, upper) of every analytic result a command printed."""
    if command == "sweep":
        rows = [line.split(",")[1:4] for line in out.splitlines() if line[0] != "#"]
        return [tuple(map(float, row)) for row in rows[1:]]  # after the header
    report = json.loads(out)
    return [(report["value"], report["lower"], report["upper"])] if command == "coverage" else []


@pytest.mark.parametrize(
    "db, argv",
    [
        (-30, ["coverage"]),
        (-30, ["compare", "--trials", "50", "--seed", "1"]),
        (-30, ["sweep", "--sweep-target", "target_sir_db", "--sweep-values", "-30"]),
        # the terms need not alternate: the parity rule inverted this bracket
        (-20, ["coverage"]),
        # the first term is not finite: a sum of no terms bounds nothing
        (-3070, ["coverage"]),
        (-3070, ["sweep", "--sweep-target", "target_sir_db", "--sweep-values", "3,-3070"]),
    ],
    ids=["coverage", "compare", "sweep", "coverage-minus-20-db", "coverage-no-term",
         "sweep-no-term"],
)
def test_a_series_below_0_db_ends_unconverged_without_a_traceback(capsys, tmp_path, db, argv):
    # below 0 dB the factor 1 - kappa * tail is not bounded by 1, so a term
    # overflows before its envelope reaches the limit; the sum stops there
    scenario = write_scenario(tmp_path / "below_0_db.json", {
        "alpha": 3.0,
        "tiers": [{"power": 1.0, "density": 1.0, "target_sir_db": db, "activity": 0.5}],
    })
    command = argv[0]
    assert cli.main([command, "--scenario", scenario, *argv[1:]]) == cli.EXIT_NONCONVERGENCE
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    if command == "sweep":
        assert captured.err.splitlines()[-1] == (
            f"non-convergence: the series did not converge at target_sir_db = {float(db)}")
    else:
        # coverage and compare report it in their JSON, as for any net
        report = json.loads(captured.out)
        report = report["rows"][0] if command == "compare" else report  # conditional thinning
        assert report["converged"] is False
    found = brackets(command, captured.out)
    if db == -3070:
        # no term was summed, so the last bracket is unbounded: null in JSON
        *found, (_, lower, upper) = found
        assert (lower, upper) == ((None, None) if command == "coverage" else (-math.inf, math.inf))
    for value, lower, upper in found:
        assert lower <= value <= upper


LEGAL_TIERS = st.lists(
    st.fixed_dictionaries({
        "power": st.floats(0.01, 100.0),
        "density": st.floats(0.01, 10.0),
        "target_sir_db": st.floats(-40.0, 20.0),
        "activity": st.floats(0.05, 1.0),
    }),
    min_size=1, max_size=3,
)


@settings(max_examples=30)
@given(st.floats(2.1, 6.0), LEGAL_TIERS, st.lists(st.floats(-40.0, 20.0), min_size=1, max_size=3))
def test_the_series_never_ends_in_a_traceback(tmp_path_factory, alpha, tiers, targets):
    # every legal net gives a result, converged (exit 0) or flagged (exit
    # 3), with an ordered bracket; no term past the float range reaches a sum
    scenario = write_scenario(tmp_path_factory.mktemp("net") / "net.json",
                              {"alpha": alpha, "tiers": tiers})
    sweep = ["--sweep-target", "target_sir_db", "--engine", "analytic",
             "--sweep-values", ",".join(map(repr, targets))]
    for command, extra in (("coverage", []), ("sweep", sweep)):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, "--scenario", scenario, *extra])
        assert code in (cli.EXIT_OK, cli.EXIT_NONCONVERGENCE), err.getvalue()
        for _, lower, upper in brackets(command, out.getvalue()):
            assert lower <= upper


def test_an_underflowing_association_weight_is_a_validation_error(capsys, tmp_path):
    # (P / beta)^(2/alpha) underflows to 0, so no tier has a user share
    scenario = write_scenario(tmp_path / "underflow.json", {
        "alpha": 2.01,
        "tiers": [{"power": 1e-300, "density": 1.0, "target_sir_db": 3000.0, "activity": 0.8}],
    })
    argv = ["sweep", "--scenario", scenario, "--sweep-target", "user_density",
            "--sweep-values", "1,2", "--resource-blocks", "5"]
    assert cli.main(argv) == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "validation error: all tiers have zero association weight\n")


@pytest.mark.parametrize(
    "argv, target_db, density, category",
    [
        # _cmd_coverage calls coverage, which builds the series that flags
        (["coverage"], -3.0, 1.0, AssumptionWarning),
        # _cmd_simulate calls estimate_coverage, whose estimator counts the
        # empty trials
        (["simulate", "--radius", "1", "--trials", "200"], 3.0, 0.05, UserWarning),
    ],
    ids=["assumption", "empty-trials"],
)
def test_a_warning_two_package_frames_down_names_the_callers_file(
    recwarn, argv, target_db, density, category
):
    network = network_from_dict({"alpha": 4.0, "tiers": [
        {"power": 1.0, "density": density, "target_sir_db": target_db, "activity": 0.9}]})
    args = cli._parse_args([*argv, "--scenario", "unread.json"])
    args.func(network, args)
    assert [(w.category, w.filename) for w in recwarn] == [(category, __file__)]


def _reject_constant(name):
    raise ValueError(f"{name} is not standard JSON")


@pytest.mark.parametrize(
    "argv, field",
    [
        # a 12-trial estimate that covers every trial has stderr 0, so its z is infinite
        (["compare", "--trials", "12", "--seed", "5"], lambda r: r["rows"][0]["z"]),
        # a window that mostly holds no interferer leaves an infinite bound
        (["simulate", "--trials", "50", "--seed", "1", "--radius", "0.3"],
         lambda r: r["truncated_interference_bound"]),
    ],
    ids=["compare", "simulate"],
)
def test_reports_are_standard_json_with_null_for_non_finite_values(capsys, tmp_path, argv, field):
    scenario = write_scenario(
        tmp_path / "one.json",
        {"alpha": 4.0,
         "tiers": [{"power": 1.0, "density": 1.0, "target_sir_db": 0.5, "activity": 0.4}]},
    )
    assert cli.main([*argv, "--scenario", scenario]) == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert field(report) is None
    if argv[0] == "compare":
        assert report["rows"][0]["flagged"] is True
        assert report["any_flagged"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--radius", "1e300"],
        # the window's area underflows to 0, and R^(2 - alpha) overflows
        ["simulate", "--radius", "1e-300"],
        ["simulate", "--radius", "1e-300", "--load", "system", "--user-density", "5",
         "--resource-blocks", "10"],
        ["raster", "--radius", "1e300"],
        # the default window of the sparse tier holds ~1e302 of the other's stations
        ["sweep", "--sweep-target", "tier[1].density", "--sweep-values", "1e-300",
         "--engine", "mc"],
        ["simulate", "--min-points", "1000000000000"],
    ],
    ids=" ".join,
)
def test_windows_that_cannot_be_sampled_are_validation_errors(capsys, loaded_scenario, argv):
    start = time.perf_counter()
    code = cli.main([*argv, "--scenario", loaded_scenario])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == cli.EXIT_VALIDATION
    assert captured.out == ""
    assert captured.err.startswith("validation error: ")
    assert captured.err.count("\n") == 1
    assert elapsed < 1.0


@pytest.mark.parametrize("argv", [["simulate", "--trials", "10"], ["raster"]], ids=" ".join)
def test_a_default_window_needs_a_positive_active_density(capsys, tmp_path, argv):
    # activity * density underflows to 0, so no density sizes the window
    scenario = write_scenario(tmp_path / "sparse.json", {
        "alpha": 4.0,
        "tiers": [{"power": 1e300, "density": 1e-200, "target_sir_db": 3.0,
                   "activity": 1e-200}],
    })
    assert cli.main([*argv, "--scenario", scenario]) == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "validation error: a default window needs "
                                            "a positive density to size it, got densities [0.0]\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate"],
        ["compare"],
        ["sweep", "--sweep-target", "tier[1].power", "--sweep-values", "1,2", "--engine", "mc"],
    ],
    ids=lambda argv: argv[0],
)
def test_warnings_are_one_line_each_after_the_output(capsys, tmp_path, argv):
    # a window of radius 1e-160 holds no station in any trial, so every
    # estimate warns; compare and the sweep warn once per estimate
    tier = {"power": 1.0, "density": 1.0, "target_sir_db": 3.0, "activity": 0.5}
    scenario = write_scenario(tmp_path / "one.json", {"alpha": 4.0, "tiers": [tier]})
    code = cli.main([*argv, "--scenario", scenario, "--radius", "1e-160", "--trials", "100"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_OK
    assert captured.out
    assert captured.err == ("warning: 100 of 100 trials had no candidate station in the "
                            "window; enlarge the window or densities\n")


@pytest.mark.parametrize(
    "scenario, sweep, row, target",
    [
        ("loaded_scenario", ["target_sir_db", "--sweep-values=-6"], "-6.0,1.186", "0.251189"),
        ("full_load_scenario", ["series_index", "--sweep-values=1,2"], "2,0.0", "1"),
    ],
    ids=["target_sir_db", "series_index"],
)
def test_sweeps_at_or_below_0_db_flag_the_assumption(capsys, request, scenario, sweep, row,
                                                     target):
    # the sweep CSV has no column for flags, so stderr carries them
    code = cli.main(["sweep", "--scenario", request.getfixturevalue(scenario),
                     "--sweep-target", *sweep])
    captured = capsys.readouterr()
    assert code == cli.EXIT_OK
    assert captured.out.splitlines()[-1].startswith(row)
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"warning: tier 1: target SIR {target} is at or below 0 dB")


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--sweep-target", "series_index", "--sweep-values", "1,2"],
        # a window of radius 1e-160 holds no station in any trial
        ["simulate", "--radius", "1e-160", "--trials", "100"],
    ],
    ids=["series_index", "empty-window"],
)
def test_warnings_reach_stderr_whatever_the_callers_filters(capsys, full_load_scenario, argv):
    argv = [*argv, "--scenario", full_load_scenario]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    env.pop("PYTHONWARNINGS", None)

    def fresh(**extra):
        run = subprocess.run([sys.executable, "-m", "hetcov.cli", *argv], capture_output=True,
                             text=True, env=dict(env, **extra), timeout=120, check=False)
        return run.returncode, run.stdout, run.stderr

    default = fresh()
    assert default[2].startswith("warning: ")
    assert fresh(PYTHONWARNINGS="ignore") == default
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = cli.main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == default


def test_other_warning_categories_keep_the_callers_filters(monkeypatch, loaded_scenario):
    # only user warnings are forced onto stderr: a caller that makes a
    # RuntimeWarning an error still gets it raised
    def overflowing(*args, **kwargs):
        warnings.warn("overflow", RuntimeWarning)

    monkeypatch.setattr(cli, "coverage", overflowing)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RuntimeWarning, match="overflow"):
            cli.main(["coverage", "--scenario", loaded_scenario])


# every station transmits, so no load has an idle candidate
FULL_TWO_TIERS = {
    "alpha": 3.8,
    "tiers": [
        {"power": 1.0, "density": 1.0, "target_sir_db": 3.0, "activity": 1.0},
        {"power": 0.01, "density": 2.0, "target_sir_db": 3.0, "activity": 1.0},
    ],
}
# the one access tier never transmits, so no load has an active candidate
SILENT_ACCESS = {
    "alpha": 3.8,
    "tiers": [
        {"power": 1.0, "density": 1.0, "target_sir_db": 3.0, "activity": 0.0},
        {"power": 0.5, "density": 4.0, "target_sir_db": 3.0, "activity": 1.0},
    ],
    "access": [1],
}


@pytest.mark.parametrize(
    "doc, argv, load",
    [
        (FULL_TWO_TIERS, ["compare"], "idle-only"),
        (FULL_TWO_TIERS, ["simulate", "--load", "idle-only"], "idle-only"),
        (SILENT_ACCESS, ["compare"], "fully-loaded"),
        (SILENT_ACCESS, ["simulate", "--load", "fully-loaded"], "fully-loaded"),
    ],
    ids=["compare-full", "simulate-full", "compare-silent-access", "simulate-silent-access"],
)
def test_a_load_without_candidate_density_reads_0_without_a_window_warning(
    capsys, tmp_path, doc, argv, load
):
    # every trial is empty, and no window could give it a candidate
    scenario = write_scenario(tmp_path / "net.json", doc)
    argv = [*argv, "--scenario", scenario, "--trials", "200", "--seed", "1"]
    assert cli.main(argv) == cli.EXIT_OK
    captured = capsys.readouterr()
    assert "warning:" not in captured.err
    report = json.loads(captured.out)
    if argv[0] == "compare":
        row = next(r for r in report["rows"] if r["model"] == load)
        assert (row["mc_mean"], row["analytic"]) == (0.0, 0.0)
    else:
        assert (report["mean"], report["empty_trials"]) == (0.0, 200)


RASTER = ["raster", "--resolution", "4", "--radius", "3"]


def test_out_of_memory_is_one_line_without_traceback(capsys, monkeypatch, loaded_scenario):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 26.8 GiB for an array with shape "
                          "(60000, 60000) and data type int64")

    monkeypatch.setattr(cli, "coverage_region_raster", exhausted)
    code = cli.main([*RASTER, "--scenario", loaded_scenario])
    captured = capsys.readouterr()
    assert code == cli.EXIT_USAGE
    assert captured.out == ""
    assert captured.err == ("usage error: out of memory: Unable to allocate 26.8 GiB "
                            "for an array with shape (60000, 60000) and data type int64\n")


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe{}", "\ufeff{}".encode("utf-16"), b"[" * 100_000 + b"]" * 100_000],
    ids=["not-utf8", "utf16", "nested-too-deep"],
)
def test_unreadable_scenario_is_a_validation_error(capsys, tmp_path, content):
    path = tmp_path / "scenario.json"
    path.write_bytes(content)
    code = cli.main(["coverage", "--scenario", str(path)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_VALIDATION
    assert captured.out == ""
    assert captured.err.startswith(f"validation error: cannot read scenario {str(path)!r}: ")
    assert captured.err.count("\n") == 1


def test_scenario_path_with_a_nul_byte_is_a_validation_error(capsys):
    code = cli.main(["coverage", "--scenario", "scenario\0.json"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_VALIDATION
    assert (captured.out, captured.err) == (
        "", "validation error: cannot read scenario 'scenario\\x00.json': embedded null byte\n")


@pytest.mark.parametrize("argv, flag", [(["coverage"], "--out"), (RASTER, "--dump-realization")],
                         ids=["out", "dump-realization"])
def test_output_path_with_a_nul_byte_is_a_usage_error(capsys, loaded_scenario, argv, flag):
    code = cli.main([*argv, "--scenario", loaded_scenario, flag, "out\0.csv"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_USAGE
    assert (captured.out, captured.err) == (
        "", "usage error: cannot write 'out\\x00.csv': embedded null byte\n")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["coverage"], "--out"),
        (["simulate", "--trials", "20"], "--out"),
        (["compare", "--trials", "20"], "--out"),
        (["sweep", "--sweep-target", "tier[2].density", "--sweep-values", "1,2"], "--out"),
        (RASTER, "--out"),
        (RASTER, "--dump-realization"),
    ],
    ids=lambda v: v if isinstance(v, str) else v[0],
)
def test_unwritable_output_is_a_usage_error(capsys, tmp_path, loaded_scenario, argv, flag):
    target = tmp_path / "missing" / "out.txt"
    code = cli.main([*argv, "--scenario", loaded_scenario, flag, str(target)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_USAGE
    assert captured.out == ""
    assert captured.err.startswith(f"usage error: cannot write {str(target)!r}: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--trials", "0"],
        ["simulate", "--seed", "-1"],
        ["simulate", "--radius", "0"],
        ["simulate", "--radius", "-2.5"],
        ["simulate", "--radius", "-1e3"],
        ["simulate", "--min-points", "0"],
        ["simulate", "--load", "system", "--user-density", "-1", "--resource-blocks", "5"],
        ["simulate", "--load", "system", "--user-density", "1", "--resource-blocks", "0"],
        ["compare", "--trials", "0"],
        ["coverage", "--epsilon", "0"],
        ["coverage", "--max-terms", "0"],
        ["raster", "--resolution", "0"],
        ["raster", "--radius", "-1"],
        ["raster", "--radius", "0"],
        ["raster", "--seed", "-1"],
    ],
    ids=" ".join,
)
def test_out_of_domain_flags_are_usage_errors(capsys, loaded_scenario, argv):
    code = cli.main([argv[0], "--scenario", loaded_scenario, *argv[1:]])
    captured = capsys.readouterr()
    assert code == cli.EXIT_USAGE
    assert captured.out == ""
    assert captured.err.startswith("usage error: argument ")
    assert captured.err.count("\n") == 1


class TestSimulateCommand:
    def test_report_fields_and_determinism(self, capsys, loaded_scenario):
        argv = [
            "simulate",
            "--scenario",
            loaded_scenario,
            "--trials",
            "800",
            "--seed",
            "3",
        ]
        code, first = run_json(capsys, argv)
        assert code == cli.EXIT_OK
        assert first["trials"] == 800 and first["seed"] == 3
        assert 0.0 <= first["mean"] <= 1.0
        assert first["load"] == "conditional-thinning"
        _, second = run_json(capsys, argv)
        assert first == second

    def test_system_load_needs_both_flags(self, capsys, loaded_scenario):
        system = ["simulate", "--scenario", loaded_scenario, "--load", "system"]
        for extra in (
            [],
            # the system simulation samples Poisson fields only
            ["--user-density", "5", "--resource-blocks", "10",
             "--placement", "hex-first-tier"],
        ):
            code = cli.main(system + extra)
            captured = capsys.readouterr()
            assert code == cli.EXIT_VALIDATION
            assert captured.out == ""
            assert captured.err.count("\n") == 1

    def test_system_load_reports_diagnostics(self, capsys, monkeypatch, loaded_scenario):
        estimate, results = cli.estimate_coverage_system, []

        def recording(*args):
            results.append(estimate(*args))
            return results[-1]

        monkeypatch.setattr(cli, "estimate_coverage_system", recording)
        code, report = run_json(
            capsys,
            [
                "simulate",
                "--scenario",
                loaded_scenario,
                "--load",
                "system",
                "--user-density",
                "10",
                "--resource-blocks",
                "20",
                "--trials",
                "60",
                "--radius",
                "6",
            ],
        )
        assert code == cli.EXIT_OK
        assert len(report["tier_user_fraction"]) == 2
        assert len(report["tier_user_fraction_stderr"]) == 2
        assert len(report["tier_mean_activity"]) == 2
        assert report["window_radius"] == 6.0
        assert isinstance(results[0], Estimate)
        assert sorted(report) == [
            "empty_trials", "engine", "load", "mean", "mean_stations_per_trial",
            "resource_blocks", "seed", "stderr", "tier_mean_activity",
            "tier_user_fraction", "tier_user_fraction_stderr", "trials",
            "truncated_interference_bound", "user_density", "window_radius",
        ]

    def test_system_load_reports_the_window_it_ran_with(self, capsys, tmp_path):
        # the system window holds 500 stations of the sparsest raw density;
        # the activity-weighted rule of the other loads would give 28.2
        tier = {"power": 1.0, "density": 1.0, "target_sir_db": 3.0}
        scenario = write_scenario(
            tmp_path / "system.json",
            {"alpha": 3.8, "tiers": [{**tier, "activity": 0.5}, {**tier, "activity": 0.2}]},
        )
        code, report = run_json(
            capsys,
            ["simulate", "--scenario", scenario, "--load", "system", "--user-density", "1",
             "--resource-blocks", "5", "--trials", "3"],
        )
        assert code == cli.EXIT_OK
        assert report["window_radius"] == pytest.approx(math.sqrt(500.0 / math.pi), rel=1e-15)


    @pytest.mark.parametrize("load", ["conditional-thinning", "system"])
    def test_reports_empty_trials_and_stations(self, capsys, loaded_scenario, load):
        argv = ["simulate", "--scenario", loaded_scenario, "--trials", "20", "--radius", "3",
                "--load", load]
        if load == "system":
            argv += ["--user-density", "5", "--resource-blocks", "10"]
        code, report = run_json(capsys, argv)
        assert code == cli.EXIT_OK
        assert report["empty_trials"] == 0
        assert 0.0 < report["truncated_interference_bound"] < 1.0
        # 3 stations per unit area on a disc of radius 3
        assert 3.0 * math.pi * 9.0 * 0.8 < report["mean_stations_per_trial"] < 3.0 * math.pi * 9.0 * 1.2

    @pytest.mark.parametrize("placement", ["ppp", "hex-first-tier"])
    def test_more_than_128_tiers(self, capsys, tmp_path, placement):
        tiers = [
            {"power": 10.0 ** (-k / 40.0), "density": 0.05, "target_sir_db": 2.0, "activity": 0.5}
            for k in range(130)
        ]
        scenario = write_scenario(tmp_path / "many.json", {"alpha": 3.8, "tiers": tiers})
        code = cli.main(["simulate", "--scenario", scenario, "--trials", "5",
                         "--placement", placement])
        captured = capsys.readouterr()
        assert code == cli.EXIT_OK
        assert "Traceback" not in captured.err
        assert json.loads(captured.out)["trials"] == 5

    @pytest.mark.parametrize("command", [
        ["simulate", "--trials", "5"],
        ["raster", "--resolution", "5", "--dump-realization", os.devnull],
    ])
    def test_empty_lattice_tier_is_an_empty_tier(self, capsys, tmp_path, command):
        tiers = [
            {"power": 1.0, "density": 0.0, "target_sir_db": 2.0, "activity": 0.5},
            {"power": 0.1, "density": 1.0, "target_sir_db": 2.0, "activity": 0.5},
        ]
        scenario = write_scenario(tmp_path / "empty.json", {"alpha": 3.8, "tiers": tiers})
        code = cli.main([*command, "--scenario", scenario, "--placement", "hex-first-tier"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_OK
        assert captured.err == ""
        assert captured.out

class TestSweepCommand:
    def test_density_sweep_is_flat_for_matched_activities(self, capsys, tmp_path):
        scenario = write_scenario(
            tmp_path / "flat.json",
            {
                "alpha": 3.8,
                "tiers": [
                    {"power": 1.0, "density": 1.0, "target_sir_db": 0.0, "activity": 0.6},
                    {"power": 0.01, "density": 1.0, "target_sir_db": 0.0, "activity": 0.6},
                ],
            },
        )
        code, meta, header, rows = run_csv(
            capsys,
            [
                "sweep",
                "--scenario",
                scenario,
                "--sweep-target",
                "tier[2].density",
                "--sweep-values",
                "0.1:10:8:log",
            ],
        )
        assert code == cli.EXIT_OK
        assert header[:2] == ["tier_2_density", "analytic_value"]
        assert any(m.startswith("# seed=") for m in meta)
        values = [float(row[1]) for row in rows]
        assert max(values) - min(values) < 1e-9

    @pytest.mark.parametrize("activity", [0.25, 0.5, 0.75])
    def test_series_trace_emission(self, capsys, tmp_path, activity):
        scenario = write_scenario(
            tmp_path / f"trace{activity}.json",
            {
                "alpha": 4.0,
                "tiers": [
                    {"power": 1.0, "density": 1.0, "target_sir_db": 0.0, "activity": activity}
                ],
            },
        )
        code, _, header, rows = run_csv(
            capsys,
            [
                "sweep",
                "--scenario",
                scenario,
                "--sweep-target",
                "series_index",
                "--sweep-values",
                "1:12:12",
            ],
        )
        assert code == cli.EXIT_OK
        assert header == ["m", "term", "partial_sum", "majorant"]
        assert len(rows) == 12
        partial = [float(row[2]) for row in rows]
        assert partial[0] != 0.0

    def test_overflowing_trace_terms_exit_3_with_every_row(self, capsys, tmp_path):
        # from index ~200 on the terms of this low-load net overflow doubles
        scenario = write_scenario(tmp_path / "lowest.json", {
            "alpha": 4.0,
            "tiers": [{"power": 1.0, "density": 1.0, "target_sir_db": 3.0, "activity": 0.001}],
        })
        start = time.perf_counter()
        code = cli.main(["sweep", "--scenario", scenario, "--sweep-target", "series_index",
                         "--sweep-values", "1,100,400"])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == cli.EXIT_NONCONVERGENCE
        body = [l for l in captured.out.splitlines() if not l.startswith("#")]
        assert [row.split(",")[0] for row in body[1:]] == ["1", "100", "400"]
        assert math.isfinite(float(body[2].split(",")[2]))
        assert body[3].split(",")[1:] == ["inf", "nan", "inf"]
        assert captured.err == ("non-convergence: the series did not converge at "
                                "series_index = 400\n")
        assert elapsed < 1.0

    def test_both_engines_emit_mc_columns(self, capsys, loaded_scenario):
        code, _, header, rows = run_csv(
            capsys,
            [
                "sweep",
                "--scenario",
                loaded_scenario,
                "--sweep-target",
                "target_sir_db",
                "--sweep-values",
                "2,4",
                "--engine",
                "both",
                "--trials",
                "400",
            ],
        )
        assert code == cli.EXIT_OK
        assert header[-2:] == ["mc_mean", "mc_stderr"]
        assert len(rows) == 2
        for row in rows:
            analytic, mc = float(row[1]), float(row[4])
            assert abs(analytic - mc) < 0.1

    @staticmethod
    def library_estimates(network, target, value, sim):
        """The estimates behind one sweep row's mc_* cells, built without the CLI."""
        if target == "user_density":
            return [estimate_coverage_system(network, value, 10, sim)]
        if target == "access_fraction":
            closed = network.tiers[1]
            tiers = (*network.tiers, replace(closed, density=closed.density * value / (1 - value)))
            return [estimate_coverage(Network(alpha=network.alpha, tiers=tiers, access=access), sim)
                    for access in ([1, 3], None)]
        if target == "target_sir_db":
            tiers = [replace(t, target_sir=10.0 ** (value / 10.0)) for t in network.tiers]
        else:
            tiers = [network.tiers[0], replace(network.tiers[1], power=value)]
        return [estimate_coverage(replace(network, tiers=tuple(tiers)), sim)]

    @pytest.mark.parametrize(
        "scenario, target, values, engine",
        [
            ("loaded_scenario", "tier[2].power", "0.1,1", "mc"),
            ("loaded_scenario", "target_sir_db", "-1,4", "both"),
            ("split_scenario", "access_fraction", "0,0.5", "both"),
            ("loaded_scenario", "user_density", "5,20", "both"),
            # no tier transmits at 0 users, so only the system simulation answers
            ("loaded_scenario", "user_density", "0,5", "mc"),
        ],
        ids=lambda v: v.removesuffix("_scenario"),
    )
    def test_mc_cells_are_the_library_estimates(
        self, request, capsys, scenario, target, values, engine
    ):
        path = request.getfixturevalue(scenario)
        code, _, header, rows = run_csv(
            capsys,
            ["sweep", "--scenario", path, "--sweep-target", target, f"--sweep-values={values}",
             "--engine", engine, "--trials", "60", "--seed", "2", "--radius", "4",
             "--resource-blocks", "10"],
        )
        assert code == cli.EXIT_OK
        network = network_from_dict(json.loads(Path(path).read_text()))
        sim = SimConfig(trials=60, seed=2, window_radius=4.0)
        mc = [i for i, name in enumerate(header) if name.startswith("mc_")]
        assert len(rows) == 2
        for value, row in zip(map(float, values.split(",")), rows):
            found = self.library_estimates(network, target, value, sim)
            assert [row[i] for i in mc] == [repr(v) for e in found for v in (e.mean, e.stderr)]

    @pytest.mark.parametrize(
        "argv, draws",
        [
            # the points of a target sweep share their field, so one draw decides them
            (["sweep", "--sweep-target", "target_sir_db", "--sweep-values", "-2,1,4"], 1),
            (["sweep", "--sweep-target", "tier[2].target_sir_db", "--sweep-values", "-2,1,4"], 1),
            # a point's closed and open variants share its field
            (["sweep", "--sweep-target", "access_fraction", "--sweep-values", "0,0.3,0.6"], 3),
            (["sweep", "--sweep-target", "tier[1].density", "--sweep-values", "0.5,1,2"], 3),
            (["sweep", "--sweep-target", "tier[2].power", "--sweep-values", "0.5,1,2"], 3),
            (["sweep", "--sweep-target", "tier[2].activity", "--sweep-values", "0.2,0.5,0.8"], 3),
            # one run serves every user density of a system grid
            (["sweep", "--sweep-target", "user_density", "--sweep-values", "2,5,9",
              "--resource-blocks", "10"], 1),
            (["compare"], 1),
        ],
        ids=lambda v: " ".join(v[:3]) if isinstance(v, list) else str(v),
    )
    def test_each_field_is_drawn_once(self, capsys, monkeypatch, split_scenario, argv, draws):
        reducer, runs = mcsim._count_covered, []

        def tee(network, sim, block, count=1):
            runs.append(sim)
            return reducer(network, sim, block, count)

        monkeypatch.setattr(mcsim, "_count_covered", tee)
        engine = ["--engine", "mc"] if argv[0] == "sweep" else []
        code = cli.main([*argv, *engine, "--scenario", split_scenario,
                         "--trials", "20", "--radius", "3"])
        capsys.readouterr()
        assert code == cli.EXIT_OK
        assert len(runs) == draws

    def test_a_user_density_grid_fails_before_it_draws(self, capsys, monkeypatch, split_scenario):
        # 1e9 users per unit area overfill a window of radius 2: the grid
        # reports that point's own error and draws nothing for the 0 before it
        argv = ["sweep", "--scenario", split_scenario, "--sweep-target", "user_density",
                "--resource-blocks", "10", "--engine", "mc", "--trials", "20", "--radius", "2"]
        code = cli.main([*argv, "--sweep-values", "1e9"])
        alone = capsys.readouterr()
        monkeypatch.setattr(mcsim, "_count_covered", None)  # nothing may be drawn
        assert cli.main([*argv, "--sweep-values", "0,1e9"]) == code == cli.EXIT_VALIDATION
        assert capsys.readouterr() == alone

    @pytest.mark.parametrize(
        "spelling, same_as",
        [
            (["--sweep-values", "-3:3:4"], "-3,-1,1,3"),
            (["--sweep-values", "-3,-1,1,3"], "-3,-1,1,3"),
            (["--sweep-values=-3:3:4"], "-3,-1,1,3"),
            (["--sweep-values", "-.5,1"], "-0.5,1"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else v,
    )
    def test_negative_sweep_values_parse(self, capsys, loaded_scenario, spelling, same_as):
        argv = ["sweep", "--scenario", loaded_scenario, "--sweep-target", "target_sir_db"]
        assert cli.main([*argv, *spelling]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert cli.main([*argv, f"--sweep-values={same_as}"]) == cli.EXIT_OK
        assert capsys.readouterr().out == out

    def test_access_fraction_gap_shrinks(self, capsys, split_scenario):
        code, _, header, rows = run_csv(
            capsys,
            [
                "sweep",
                "--scenario",
                split_scenario,
                "--sweep-target",
                "access_fraction",
                "--sweep-values",
                "0,0.3,0.6,0.9",
            ],
        )
        assert code == cli.EXIT_OK
        assert header == ["f", "analytic_closed", "analytic_open", "gap"]
        gaps = [float(row[3]) for row in rows]
        assert all(g >= -1e-12 for g in gaps)
        assert all(a >= b - 1e-12 for a, b in zip(gaps, gaps[1:]))

    def test_batched_rows_equal_single_point_coverage(self, capsys, split_scenario):
        fractions = [0.0, 0.3, 0.6, 0.9]
        code, _, _, rows = run_csv(
            capsys,
            ["sweep", "--scenario", split_scenario, "--sweep-target", "access_fraction",
             "--sweep-values", ",".join(map(str, fractions))],
        )
        assert code == cli.EXIT_OK
        macro = Tier(1.0, 1.0, 1.0, 1.0)
        for f, row in zip(fractions, rows):
            small = Tier(0.01, 10.0, 1.0, 0.5)
            tiers = (macro, small, Tier(0.01, 10.0 * f / (1.0 - f), 1.0, 0.5))
            closed = coverage(Network(alpha=3.8, tiers=tiers, access=[1, 3])).value
            opened = coverage(Network(alpha=3.8, tiers=tiers)).value
            assert row[1:] == [repr(closed), repr(opened), repr(opened - closed)]

    @staticmethod
    def reference_points(network, target, value):
        """The networks behind one analytic sweep row, built with
        dataclasses.replace as a library user would."""
        if target == "user_density":
            activities = activity_from_user_density(network, value, 10)
            tiers = [replace(t, activity=a) for t, a in zip(network.tiers, activities)]
            return [replace(network, tiers=tuple(tiers))]
        if target == "access_fraction":
            (closed,) = (t for i, t in enumerate(network.tiers, 1) if i not in network.access)
            tiers = (*network.tiers, replace(closed, density=closed.density * value / (1 - value)))
            opened = network.access | {len(tiers)}
            return [replace(network, tiers=tiers, access=opened),
                    replace(network, tiers=tiers, access=None)]
        name, _, field = target.rpartition(".")
        indices = range(len(network.tiers)) if not name else [int(name[5:-1]) - 1]
        if field == "target_sir_db":
            field, value = "target_sir", 10.0 ** (value / 10.0)
        tiers = list(network.tiers)
        for i in indices:
            tiers[i] = replace(tiers[i], **{field: value})
        return [replace(network, tiers=tuple(tiers))]

    def test_analytic_cells_are_the_coverage_of_each_point(self, capsys, tmp_path):
        rng = random.Random(18)
        targets = {
            "density": lambda: 10.0 ** rng.uniform(-1.0, 1.0),
            "activity": lambda: rng.uniform(0.3, 1.0),
            "power": lambda: 10.0 ** rng.uniform(-2.0, 1.0),
            "target_sir_db": lambda: rng.uniform(0.5, 10.0),
        }
        for n in range(40):
            k = rng.randint(1, 4)
            doc = {
                "alpha": rng.uniform(2.6, 5.5),
                "tiers": [{"power": 10.0 ** rng.uniform(-2.0, 1.0),
                           "density": 10.0 ** rng.uniform(-1.0, 1.0),
                           "target_sir_db": rng.uniform(0.5, 10.0),
                           "activity": rng.uniform(0.3, 1.0)} for _ in range(k)],
            }
            if k > 1 and rng.random() < 0.5:
                # one closed tier (access_fraction sweeps need that), or two of four
                closed = rng.sample(range(1, k + 1), 2 if k == 4 and rng.random() < 0.5 else 1)
                doc["access"] = [i for i in range(1, k + 1) if i not in closed]
            path = write_scenario(tmp_path / f"net{n}.json", doc)
            network = network_from_dict(doc)
            grid = {f"tier[{rng.randint(1, k)}].{field}": [draw() for _ in range(3)]
                    for field, draw in targets.items()}
            grid["target_sir_db"] = [targets["target_sir_db"]() for _ in range(3)]
            grid["user_density"] = [rng.uniform(1.0, 30.0) for _ in range(3)]
            if len(network.access) == k - 1:
                grid["access_fraction"] = [rng.uniform(0.0, 0.9) for _ in range(3)]
            for target, values in grid.items():
                code, _, header, rows = run_csv(
                    capsys,
                    ["sweep", "--scenario", path, "--sweep-target", target,
                     "--sweep-values", ",".join(map(repr, values)), "--resource-blocks", "10"],
                )
                assert code in (cli.EXIT_OK, cli.EXIT_NONCONVERGENCE)
                for value, row in zip(values, rows, strict=True):
                    points = self.reference_points(network, target, value)
                    found = [coverage(net) for net in points]
                    if target == "access_fraction":
                        closed, opened = (r.value for r in found)
                        expected = [closed, opened, opened - closed]
                    else:
                        expected = [found[0].value, found[0].lower, found[0].upper]
                    # a user_density row leads with the grid value and k activities
                    lead = 1 + k if target == "user_density" else 1
                    assert row[lead:] == list(map(repr, expected)), (n, target, value)

    def test_low_load_sweep_writes_every_row_and_exits_3(self, capsys, loaded_scenario):
        code = cli.main(
            ["sweep", "--scenario", loaded_scenario, "--sweep-target", "user_density",
             "--sweep-values", "0.5,1,20,100", "--resource-blocks", "50"]
        )
        captured = capsys.readouterr()
        assert code == cli.EXIT_NONCONVERGENCE
        body = [l for l in captured.out.splitlines() if not l.startswith("#")]
        assert len(body) == 1 + 4
        assert captured.err.startswith("non-convergence:")
        assert "user_density = 0.5, 1.0" in captured.err
        assert "20.0" not in captured.err and "100.0" not in captured.err

    UNCONVERGED = ["sweep", "--sweep-target", "user_density", "--sweep-values", "0.5,20",
                   "--resource-blocks", "50"]

    def test_unconverged_sweep_with_unwritable_out_reports_one_error(
        self, capsys, tmp_path, loaded_scenario
    ):
        target = tmp_path / "missing" / "out.csv"
        code = cli.main([*self.UNCONVERGED, "--scenario", loaded_scenario, "--out", str(target)])
        captured = capsys.readouterr()
        assert code == cli.EXIT_USAGE
        assert captured.out == ""
        assert captured.err.startswith("usage error: cannot write ")
        assert captured.err.count("\n") == 1

    def test_unconverged_sweep_notes_after_writing(self, monkeypatch, tmp_path, loaded_scenario):
        target = tmp_path / "out.csv"
        notes = []

        class Stderr:
            def write(self, text):
                notes.append((text, target.exists() and target.stat().st_size > 0))

            def flush(self):
                pass

        monkeypatch.setattr(sys, "stderr", Stderr())
        code = cli.main([*self.UNCONVERGED, "--scenario", loaded_scenario, "--out", str(target)])
        assert code == cli.EXIT_NONCONVERGENCE
        assert len(target.read_text().splitlines()) > 2
        text = "".join(t for t, _ in notes)
        assert text.startswith("non-convergence: ") and text.count("\n") == 1
        assert all(written for _, written in notes)

    def test_access_fraction_needs_one_closed_tier(self, capsys, loaded_scenario):
        code = cli.main(
            [
                "sweep",
                "--scenario",
                loaded_scenario,
                "--sweep-target",
                "access_fraction",
                "--sweep-values",
                "0.5",
            ]
        )
        assert code == cli.EXIT_VALIDATION


class TestCompareCommand:
    def test_rows_and_determinism(self, tmp_path, loaded_scenario):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        argv = [
            "compare",
            "--scenario",
            loaded_scenario,
            "--trials",
            "2000",
            "--seed",
            "9",
        ]
        assert cli.main(argv + ["--out", str(out1)]) == cli.EXIT_OK
        assert cli.main(argv + ["--out", str(out2)]) == cli.EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()
        report = json.loads(out1.read_text())
        models = {row["model"] for row in report["rows"]}
        assert models == {"conditional-thinning", "fully-loaded", "idle-only"}
        for row in report["rows"]:
            assert row["z"] >= 0.0

    def test_low_target_flags_but_does_not_fail(self, capsys, tmp_path):
        scenario = write_scenario(
            tmp_path / "low.json",
            {
                "alpha": 3.8,
                "tiers": [
                    {"power": 1.0, "density": 1.0, "target_sir_db": -6.0, "activity": 0.8}
                ],
            },
        )
        code, report = run_json(
            capsys,
            ["compare", "--scenario", scenario, "--trials", "2000", "--seed", "1"],
        )
        assert code == cli.EXIT_OK
        ct = next(r for r in report["rows"] if r["model"] == "conditional-thinning")
        assert ct["flagged"] is True
        assert ct["analytic"] > ct["mc_mean"]  # series overshoots below 0 dB
        assert report["any_flagged"] is True


class TestRasterCommand:
    def test_shape_and_determinism(self, tmp_path, loaded_scenario):
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        field = tmp_path / "field.csv"
        argv = [
            "raster",
            "--scenario",
            loaded_scenario,
            "--resolution",
            "12",
            "--radius",
            "4",
            "--seed",
            "2",
            "--mode",
            "thinned-regions",
        ]
        assert cli.main(argv + ["--out", str(out1), "--dump-realization", str(field)]) == cli.EXIT_OK
        assert cli.main(argv + ["--out", str(out2)]) == cli.EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().splitlines()
        body = [l for l in lines if not l.startswith("#")]
        assert body[0] == "x,y,bs_id,tier"
        assert len(body) == 12 * 12 + 1
        assert field.read_text().splitlines()[0] == "x,y,tier,active,fading"


    @pytest.mark.parametrize("mode", ["full", "thinned-regions", "thinned-biased"])
    def test_an_empty_window_gives_a_blank_raster(self, capsys, tmp_path, mode):
        scenario = write_scenario(tmp_path / "one.json", {
            "alpha": 4.0,
            "tiers": [{"power": 1.0, "density": 1.0, "target_sir_db": 0.0, "activity": 0.5}],
        })
        field = tmp_path / "field.csv"
        code = cli.main(["raster", "--scenario", scenario, "--radius", "0.01", "--resolution",
                         "5", "--mode", mode, "--dump-realization", str(field)])
        captured = capsys.readouterr()
        assert code == cli.EXIT_OK
        assert "Traceback" not in captured.err
        body = [l for l in captured.out.splitlines() if not l.startswith("#")]
        assert body[0] == "x,y,bs_id,tier"
        assert len(body) == 5 * 5 + 1
        assert all(row.split(",")[2:] == ["-1", "-1"] for row in body[1:])
        assert field.read_text() == "x,y,tier,active,fading\n"


class TestParserReuse:
    def test_commands_in_one_process_match_fresh_processes(
        self, capsys, tmp_path, loaded_scenario, full_load_scenario
    ):
        invalid = write_scenario(
            tmp_path / "invalid.json",
            {"alpha": 2.0,
             "tiers": [{"power": 1, "density": 1, "target_sir_db": 0, "activity": 1}]},
        )
        commands = [
            ["coverage", "--scenario", loaded_scenario],
            ["sweep", "--scenario", loaded_scenario, "--sweep-target", "tier[2].density",
             "--sweep-values", "0.5,1,2"],
            ["simulate", "--scenario", loaded_scenario, "--trials", "200", "--seed", "4"],
            ["coverage", "--scenario", loaded_scenario, "--max-terms", "2"],
            ["coverage", "--scenario", invalid],
            ["coverage", "--nonsense"],
            ["sweep", "--scenario", full_load_scenario, "--sweep-target", "series_index",
             "--sweep-values", "1,3"],
            ["coverage", "--scenario", loaded_scenario],
        ]
        in_process = []
        for argv in commands:
            code = cli.main(argv)
            captured = capsys.readouterr()
            in_process.append((code, captured.out, captured.err))
        assert cli._build_parser() is cli._build_parser()
        assert in_process[0] == in_process[-1]
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        for argv, expected in zip(commands, in_process):
            fresh = subprocess.run(
                [sys.executable, "-m", "hetcov.cli", *argv],
                capture_output=True, text=True, env=env, timeout=120, check=False,
            )
            assert (fresh.returncode, fresh.stdout, fresh.stderr) == expected


def test_analytic_commands_never_import_the_association(loaded_scenario):
    # scipy.spatial serves only the nearest-station association of the
    # system simulation and the raster, so an analytic command leaves it
    # unimported
    script = (
        "import sys, hetcov\n"
        "from hetcov import cli\n"
        f"code = cli.main(['coverage', '--scenario', {loaded_scenario!r}])\n"
        "print(code, 'scipy.spatial' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    run = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    assert run.stdout.splitlines()[-1] == f"{cli.EXIT_OK} False"


def test_thinning_simulations_never_import_scipy(loaded_scenario):
    # scipy serves only the series and the association, so importing the
    # package and simulating a thinning load, or sweeping one by Monte
    # Carlo, leaves every scipy module unimported
    runs = [["simulate", "--load", load, "--placement", placement]
            for load in ("conditional-thinning", "fully-loaded", "idle-only")
            for placement in ("ppp", "hex-first-tier")]
    runs.append(["sweep", "--sweep-target", "tier[2].density", "--sweep-values", "1,2",
                 "--engine", "mc"])
    argvs = [[*argv, "--scenario", loaded_scenario, "--trials", "20", "--radius", "3"]
             for argv in runs]
    script = (
        "import contextlib, io, sys\n"
        "import hetcov\n"
        "from hetcov import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [cli.main(argv) for argv in {argvs!r}]\n"
        "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    run = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    assert run.stdout.splitlines()[-1] == f"{[cli.EXIT_OK] * len(argvs)} []"

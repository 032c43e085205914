"""Tests of the benchmark itself: generator, oracle, classifier, tracer.

Run from the repository root:  PYTHONPATH=src python3 -m pytest bench/tests -q
"""

import json
import math
import os

import pytest

from hetbench import classify, harness, tracing, workloads
from hetbench.oracle import ROADMAP_CASE, Oracle, self_check, with_activities
from hetbench.workloads import Command

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _strip_paths(workload, workdir):
    return [json.dumps([c.argv, c.check]).replace(workdir, "<dir>") for c in workload.commands]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(tmp_path, name):
    a = workloads.generate(name, 7, str(tmp_path / "a"))
    b = workloads.generate(name, 7, str(tmp_path / "b"))
    c = workloads.generate(name, 8, str(tmp_path / "c"))
    assert a.scenarios == b.scenarios
    assert _strip_paths(a, str(tmp_path / "a")) == _strip_paths(b, str(tmp_path / "b"))
    assert a.scenarios != c.scenarios
    for key, doc in a.scenarios.items():
        with open(tmp_path / "a" / f"{key}.json", encoding="utf-8") as handle:
            assert json.load(handle) == doc


def test_loaded_sweeps_stay_loaded(tmp_path):
    made = workloads.generate("sweep-loaded", 3, str(tmp_path))
    for doc in made.scenarios.values():
        assert len(doc["tiers"]) <= 3
        for tier in doc["tiers"]:
            assert 0.3 <= tier["activity"] <= 1.0
            assert tier["target_sir_db"] > 0.0
    targets = {c.check["target"].split(".")[-1] for c in made.commands}
    assert targets == {"density", "power", "activity", "target_sir_db",
                       "access_fraction", "series_index"}


def test_lowload_grid_reaches_the_floor(tmp_path):
    made = workloads.generate("sweep-lowload", 3, str(tmp_path))
    for cmd in made.commands:
        doc = made.scenarios[cmd.scenario]
        low, _, peak = workloads._plan_ratio(doc, cmd.check["values"][0], cmd.check["blocks"])
        high = workloads._plan_ratio(doc, cmd.check["values"][-1], cmd.check["blocks"])[0]
        assert low >= workloads.LOWLOAD_FLOOR * (1 - 1e-9)
        assert peak <= workloads.LOWLOAD_PEAK_LOG10 + 1e-6
        # The floor binds: either the load or the oracle's budget is reached.
        assert (low <= workloads.LOWLOAD_FLOOR * 1.001
                or peak >= workloads.LOWLOAD_PEAK_LOG10 - 0.01)
        assert high >= 0.9 * (1 - 1e-9)


def test_oracle_self_checks_pass():
    assert self_check() == []


def test_oracle_cache_round_trip(tmp_path):
    path = str(tmp_path / "cache.json")
    first = Oracle(path)
    value = first.coverage(ROADMAP_CASE)
    first.save()
    second = Oracle(path)
    second.load()
    assert second.coverage(ROADMAP_CASE) == value
    assert second.computed == 0


def test_oracle_full_load_and_terms_agree():
    doc = with_activities(ROADMAP_CASE, [1.0])
    ref = Oracle().coverage(doc)
    assert ref["value"] == ref["full_load"]  # no idle stations: head term only
    loaded = with_activities(ROADMAP_CASE, [0.7])
    oracle = Oracle()
    terms = oracle.series_terms(loaded, 40)
    ref = oracle.coverage(loaded)
    assert math.isclose(ref["full_load"] - math.fsum(terms), ref["value"], abs_tol=1e-15)


# ---------------------------------------------------------------- classifier


def _sweep_command(values, refs, target="tier[1].activity"):
    cmd = Command("sweep", [], "s", {"epsilon": 1e-10, "target": target,
                                     "values": values}, ops=len(values))
    cmd.refs = {"rows": [{"value": r} for r in refs]}
    return cmd


def _sweep_csv(rows):
    lines = ["# target=tier[1].activity", "tier_1_activity,analytic_value,analytic_lower,analytic_upper"]
    lines += [",".join(repr(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def test_sweep_rows_ok_failed_and_non_finite():
    cmd = _sweep_command([0.5, 0.6, 0.7, 0.8], [0.5, 0.6, 0.7, 0.8])
    text = _sweep_csv([
        (0.5, 0.5 + 5e-11, 0.5, 0.5 + 5e-11),     # inside bracket + eps
        (0.6, 0.6 + 3e-10, 0.6, 0.6 + 1e-10),     # beyond bracket + eps
        (0.7, math.nan, 0.7, 0.7),                 # not finite
        (0.8, 0.8 + 1.5e-10, 0.8, 0.8 + 1e-10),   # within width + eps
    ])
    verdict = classify.classify(cmd, 0, None, text)
    assert (verdict.ok, verdict.flagged, verdict.failed) == (2, 0, 2)


def test_exit_three_flags_and_exception_fails_every_row():
    cmd = _sweep_command([0.5, 0.6], [0.5, 0.6])
    flagged = classify.classify(cmd, 3, None, "")
    assert (flagged.ok, flagged.flagged, flagged.failed) == (0, 2, 0)
    failed = classify.classify(cmd, None, OverflowError("range"), "")
    assert (failed.ok, failed.flagged, failed.failed) == (0, 0, 2)
    usage = classify.classify(cmd, 1, None, "")
    assert usage.failed == 2


def test_wrong_row_count_fails_the_command():
    cmd = _sweep_command([0.5, 0.6], [0.5, 0.6])
    verdict = classify.classify(cmd, 0, None, _sweep_csv([(0.5, 0.5, 0.5, 0.5)]))
    assert verdict.failed == 2


def test_monte_carlo_binomial_check():
    cmd = Command("simulate", [], "s", {"load": "conditional-thinning"}, ops=1, trials=400)
    cmd.refs = {"value": 0.5}

    def report(mean):
        stderr = math.sqrt(mean * (1 - mean) / 400)
        return json.dumps({"mean": mean, "stderr": stderr, "trials": 400})

    assert classify.classify(cmd, 0, None, report(0.52)).ok == 1
    assert classify.classify(cmd, 0, None, report(0.65)).failed == 1
    bad_stderr = json.dumps({"mean": 0.5, "stderr": 0.0, "trials": 400})
    assert classify.classify(cmd, 0, None, bad_stderr).failed == 1


def test_compare_flags_unconverged_rows():
    cmd = Command("compare", [], "s", {"epsilon": 1e-10}, ops=3, trials=300)
    cmd.refs = {"value": 0.5, "full_load": 0.4, "idle_only": 0.1}
    rows = [
        {"model": "conditional-thinning", "analytic": 0.5, "converged": False,
         "mc_mean": 0.5, "mc_stderr": math.sqrt(0.25 / 100)},
        {"model": "fully-loaded", "analytic": 0.4, "converged": True,
         "mc_mean": 0.4, "mc_stderr": math.sqrt(0.24 / 100)},
        {"model": "idle-only", "analytic": 0.2, "converged": True,
         "mc_mean": 0.1, "mc_stderr": math.sqrt(0.09 / 100)},
    ]
    verdict = classify.classify(cmd, 3, None, json.dumps({"rows": rows}))
    assert (verdict.ok, verdict.flagged, verdict.failed) == (1, 1, 1)


def test_system_band():
    cmd = Command("system", [], "s", {}, ops=1, trials=200)
    cmd.refs = {"value": 0.8}
    inside = json.dumps({"mean": 0.86, "stderr": 0.02, "trials": 200})
    outside = json.dumps({"mean": 0.6, "stderr": 0.03, "trials": 200})
    assert classify.classify(cmd, 0, None, inside).ok == 1
    assert classify.classify(cmd, 0, None, outside).failed == 1


def test_pooled_check_catches_a_bias_single_estimates_miss():
    def simulate(mean, trials=120):
        cmd = Command("simulate", [], "s", {"load": "idle-only"}, ops=1, trials=trials)
        cmd.refs = {"idle_only": 0.5}
        stderr = math.sqrt(mean * (1 - mean) / trials)
        return cmd, json.dumps({"mean": mean, "stderr": stderr, "trials": trials})

    def run(mean):
        cmds, texts = zip(*(simulate(mean) for _ in range(20)))
        verdicts = [classify.classify(c, 0, None, t) for c, t in zip(cmds, texts)]
        assert all(v.ok == 1 for v in verdicts)  # each passes alone
        problems = classify.pooled_check(list(cmds), list(texts), verdicts)
        return problems, sum(v.failed for v in verdicts)

    assert run(0.5) == ([], 0)
    # 6 points high: within one estimate's allowance, 5.9 sigma pooled.
    problems, failed = run(120 * 0.56 / 120)
    assert len(problems) == 1 and failed == 20


def test_pooled_system_check_allows_the_band():
    def system(mean):
        cmd = Command("system", [], "s", {}, ops=1, trials=120)
        cmd.refs = {"value": 0.8}
        return cmd, json.dumps({"mean": mean, "stderr": 0.0, "trials": 120})

    for mean, failing in ((0.84, 0), (0.72, 0), (0.6, 2)):
        cmds, texts = zip(system(mean), system(mean))
        verdicts = [classify.classify(c, 0, None, t) for c, t in zip(cmds, texts)]
        problems = classify.pooled_check(list(cmds), list(texts), verdicts)
        assert sum(v.failed for v in verdicts) == failing, (mean, problems)


def test_window_stations_follow_the_estimator():
    import hetcov
    from hetcov.mcsim import SimConfig

    net = hetcov.Network(4.0, (hetcov.Tier(1.0, 1.0, 2.0, 0.8),
                               hetcov.Tier(0.01, 2.0, 2.0, 0.6)))
    sim = SimConfig(trials=10)
    # 500 expected active macro stations, so 500 * 3 / 0.8 stations in all.
    assert tracing._window_stations(net, sim) == pytest.approx(1875.0)


def _runner_for(tmp_path, name, seed=5):
    from hetcov import cli

    made = workloads.generate(name, seed, str(tmp_path))
    oracle = Oracle()
    classify.attach_references(made, oracle)
    return made, harness.Runner(made, cli.main, sample_seed=seed)


def test_raster_brute_force_check(tmp_path):
    made, runner = _runner_for(tmp_path, "monte-carlo")
    rasters = [i for i, c in enumerate(made.commands) if c.kind == "raster"]
    for index in rasters:
        _, verdict = runner.execute(index)
        assert verdict.ok == 1, verdict.notes
    # Corrupt one sampled pixel's station id: the check must catch it.
    cmd = made.commands[rasters[0]]
    code, _, text = runner.first[rasters[0]]
    lines = text.splitlines()
    header = next(i for i, line in enumerate(lines) if line.startswith("x,"))
    import random

    index = random.Random(5).sample(range(cmd.check["resolution"] ** 2), 1)[0]
    x, y, bs, tier = lines[header + 1 + index].split(",")
    lines[header + 1 + index] = ",".join((x, y, str(int(bs) + 1), tier))
    verdict = classify.classify(cmd, code, None, "\n".join(lines) + "\n", sample_seed=5)
    assert verdict.failed == 1


def test_seed_overflow_defect_counts_as_failed(tmp_path):
    """One tier, alpha = 4, p = 0.02: the seed's series raises OverflowError.
    The runner must survive it and fail every row of that command."""
    from hetcov import cli

    doc = with_activities(ROADMAP_CASE, [0.02])
    path = tmp_path / "one-tier.json"
    path.write_text(json.dumps(doc))
    values = [0.02, 0.5]
    argv = ["sweep", "--scenario", str(path), "--sweep-target", "tier[1].activity",
            "--sweep-values", "0.02,0.5", "--engine", "analytic", "--epsilon", "1e-10"]
    cmd = Command("sweep", argv, "one", {"epsilon": 1e-10, "target": "tier[1].activity",
                                         "tier": 1, "field": "activity", "values": values},
                  ops=2)
    made = workloads.Workload("custom", 0, {"one": doc}, [cmd])
    classify.attach_references(made, Oracle())
    raised = []

    def main(argv):
        try:
            return cli.main(argv)
        except Exception as exc:
            raised.append(exc)
            raise

    runner = harness.Runner(made, main, sample_seed=0)
    _, verdict = runner.execute(0)
    assert verdict.ok + verdict.flagged + verdict.failed == 2
    if raised:
        assert isinstance(raised[0], OverflowError)
        assert verdict.failed == 2
    else:  # a program that handles the regime must get both rows right or flag them
        assert verdict.failed == 0


def test_summary_counts_and_rates():
    cmd = Command("sweep", [], "s", {}, ops=4)
    records = [(0, 0.5, classify.Verdict(ok=3, failed=1)),
               (0, 1.5, classify.Verdict(ok=4))]
    summary = harness._summary(records, [cmd])
    assert summary["attempted"] == 8 and summary["failed"] == 1
    assert summary["ok_ops_per_s"] == pytest.approx(7 / 2.0)
    assert summary["error_rate"] == pytest.approx(1 / 8)


# ---------------------------------------------------------------- tracing


def test_tracer_wraps_every_import_site_and_restores():
    import hetcov
    from hetcov import analytic, cli, model, specfun

    originals = {
        (mod, name): getattr(mod, name)
        for mod, name in ((specfun, "gauss_2f1"), (model, "gauss_2f1"),
                          (analytic, "gauss_2f1"), (cli, "coverage"),
                          (analytic, "coverage"), (model, "hypergeometric_sum"),
                          (analytic, "hypergeometric_sum"), (cli, "estimate_coverage"))
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (mod, name), fn in originals.items():
            assert getattr(mod, name) is not fn
            assert getattr(mod, name).__wrapped__ is fn
        net = hetcov.Network(3.8, (hetcov.Tier(1.0, 1.0, 2.0, 0.8),
                                   hetcov.Tier(0.01, 2.0, 2.0, 0.6)))
        result = analytic.coverage(net)
    finally:
        tracer.uninstall()
    for (mod, name), fn in originals.items():
        assert getattr(mod, name) is fn
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["analytic.coverage.calls"][0] == 1
    assert metrics["analytic.coverage.terms"][0] == result.terms_used
    # The seed evaluates one 2F1 per series term and access tier.
    assert metrics["specfun.gauss_2f1.calls"][0] >= result.terms_used
    assert metrics["specfun.gauss_2f1.per_term"][0] > 0
    names = {s[0] for s in tracer.spans}
    assert {"analytic.coverage", "model.hypergeometric_sum", "specfun.gauss_2f1",
            "model.derived_constants"} <= names
    assert all(s[3] < i for i, s in enumerate(tracer.spans))


def test_benchmark_json_matches_the_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in harness.END_TO_END]
    layer_names = set(tracing.layer_metrics([])) | {"trace.overhead_pct", "trace.spans"}
    assert {m["name"] for m in spec["per_layer"]} == layer_names
    for workload in spec["workloads"]:
        assert workload["name"] in workloads.WORKLOADS

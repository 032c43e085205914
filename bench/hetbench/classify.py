"""Reference values per command and the outcome classifier.

Every operation a command produces (a sweep row, a Monte Carlo estimate, a
raster) is sorted into one of three outcomes:

* ok      - the output agrees with the independent reference;
* flagged - the program said it could not answer reliably (exit code 3 or
            converged: false) and the value is not judged;
* failed  - the output is wrong beyond its bound or not finite, the command
            raised an exception (which fails every operation it owed), or it
            exited with a usage/validation error.

Bounds:
* analytic value: |value - ref| <= (upper - lower) + epsilon, where the
  bracket is the row's own [lower, upper] (zero width when the output has
  no bracket) and epsilon the command's series tolerance;
* Monte Carlo estimate: the covered count must pass an exact two-sided
  binomial test against the reference at tail probability 1e-6 (about
  4.9 sigma; the normal 4-sigma rule misfires on counts near 0 or n), and
  the reported stderr must equal sqrt(mean(1-mean)/n);
* system simulation: |mean - ref| <= 0.05 + 5 sigma around the series
  calibrated with the per-tier activities the user density induces; 0.05 is
  acceptance criterion c10's band for the load model's approximation, and
  5 sigma = 5 sqrt(ref(1-ref)/n) its sampling allowance;
* pooled: the estimates that pass one by one must also pass together.  Per
  load mode (the three of simulate and compare, and the system simulation)
  z = sum(covered - n ref) / sqrt(sum n ref (1 - ref)) over a pass; the
  group fails when |z| > 5, for the system group after 0.05 n of each
  estimate's excess is allowed.  A single estimate at 40-120 trials only
  catches errors of 0.2-0.4; the pooled test catches a bias of a few points;
* raster: a brute-force argmax of P^(2/alpha) / d^2 over the dumped field on
  a seeded sample of pixels.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field

from scipy.stats import binom

from .oracle import Oracle, with_activities
from .workloads import Command, Workload

RASTER_SAMPLE = 64
# Two-sided tail probability below which a Monte Carlo count fails; about
# 4.9 sigma, so that a correct program trips it less than once in ten
# thousand runs of ~30 estimates each.
MC_TAIL = 1e-6
SYSTEM_BAND = 0.05
POOLED_Z = 5.0


@dataclass
class Verdict:
    ok: int = 0
    flagged: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def add(self, outcome: str, note: str | None = None) -> None:
        setattr(self, outcome, getattr(self, outcome) + 1)
        if note and len(self.notes) < 5:
            self.notes.append(note)


# --------------------------------------------------------------------------
# References (computed before any timing starts)


def _with_tier_value(doc: dict, tier: int, name: str, value: float) -> dict:
    tiers = [dict(t) for t in doc["tiers"]]
    tiers[tier - 1][name] = value
    return dict(doc, tiers=tiers)


def _access_fraction_docs(doc: dict, f: float) -> tuple[dict, dict]:
    """The restricted and open networks the CLI builds for fraction f: the
    closed tier keeps its density and an open copy gets density * f/(1-f)."""
    k = len(doc["tiers"])
    closed = next(j for j in range(1, k + 1) if j not in doc["access"])
    base = doc["tiers"][closed - 1]
    open_tier = dict(base, density=base["density"] * f / (1.0 - f))
    tiers = doc["tiers"] + [open_tier]
    restricted = {"alpha": doc["alpha"], "tiers": tiers,
                  "access": sorted(set(doc["access"]) | {k + 1})}
    unrestricted = {"alpha": doc["alpha"], "tiers": tiers}
    return restricted, unrestricted


def attach_references(workload: Workload, oracle: Oracle) -> None:
    """Fill cmd.refs for every command from the oracle."""
    for cmd in workload.commands:
        doc = workload.scenarios[cmd.scenario]
        check = cmd.check
        if cmd.kind == "sweep":
            target = check["target"]
            values = check["values"]
            if target == "series_index":
                count = max(values)
                terms = oracle.series_terms(doc, count)
                cov = oracle.coverage(doc)
                delta = 2.0 / doc["alpha"]
                rows = []
                for m in values:
                    majorant = (
                        math.exp(m * math.log(cov["ratio"]) - math.lgamma(1.0 + delta * m))
                        if cov["ratio"] > 0 else 0.0
                    )
                    rows.append({"term": terms[m - 1],
                                 "partial_sum": math.fsum(terms[:m]),
                                 "scale": math.fsum(abs(t) for t in terms[:m]),
                                 "majorant": majorant})
            elif target == "access_fraction":
                rows = []
                for f in values:
                    closed_doc, open_doc = _access_fraction_docs(doc, f)
                    rows.append({"closed": oracle.coverage(closed_doc)["value"],
                                 "open": oracle.coverage(open_doc)["value"]})
            elif target == "user_density":
                rows = []
                for lu in values:
                    acts = oracle.activities(doc, lu, check["blocks"])
                    ref = oracle.coverage(with_activities(doc, acts))
                    rows.append({"activities": acts, "value": ref["value"],
                                 "log10_peak": ref["log10_peak"]})
            else:
                rows = [
                    {"value": oracle.coverage(
                        _with_tier_value(doc, check["tier"], check["field"], v))["value"]}
                    for v in values
                ]
            cmd.refs = {"rows": rows}
        elif cmd.kind in ("simulate", "compare"):
            cmd.refs = oracle.coverage(doc)
        elif cmd.kind == "system":
            acts = oracle.activities(doc, check["user_density"], check["blocks"])
            cmd.refs = {"value": oracle.coverage(with_activities(doc, acts))["value"]}
        elif cmd.kind == "raster":
            cmd.refs = {"alpha": doc["alpha"],
                        "powers": [t["power"] for t in doc["tiers"]]}


# --------------------------------------------------------------------------
# Checks


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _analytic_ok(value, lower, upper, ref, epsilon) -> bool:
    return _finite(value, lower, upper) and abs(value - ref) <= (upper - lower) + epsilon


def _mc_ok(mean, stderr, trials, ref) -> bool:
    """Exact two-sided binomial test of the covered count against the
    reference, plus the reported standard error against its definition."""
    if not _finite(mean, stderr):
        return False
    covered = round(mean * trials)
    tail = min(binom.cdf(covered, trials, ref), binom.sf(covered - 1, trials, ref))
    expected_stderr = math.sqrt(mean * (1.0 - mean) / trials)
    return 2.0 * tail >= MC_TAIL and abs(stderr - expected_stderr) <= 1e-12


def _system_ok(mean, trials, ref) -> bool:
    sigma = math.sqrt(ref * (1.0 - ref) / trials)
    return _finite(mean) and abs(mean - ref) <= SYSTEM_BAND + 5.0 * sigma


def _parse_csv(text: str) -> tuple[dict, list[str], list[list[str]]]:
    lines = text.splitlines()
    meta = {}
    body = []
    for line in lines:
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        else:
            body.append(line)
    rows = list(csv.reader(body))
    return meta, rows[0], rows[1:]


def _check_sweep(cmd: Command, text: str, verdict: Verdict) -> None:
    check, refs = cmd.check, cmd.refs["rows"]
    eps = check["epsilon"]
    _, header, rows = _parse_csv(text)
    if len(rows) != len(refs):
        for _ in refs:
            verdict.add("failed", f"{len(rows)} rows for {len(refs)} grid points")
        return
    target = check["target"]
    for x, row, ref in zip(check["values"], rows, refs):
        try:
            cells = [float(c) for c in row]
        except ValueError:
            verdict.add("failed", f"unparsable row {row}")
            continue
        if cells[0] != x:
            verdict.add("failed", f"grid value {cells[0]!r} != {x!r}")
            continue
        if target == "series_index":
            term, partial, majorant = cells[1:4]
            scale = max(1.0, ref["scale"])
            good = (
                _finite(term, partial, majorant)
                and abs(term - ref["term"]) <= eps + 1e-9 * abs(ref["term"])
                and abs(partial - ref["partial_sum"]) <= eps * scale
                and abs(majorant - ref["majorant"]) <= 1e-9 * ref["majorant"] + 1e-300
            )
        elif target == "access_fraction":
            closed, opened, gap = cells[1:4]
            good = (
                _analytic_ok(closed, 0.0, 0.0, ref["closed"], eps)
                and _analytic_ok(opened, 0.0, 0.0, ref["open"], eps)
                and _analytic_ok(gap, 0.0, 0.0, ref["open"] - ref["closed"], 2 * eps)
            )
        elif target == "user_density":
            k = len(ref["activities"])
            acts = cells[1:1 + k]
            value, lower, upper = cells[1 + k:4 + k]
            good = all(
                abs(a - r) <= 1e-12 * r for a, r in zip(acts, ref["activities"])
            ) and _analytic_ok(value, lower, upper, ref["value"], eps)
        else:
            value, lower, upper = cells[1:4]
            good = _analytic_ok(value, lower, upper, ref["value"], eps)
        verdict.add("ok" if good else "failed",
                    None if good else f"{header[0]}={x!r}: {row[1:]} vs {ref}")


_MODE_REF = {"conditional-thinning": "value", "fully-loaded": "full_load",
             "idle-only": "idle_only"}


def _check_simulate(cmd: Command, text: str, verdict: Verdict) -> None:
    report = json.loads(text)
    ref = cmd.refs[_MODE_REF[cmd.check["load"]]]
    good = report.get("trials") == cmd.trials and _mc_ok(
        report["mean"], report["stderr"], cmd.trials, ref)
    verdict.add("ok" if good else "failed",
                None if good else f"mc {report['mean']} +- {report['stderr']} vs {ref}")


def _check_compare(cmd: Command, text: str, verdict: Verdict) -> None:
    report = json.loads(text)
    eps = cmd.check["epsilon"]
    trials = cmd.trials // 3
    rows = {row["model"]: row for row in report.get("rows", [])}
    for model, key in _MODE_REF.items():
        row = rows.get(model)
        ref = cmd.refs[key]
        if row is None:
            verdict.add("failed", f"compare row {model} missing")
        elif not row["converged"]:
            verdict.add("flagged")
        elif not _analytic_ok(row["analytic"], 0.0, 0.0, ref, eps):
            verdict.add("failed", f"{model} analytic {row['analytic']!r} vs {ref!r}")
        elif not _mc_ok(row["mc_mean"], row["mc_stderr"], trials, ref):
            verdict.add("failed", f"{model} mc {row['mc_mean']} vs {ref}")
        else:
            verdict.add("ok")


def _check_system(cmd: Command, text: str, verdict: Verdict) -> None:
    report = json.loads(text)
    ref = cmd.refs["value"]
    good = report.get("trials") == cmd.trials and _system_ok(
        report["mean"], cmd.trials, ref)
    verdict.add("ok" if good else "failed",
                None if good else f"system {report['mean']} vs calibrated {ref}")


def _check_raster(cmd: Command, text: str, verdict: Verdict, seed: int) -> None:
    meta, header, rows = _parse_csv(text)
    res = cmd.check["resolution"]
    mode = cmd.check["mode"]
    if header != ["x", "y", "bs_id", "tier"] or len(rows) != res * res:
        verdict.add("failed", f"raster shape: header {header}, {len(rows)} rows")
        return
    with open(cmd.check["field"], encoding="utf-8") as handle:
        field_rows = list(csv.reader(handle))
    if field_rows[0] != ["x", "y", "tier", "active", "fading"] or len(field_rows) < 2:
        verdict.add("failed", "realization dump malformed")
        return
    stations = [(float(x), float(y), int(t), int(a)) for x, y, t, a, _ in field_rows[1:]]
    radius = float(meta["window_radius"])
    alpha = cmd.refs["alpha"]
    rank_power = [p ** (2.0 / alpha) for p in cmd.refs["powers"]]
    if any(x * x + y * y > radius * radius * (1.0 + 1e-12) for x, y, _, _ in stations):
        verdict.add("failed", "realization has stations outside the window")
        return
    centers = [-radius + (k + 0.5) * (2.0 * radius / res) for k in range(res)]
    rng = random.Random(seed)
    for index in rng.sample(range(res * res), RASTER_SAMPLE):
        iy, ix = divmod(index, res)
        x, y, bs, tier = rows[index]
        if float(x) != centers[ix] or float(y) != centers[iy]:
            verdict.add("failed", f"pixel {index} centre ({x}, {y})")
            return
        ranked = []
        for sid, (sx, sy, st, sa) in enumerate(stations):
            if mode == "thinned-biased" and not sa:
                continue
            dx, dy = centers[ix] - sx, centers[iy] - sy
            d2 = dx * dx + dy * dy
            ranked.append((rank_power[st - 1] / d2 if d2 else math.inf, sid))
        if not ranked:
            expect = {-1}
        else:
            ranked.sort(reverse=True)
            best = ranked[0][0]
            # Accept any station within a relative 1e-12 of the best rank:
            # a near-tie on a cell border may round either way.
            expect = {sid for r, sid in ranked if r >= best * (1.0 - 1e-12)}
            if mode == "thinned-regions":
                expect = {sid if stations[sid][3] else -1 for sid in expect}
        got = int(bs)
        want_tier = stations[got][2] if got >= 0 else -1
        if got not in expect or int(tier) != want_tier:
            verdict.add("failed", f"pixel {index}: bs {got} tier {tier}, expected {sorted(expect)}")
            return
    verdict.add("ok")


def _passing_estimates(cmd: Command, text: str) -> list[tuple[str, int, int, float]]:
    """(group, covered, trials, reference) of each Monte Carlo estimate in
    the output that passes its own check."""
    report = json.loads(text)
    if cmd.kind == "simulate":
        ref = cmd.refs[_MODE_REF[cmd.check["load"]]]
        if report.get("trials") == cmd.trials and _mc_ok(
                report["mean"], report["stderr"], cmd.trials, ref):
            return [(cmd.check["load"], round(report["mean"] * cmd.trials), cmd.trials, ref)]
    elif cmd.kind == "system":
        ref = cmd.refs["value"]
        if report.get("trials") == cmd.trials and _system_ok(report["mean"], cmd.trials, ref):
            return [("system", round(report["mean"] * cmd.trials), cmd.trials, ref)]
    elif cmd.kind == "compare":
        trials = cmd.trials // 3
        found = []
        for row in report.get("rows", []):
            model = row.get("model")
            if model not in _MODE_REF or not row["converged"]:
                continue
            ref = cmd.refs[_MODE_REF[model]]
            if (_analytic_ok(row["analytic"], 0.0, 0.0, ref, cmd.check["epsilon"])
                    and _mc_ok(row["mc_mean"], row["mc_stderr"], trials, ref)):
                found.append((model, round(row["mc_mean"] * trials), trials, ref))
        return found
    return []


def pooled_check(commands: list[Command], outputs: list[str | None],
                 verdicts: list[Verdict]) -> list[str]:
    """Pooled test over one pass of Monte Carlo outputs (None where a
    command raised).  In every group that fails, each estimate that passed
    alone is moved from ok to failed in its command's verdict; returns one
    note per failing group."""
    groups: dict[str, list[tuple[int, int, int, float]]] = {}
    for index, (cmd, text) in enumerate(zip(commands, outputs)):
        if cmd.kind not in ("simulate", "compare", "system") or text is None:
            continue
        try:
            estimates = _passing_estimates(cmd, text)
        except (ValueError, KeyError, TypeError):
            continue  # already failed as unreadable
        for group, covered, trials, ref in estimates:
            groups.setdefault(group, []).append((index, covered, trials, ref))
    problems = []
    for group, items in groups.items():
        excess = abs(sum(covered - trials * ref for _, covered, trials, ref in items))
        if group == "system":
            excess = max(0.0, excess - SYSTEM_BAND * sum(trials for _, _, trials, _ in items))
        spread = math.sqrt(sum(trials * ref * (1.0 - ref) for _, _, trials, ref in items))
        z = excess / spread if spread > 0.0 else (math.inf if excess > 0.0 else 0.0)
        if z <= POOLED_Z:
            continue
        note = f"pooled {group}: |z| = {z:.2f} over {len(items)} estimates"
        problems.append(note)
        for index, *_ in items:
            verdicts[index].ok -= 1
            verdicts[index].add("failed", note)
    return problems


def classify(cmd: Command, code, exc, stdout: str, sample_seed: int = 0) -> Verdict:
    """Outcome counts for one command run (code is None when it raised)."""
    verdict = Verdict()
    if exc is not None:
        for _ in range(cmd.ops):
            verdict.add("failed", f"raised {type(exc).__name__}: {exc}")
        return verdict
    if code == 3 and cmd.kind == "sweep":
        for _ in range(cmd.ops):
            verdict.add("flagged")
        return verdict
    if code not in (0, 3):
        for _ in range(cmd.ops):
            verdict.add("failed", f"exit code {code}")
        return verdict
    try:
        if cmd.kind == "sweep":
            _check_sweep(cmd, stdout, verdict)
        elif cmd.kind == "simulate":
            _check_simulate(cmd, stdout, verdict)
        elif cmd.kind == "compare":
            _check_compare(cmd, stdout, verdict)
        elif cmd.kind == "system":
            _check_system(cmd, stdout, verdict)
        else:
            _check_raster(cmd, stdout, verdict, sample_seed)
    except (ValueError, KeyError, IndexError, TypeError, OSError) as err:
        # Output that cannot be parsed fails whatever the command still owed.
        missing = cmd.ops - verdict.ok - verdict.flagged - verdict.failed
        for _ in range(missing):
            verdict.add("failed", f"unreadable output: {type(err).__name__}: {err}")
    return verdict

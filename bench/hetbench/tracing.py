"""In-memory span tracing around hetcov's public functions.

The tracer replaces each traced function with a wrapper at every module that
imports it by name, so calls made inside the package are seen as well as
calls from the CLI.  Nothing in the package itself changes; uninstall()
puts the original functions back.

A span is (name, start_ns, end_ns, parent index, run id, outcome, detail):
parent is the index of the enclosing span (-1 at the top), run id numbers
the CLI command the span belongs to, outcome is None or the exception type
name, and detail holds the counts some layers need (terms used, trials,
stations, rows).  Spans stay in memory until write() at the end of the run.
"""

from __future__ import annotations

import csv
import importlib
import math
import time

import numpy as np
from hetcov.mcsim import default_window_radius

PACKAGE = "hetcov"

# Span name -> (defining module, modules that import the name).
SITES = {
    "specfun.gauss_2f1": ("specfun", "model", "analytic"),
    "model.hypergeometric_sum": ("model", "analytic"),
    "model.derived_constants": ("model", "analytic"),
    "model.activity_from_user_density": ("model", "cli"),
    "model.network_from_dict": ("model", "cli"),
    "analytic.coverage": ("analytic", "cli"),
    "analytic.full_load_coverage": ("analytic", "cli"),
    "analytic.coverage_idle_only": ("analytic", "cli"),
    "analytic.correction_trace": ("analytic", "cli"),
    "mcsim.estimate_coverage": ("mcsim", "cli"),
    "mcsim.estimate_coverage_system": ("mcsim", "cli"),
    "mcsim.draw_realization": ("mcsim", "cli"),
    "mcsim.coverage_region_raster": ("mcsim", "cli"),
    "mcsim.raster_to_csv": ("mcsim", "cli"),
    "mcsim.realization_to_csv": ("mcsim", "cli"),
}

# Windows holding more stations than this per trial count as "large" when
# the Monte Carlo rates are split by window size.
LARGE_WINDOW_STATIONS = 5000


def _window_stations(network, sim) -> float:
    """Expected stations per trial: total density times the window area,
    with the estimator's default radius when none is given."""
    radius = sim.window_radius or default_window_radius(network, sim.min_expected_points)
    return sum(t.density for t in network.tiers) * math.pi * radius**2


def _detail_coverage(args, kwargs, result):
    return {"terms": result.terms_used, "converged": result.converged,
            "access": len(args[0].access)}


def _detail_estimate(args, kwargs, result):
    sim = args[1]
    return {"trials": sim.trials, "stations": sim.trials * _window_stations(args[0], sim)}


def _detail_raster(args, kwargs, result):
    realization, resolution = args[0], args[1]
    mode = args[2] if len(args) > 2 else kwargs.get("mode", "full")
    stations = (int(np.count_nonzero(realization.active))
                if mode == "thinned-biased" else len(realization))
    return {"px_stations": resolution * resolution * stations}


DETAILS = {
    "analytic.coverage": _detail_coverage,
    "analytic.correction_trace": lambda a, k, r: {"terms": len(r)},
    "mcsim.estimate_coverage": _detail_estimate,
    "mcsim.estimate_coverage_system": lambda a, k, r: {"trials": a[3].trials},
    "mcsim.draw_realization": lambda a, k, r: {"stations": len(r)},
    "mcsim.coverage_region_raster": _detail_raster,
    "mcsim.raster_to_csv": lambda a, k, r: {"rows": int(a[1].size)},
    "mcsim.realization_to_csv": lambda a, k, r: {"rows": len(a[0])},
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.run_id = 0
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        detail_of = DETAILS.get(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            outcome = detail = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if detail_of is not None:
                    detail = detail_of(args, kwargs, result)
                return result
            except Exception as exc:
                outcome = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.run_id, outcome, detail)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for name, (home, *users) in SITES.items():
            func = name.split(".", 1)[1]
            original = getattr(importlib.import_module(f"{PACKAGE}.{home}"), func)
            wrapper = self.wrap(name, original)
            for mod_name in (home, *users):
                module = importlib.import_module(f"{PACKAGE}.{mod_name}")
                self._saved.append((module, func, getattr(module, func)))
                setattr(module, func, wrapper)

    def uninstall(self) -> None:
        for module, func, original in reversed(self._saved):
            setattr(module, func, original)
        self._saved.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            out = csv.writer(handle)
            out.writerow(["name", "start_ns", "end_ns", "parent", "run_id", "outcome"])
            for name, start, end, parent, run_id, outcome, _ in self.spans:
                out.writerow([name, start, end, parent, run_id, outcome or ""])


def rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0.0 else 0.0


def _seconds(span) -> float:
    return (span[2] - span[1]) * 1e-9


def layer_metrics(spans: list[tuple]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (value, unit) from a list of spans.

    A layer's self time is its spans' time minus the time of their direct
    child spans (the wrapped functions they called).
    """
    by_name: dict[str, list[tuple]] = {}
    child = [0.0] * len(spans)
    for span in spans:
        by_name.setdefault(span[0], []).append(span)
        if span[3] >= 0:
            child[span[3]] += _seconds(span)
    self_time: dict[str, float] = {}
    for span, inner in zip(spans, child):
        self_time[span[0]] = self_time.get(span[0], 0.0) + _seconds(span) - inner

    def of(name):
        return by_name.get(name, [])

    def calls(name):
        return (len(of(name)), "count")

    def busy(name):
        return sum(_seconds(s) for s in of(name))

    def total(name, key):
        return sum(s[6][key] for s in of(name) if s[6])

    def per_busy_second(name, key=None):
        work = len(of(name)) if key is None else total(name, key)
        return (rate(work, busy(name)), "1/s")

    coverage = of("analytic.coverage")
    returned = [s for s in coverage if s[5] is None]
    durations_us = [_seconds(s) * 1e6 for s in coverage] or [0.0]
    # 2F1 calls made inside coverage() calls that returned, per series term
    # and access tier: the work the vectorised kernel should remove.
    returned_ids = {i for i, s in enumerate(spans)
                    if s[0] == "analytic.coverage" and s[5] is None}
    inside = 0
    for span in of("specfun.gauss_2f1"):
        parent = span[3]
        while parent >= 0 and parent not in returned_ids:
            parent = spans[parent][3]
        inside += parent >= 0
    term_tiers = sum(s[6]["terms"] * s[6]["access"] for s in returned)

    windows: dict[str, list[tuple]] = {"small_window": [], "large_window": []}
    for s in of("mcsim.estimate_coverage"):
        if s[6]:
            large = s[6]["stations"] / s[6]["trials"] > LARGE_WINDOW_STATIONS
            windows["large_window" if large else "small_window"].append(s)

    def window_rate(group):
        return (rate(sum(s[6]["trials"] for s in group), sum(_seconds(s) for s in group)), "1/s")

    return {
        "specfun.gauss_2f1.calls": calls("specfun.gauss_2f1"),
        "specfun.gauss_2f1.busy_s": (busy("specfun.gauss_2f1"), "s"),
        "specfun.gauss_2f1.per_term": (rate(inside, term_tiers), "ratio"),
        "analytic.coverage.calls": calls("analytic.coverage"),
        "analytic.coverage.busy_s": (busy("analytic.coverage"), "s"),
        "analytic.coverage.self_s": (self_time.get("analytic.coverage", 0.0), "s"),
        "analytic.coverage.p50_us": (float(np.percentile(durations_us, 50)), "us"),
        "analytic.coverage.p99_us": (float(np.percentile(durations_us, 99)), "us"),
        "analytic.coverage.terms": (sum(s[6]["terms"] for s in returned), "count"),
        "analytic.coverage.unconverged": (
            sum(1 for s in returned if not s[6]["converged"]), "count"),
        "analytic.coverage.raised": (len(coverage) - len(returned), "count"),
        "analytic.correction_trace.calls": calls("analytic.correction_trace"),
        "analytic.correction_trace.terms_per_s": per_busy_second(
            "analytic.correction_trace", "terms"),
        "analytic.coverage_idle_only.calls": calls("analytic.coverage_idle_only"),
        "analytic.coverage_idle_only.calls_per_s": per_busy_second(
            "analytic.coverage_idle_only"),
        "model.hypergeometric_sum.calls": calls("model.hypergeometric_sum"),
        "model.hypergeometric_sum.self_s": (
            self_time.get("model.hypergeometric_sum", 0.0), "s"),
        "model.derived_constants.calls": calls("model.derived_constants"),
        "model.activity_from_user_density.calls": calls("model.activity_from_user_density"),
        "model.network_from_dict.busy_s": (busy("model.network_from_dict"), "s"),
        "cli.main.calls": calls("cli.main"),
        "cli.main.self_s": (self_time.get("cli.main", 0.0), "s"),
        "mcsim.estimate_coverage.calls": calls("mcsim.estimate_coverage"),
        "mcsim.estimate_coverage.trials": (total("mcsim.estimate_coverage", "trials"), "count"),
        "mcsim.estimate_coverage.stations_computed": (
            total("mcsim.estimate_coverage", "stations"), "count"),
        "mcsim.estimate_coverage.stations_per_s": per_busy_second(
            "mcsim.estimate_coverage", "stations"),
        "mcsim.estimate_coverage.small_window.trials_per_s": window_rate(
            windows["small_window"]),
        "mcsim.estimate_coverage.large_window.trials_per_s": window_rate(
            windows["large_window"]),
        "mcsim.estimate_coverage_system.trials": (
            total("mcsim.estimate_coverage_system", "trials"), "count"),
        "mcsim.estimate_coverage_system.trials_per_s": per_busy_second(
            "mcsim.estimate_coverage_system", "trials"),
        "mcsim.draw_realization.stations_per_s": per_busy_second(
            "mcsim.draw_realization", "stations"),
        "mcsim.coverage_region_raster.px_stations_per_s": per_busy_second(
            "mcsim.coverage_region_raster", "px_stations"),
        "mcsim.raster_to_csv.rows_per_s": per_busy_second("mcsim.raster_to_csv", "rows"),
        "mcsim.realization_to_csv.rows_per_s": per_busy_second(
            "mcsim.realization_to_csv", "rows"),
    }

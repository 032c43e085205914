"""Scenario runner for coverage computations, sweeps and simulations.

Loads a network from a scenario JSON file, evaluates the analytic series
and/or the Monte Carlo estimators, and emits figure-ready CSV or JSON.  All
dB-to-linear conversion happens here at the I/O boundary; internal math is
linear throughout.  Outputs are pure functions of (scenario bytes, flags,
seed) and byte-identical across reruns.

Exit codes: 0 success, 1 usage, 2 scenario/validation error, 3 series
non-convergence.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import math
import re
import sys
import warnings
from dataclasses import replace

import numpy as np

from .analytic import (
    correction_trace,
    coverage,
    coverage_batch,
    coverage_idle_only,
    full_load_coverage,
)
from .mcsim import (
    LOAD_MODES,
    PLACEMENTS,
    RASTER_MODES,
    SimConfig,
    _trial_rng,
    coverage_region_raster,
    default_window_radius,
    draw_realization,
    estimate_coverage,
    estimate_coverage_system,
    raster_to_csv,
    realization_to_csv,
)
from .model import (
    AssumptionWarning,
    ModelValidationError,
    Network,
    SeriesControl,
    activity_from_user_density,
    network_from_dict,
    validation_warnings,
)
from .specfun import SeriesConvergenceError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NONCONVERGENCE = 3

_TIER_TARGET = re.compile(r"^tier\[(\d+)\]\.(density|activity|power|target_sir_db)$")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise _UsageError(message)


def _checked(kind, accept, expected: str):
    """argparse type: a kind(text) inside the domain, else a usage error."""

    def parse(text: str):
        with contextlib.suppress(ValueError):
            value = kind(text)
            if accept(value):
                return value
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")

    return parse


_COUNT = _checked(int, lambda v: v >= 1, "an integer >= 1")
_SEED = _checked(int, lambda v: 0 <= v < 1 << 64, "an integer in [0, 2**64)")
_POSITIVE = _checked(float, lambda v: 0.0 < v < math.inf, "a positive number")
_NON_NEGATIVE = _checked(float, lambda v: 0.0 <= v < math.inf, "a non-negative number")


def _load_network(path: str) -> Network:
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ModelValidationError(f"cannot read scenario {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelValidationError(
            f"scenario {path!r} is not valid JSON: {exc.msg} "
            f"(line {exc.lineno}, column {exc.colno})"
        ) from exc
    return network_from_dict(doc)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _json_report(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _csv_text(metadata: list[tuple[str, object]], header: list[str], rows) -> str:
    lines = [f"# {key}={value}" for key, value in metadata]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def _quietly(series_fn, *args):
    """Series entry point without assumption warnings; reports list them."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AssumptionWarning)
        return series_fn(*args)


def _sim_config(args) -> SimConfig:
    return SimConfig(
        trials=args.trials,
        seed=args.seed,
        window_radius=args.radius,
        min_expected_points=args.min_points,
    )


def _parse_grid(spec: str) -> list[float]:
    """Explicit comma list, or start:stop:count[:log] for a generated grid."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) not in (3, 4) or (len(parts) == 4 and parts[3] != "log"):
            raise ModelValidationError(
                f"grid spec must be start:stop:count[:log], got {spec!r}"
            )
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1:
            raise ModelValidationError(f"grid count must be >= 1, got {count}")
        if len(parts) == 4:
            if start <= 0 or stop <= 0:
                raise ModelValidationError("log grids need positive endpoints")
            return [float(v) for v in np.geomspace(start, stop, count)]
        return [float(v) for v in np.linspace(start, stop, count)]
    try:
        values = [float(v) for v in spec.split(",") if v.strip()]
    except ValueError as exc:
        raise ModelValidationError(f"cannot parse sweep values {spec!r}") from exc
    if not values:
        raise ModelValidationError("sweep values must not be empty")
    return values


def _network_with(network: Network, target: str, value: float) -> Network:
    match = _TIER_TARGET.match(target)
    if match:
        index, field = int(match.group(1)), match.group(2)
        if not 1 <= index <= network.num_tiers:
            raise ModelValidationError(
                f"sweep target {target!r} addresses tier {index} of a "
                f"{network.num_tiers}-tier scenario"
            )
        tier = network.tiers[index - 1]
        if field == "target_sir_db":
            tier = replace(tier, target_sir=10.0 ** (value / 10.0))
        else:
            tier = replace(tier, **{field: value})
        tiers = list(network.tiers)
        tiers[index - 1] = tier
        return replace(network, tiers=tuple(tiers))
    if target == "target_sir_db":
        linear = 10.0 ** (value / 10.0)
        return replace(
            network,
            tiers=tuple(replace(t, target_sir=linear) for t in network.tiers),
        )
    raise ModelValidationError(f"unknown sweep target {target!r}")


def _cmd_coverage(args) -> int:
    network = _load_network(args.scenario)
    control = SeriesControl(epsilon=args.epsilon, max_terms=args.max_terms)
    result = _quietly(coverage, network, control)
    report = {
        "engine": "analytic",
        "access": "open" if network.is_open_access else "closed",
        "value": result.value,
        "lower": result.lower,
        "upper": result.upper,
        "terms_used": result.terms_used,
        "a_over_eta": result.a_over_eta,
        "converged": result.converged,
        "epsilon": args.epsilon,
        "max_terms": args.max_terms,
        "warnings": list(validation_warnings(network)),
    }
    _emit(_json_report(report), args.out)
    return EXIT_OK if result.converged else EXIT_NONCONVERGENCE


def _cmd_simulate(args) -> int:
    network = _load_network(args.scenario)
    sim = _sim_config(args)
    if args.load == "system":
        if args.resource_blocks is None or args.user_density is None:
            raise ModelValidationError(
                "system load simulation needs --user-density and --resource-blocks"
            )
        est = estimate_coverage_system(
            network, args.user_density, args.resource_blocks, sim
        )
        extra = {
            "tier_user_fraction": list(est.tier_user_fraction),
            "tier_mean_activity": list(est.tier_mean_activity),
            "user_density": args.user_density,
            "resource_blocks": args.resource_blocks,
        }
    else:
        est = estimate_coverage(network, sim, placement=args.placement, load=args.load)
        extra = {"placement": args.placement}
    report = {
        "engine": "mc",
        "load": args.load,
        "mean": est.mean,
        "stderr": est.stderr,
        "trials": est.trials,
        "seed": args.seed,
        "window_radius": est.window_radius,
        **extra,
    }
    _emit(_json_report(report), args.out)
    return EXIT_OK


def _cmd_compare(args) -> int:
    network = _load_network(args.scenario)
    control = SeriesControl(epsilon=args.epsilon, max_terms=args.max_terms)
    sim = _sim_config(args)
    analytic_ct = _quietly(coverage, network, control)
    analytic_fl = full_load_coverage(network)
    analytic_idle = coverage_idle_only(network, control)
    rows = []
    for label, load, result in (
        ("conditional-thinning", "conditional-thinning", analytic_ct),
        ("fully-loaded", "fully-loaded", analytic_fl),
        ("idle-only", "idle-only", analytic_idle),
    ):
        est = estimate_coverage(network, sim, load=load)
        delta = abs(result.value - est.mean)
        if est.stderr > 0.0:
            z = delta / est.stderr
        else:
            z = 0.0 if delta == 0.0 else math.inf
        rows.append(
            {
                "model": label,
                "analytic": result.value,
                "converged": result.converged,
                "mc_mean": est.mean,
                "mc_stderr": est.stderr,
                "z": z,
                "flagged": bool(z > 3.0),
            }
        )
    report = {
        "seed": args.seed,
        "trials": args.trials,
        "rows": rows,
        "any_flagged": any(r["flagged"] for r in rows),
        "warnings": list(validation_warnings(network)),
    }
    _emit(_json_report(report), args.out)
    return EXIT_OK if analytic_ct.converged else EXIT_NONCONVERGENCE


def _sweep_series_index(network, values, control):
    indices = [int(round(v)) for v in values]
    if any(i < 1 for i in indices):
        raise ModelValidationError("series_index values must be >= 1")
    trace = correction_trace(network, control, count=max(indices))
    header = ["m", "term", "partial_sum", "majorant"]
    rows = [
        (t.index, t.term, t.partial_sum, t.majorant)
        for t in trace
        if t.index in set(indices)
    ]
    return header, rows, []  # a trace has no convergence to report


def _sweep_points(network, target, values, args):
    """Turn the grid into sweep points.

    Returns the leading, analytic and Monte Carlo column names and, per grid
    value, the leading cells, the networks the analytic engine evaluates and
    the Monte Carlo estimates as (estimator, arguments before the
    SimConfig).  An access fraction has two networks per point: its
    closed-access and its open-access variant.
    """
    analytic = ["analytic_value", "analytic_lower", "analytic_upper"]
    mc = ["mc_mean", "mc_stderr"]
    points = []
    if target == "user_density":
        if args.resource_blocks is None:
            raise ModelValidationError(
                "user_density sweeps need --resource-blocks"
            )
        lead = ["user_density"]
        lead += [f"activity_{j}" for j in range(1, network.num_tiers + 1)]
        for lu in values:
            activities = activity_from_user_density(network, lu, args.resource_blocks)
            tiers = tuple(replace(t, activity=a) for t, a in zip(network.tiers, activities))
            loaded = replace(network, tiers=tiers)
            estimates = [(estimate_coverage_system, (network, lu, args.resource_blocks))]
            points.append(([lu, *activities], [loaded], estimates))
    elif target == "access_fraction":
        outside = [i for i in range(1, network.num_tiers + 1) if i not in network.access]
        if len(outside) != 1:
            raise ModelValidationError(
                "access_fraction sweeps need exactly one closed tier in the scenario"
            )
        closed_tier = network.tiers[outside[0] - 1]
        lead = ["f"]
        analytic = ["analytic_closed", "analytic_open", "gap"]
        mc = ["mc_closed_mean", "mc_closed_stderr", "mc_open_mean", "mc_open_stderr"]
        for f in values:
            if not 0.0 <= f < 1.0:
                raise ModelValidationError(
                    f"access fractions must lie in [0, 1), got {f}"
                )
            # The scenario's closed tier keeps its density; the open part of
            # the same class grows with the fraction to keep the closed
            # density fixed.
            open_tier = replace(
                closed_tier, density=closed_tier.density * f / (1.0 - f)
            )
            tiers = network.tiers + (open_tier,)
            variants = [
                Network(alpha=network.alpha, tiers=tiers, access=network.access | {len(tiers)}),
                Network(alpha=network.alpha, tiers=tiers, access=None),
            ]
            points.append(([f], variants, [(estimate_coverage, (n,)) for n in variants]))
    else:
        lead = [re.sub(r"[^0-9A-Za-z_]+", "_", target).strip("_")]
        for value in values:
            point = _network_with(network, target, value)
            points.append(([value], [point], [(estimate_coverage, (point,))]))
    return lead, analytic, mc, points


def _sweep_grid(network, target, values, control, args):
    """Every sweep target except series_index: all analytic points of the
    sweep go through the series kernel in one call, then the Monte Carlo
    engine runs once per estimate.  Also returns the grid values whose
    series did not converge."""
    lead, analytic, mc, points = _sweep_points(network, target, values, args)
    want_analytic = args.engine in ("analytic", "both")
    want_mc = args.engine in ("mc", "both")
    header = lead + (analytic if want_analytic else []) + (mc if want_mc else [])
    if want_analytic:
        networks = [n for _, variants, _ in points for n in variants]
        results = iter(_quietly(coverage_batch, networks, control))
    if want_mc:
        sim = _sim_config(args)
    rows, unconverged = [], []
    for cells, variants, estimates in points:
        row = list(cells)
        if want_analytic:
            found = [next(results) for _ in variants]
            if len(found) == 2:
                closed, opened = found
                row += [closed.value, opened.value, opened.value - closed.value]
            else:
                row += [found[0].value, found[0].lower, found[0].upper]
            if not all(r.converged for r in found):
                unconverged.append(cells[0])
        if want_mc:
            for estimator, inputs in estimates:
                est = estimator(*inputs, sim)
                row += [est.mean, est.stderr]
        rows.append(tuple(row))
    return header, rows, unconverged


def _cmd_sweep(args) -> int:
    network = _load_network(args.scenario)
    control = SeriesControl(epsilon=args.epsilon, max_terms=args.max_terms)
    values = _parse_grid(args.sweep_values)
    target = args.sweep_target
    if target == "series_index":
        header, rows, unconverged = _sweep_series_index(network, values, control)
    else:
        header, rows, unconverged = _sweep_grid(network, target, values, control, args)
    metadata = [
        ("target", target),
        ("engine", args.engine),
        ("seed", args.seed),
        ("trials", args.trials),
        ("epsilon", args.epsilon),
    ]
    _emit(_csv_text(metadata, header, rows), args.out)
    if unconverged:
        where = ", ".join(_cell(v) for v in unconverged)
        print(f"non-convergence: the series did not converge at {target} = {where}",
              file=sys.stderr)
        return EXIT_NONCONVERGENCE
    return EXIT_OK


def _cmd_raster(args) -> int:
    network = _load_network(args.scenario)
    radius = args.radius or default_window_radius(network, args.min_points)
    rng = _trial_rng(args.seed, 0)
    realization = draw_realization(network, radius, rng, placement=args.placement)
    grid = coverage_region_raster(realization, args.resolution, args.mode)
    buffer = io.StringIO()
    for key, value in (
        ("mode", args.mode),
        ("seed", args.seed),
        ("resolution", args.resolution),
        ("window_radius", radius),
    ):
        buffer.write(f"# {key}={value}\n")
    raster_to_csv(realization, grid, buffer)
    _emit(buffer.getvalue(), args.out)
    if args.dump_realization:
        with open(args.dump_realization, "w", encoding="utf-8", newline="") as handle:
            realization_to_csv(realization, handle)
    return EXIT_OK


def _add_series_flags(parser) -> None:
    parser.add_argument("--epsilon", type=_POSITIVE, default=1e-10,
                        help="series stopping tolerance (default 1e-10)")
    parser.add_argument("--max-terms", type=_COUNT, default=10_000,
                        help="series term cap (default 10000)")


def _add_sim_flags(parser, default_trials: int) -> None:
    parser.add_argument("--trials", type=_COUNT, default=default_trials,
                        help=f"Monte Carlo trials (default {default_trials})")
    parser.add_argument("--seed", type=_SEED, default=0,
                        help="simulation seed (default 0, announced in output)")
    parser.add_argument("--radius", type=_POSITIVE, default=None,
                        help="window radius (default derived from densities)")
    parser.add_argument("--min-points", type=_COUNT, default=500,
                        help="edge-effect guard for the derived radius")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and building it costs about as much as an analytic sweep."""
    parser = _Parser(
        prog="hetcov",
        description="Load-aware K-tier coverage: analytic series and Monte Carlo",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    cov = sub.add_parser("coverage", parents=[], help="analytic coverage of a scenario")
    cov.add_argument("--scenario", required=True, help="network scenario JSON")
    _add_series_flags(cov)
    cov.add_argument("--out", default=None, help="output path (default stdout)")
    cov.set_defaults(func=_cmd_coverage)

    sim = sub.add_parser("simulate", help="Monte Carlo coverage of a scenario")
    sim.add_argument("--scenario", required=True)
    _add_sim_flags(sim, default_trials=10_000)
    sim.add_argument("--placement", choices=PLACEMENTS, default="ppp")
    sim.add_argument("--load", choices=LOAD_MODES + ("system",),
                     default="conditional-thinning")
    sim.add_argument("--user-density", type=_NON_NEGATIVE, default=None,
                     help="user density for --load system")
    sim.add_argument("--resource-blocks", type=_COUNT, default=None,
                     help="resource blocks for --load system")
    sim.add_argument("--out", default=None)
    sim.set_defaults(func=_cmd_simulate)

    swp = sub.add_parser("sweep", help="parameter sweep to CSV")
    swp.add_argument("--scenario", required=True)
    swp.add_argument("--sweep-target", required=True,
                     help="tier[J].field, target_sir_db, user_density, "
                          "access_fraction or series_index")
    swp.add_argument("--sweep-values", required=True,
                     help="comma list or start:stop:count[:log]")
    swp.add_argument("--engine", choices=("analytic", "mc", "both"),
                     default="analytic")
    _add_series_flags(swp)
    _add_sim_flags(swp, default_trials=10_000)
    swp.add_argument("--resource-blocks", type=_COUNT, default=None)
    swp.add_argument("--out", default=None)
    swp.set_defaults(func=_cmd_sweep)

    cmp_ = sub.add_parser("compare", help="analytic vs Monte Carlo cross-check")
    cmp_.add_argument("--scenario", required=True)
    _add_series_flags(cmp_)
    _add_sim_flags(cmp_, default_trials=20_000)
    cmp_.add_argument("--out", default=None)
    cmp_.set_defaults(func=_cmd_compare)

    ras = sub.add_parser("raster", help="coverage-region raster to CSV")
    ras.add_argument("--scenario", required=True)
    ras.add_argument("--resolution", type=_COUNT, default=200)
    ras.add_argument("--mode", choices=RASTER_MODES, default="full")
    ras.add_argument("--placement", choices=PLACEMENTS, default="ppp")
    ras.add_argument("--seed", type=_SEED, default=0)
    ras.add_argument("--radius", type=_POSITIVE, default=None)
    ras.add_argument("--min-points", type=_COUNT, default=500)
    ras.add_argument("--dump-realization", default=None,
                     help="also write the sampled field as CSV")
    ras.add_argument("--out", default=None)
    ras.set_defaults(func=_cmd_raster)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except ModelValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SeriesConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

"""Scenario runner for coverage computations, sweeps and simulations.

Loads a network from a scenario JSON file, evaluates the analytic series
and/or the Monte Carlo estimators, and emits figure-ready CSV or JSON.  dB
inputs, in scenarios and sweep targets, become linear through one model
helper at the I/O boundary; internal math is linear throughout.  Outputs are
pure functions of (scenario bytes, flags, seed) and byte-identical across reruns.

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
from dataclasses import asdict

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
    _estimate_loads,
    _estimate_system,
    coverage_region_raster,
    default_window_radius,
    draw_realization,
    estimate_coverage,
    estimate_coverage_system,
    raster_to_csv,
    realization_to_csv,
)
from .model import (
    ModelValidationError,
    Network,
    SeriesControl,
    Tier,
    _db_to_linear,
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
# The most float64 values one numpy array holds; np.arange fails past it,
# or returns an empty array near 2**63.
_MAX_GRID_COUNT = np.iinfo(np.intp).max // np.dtype(float).itemsize


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # No flag starts with -<digit>, so -3:3:4 and -3,0,3 (negative dB
        # sweeps) are values, where argparse takes only plain numbers.
        self._negative_number_matcher = re.compile(r"^-\.?\d")

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
    except json.JSONDecodeError as exc:
        raise ModelValidationError(
            f"scenario {path!r} is not valid JSON: {exc.msg} "
            f"(line {exc.lineno}, column {exc.colno})"
        ) from exc
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError: a path with a NUL byte, or bytes that are not UTF-8;
        # RecursionError: JSON nested deeper than the decoder recurses
        raise ModelValidationError(f"cannot read scenario {path!r}: {exc}") from exc
    return network_from_dict(doc)


def _emit(text: str, out: str | None) -> None:
    """Write text to the path out, or to stdout without one."""
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write {out!r}: {exc.strerror or exc}") from exc
    except ValueError as exc:  # a path with a NUL byte
        raise _UsageError(f"cannot write {out!r}: {exc}") from exc


def _json_report(report: dict) -> str:
    """The report as standard JSON (RFC 8259), where a float that is not
    finite, such as the z of a zero-stderr estimate, reads null."""
    return json.dumps(_finite(report), indent=2, sort_keys=True) + "\n"


def _finite(value):
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return value


def _cell(value) -> str:
    return repr(value) if type(value) is float else str(value)


def _metadata(pairs: list[tuple[str, object]]) -> str:
    return "".join(f"# {key}={value}\n" for key, value in pairs)


def _csv_text(metadata: list[tuple[str, object]], header: list[str], rows) -> str:
    lines = [",".join(header)] + [",".join(map(_cell, row)) for row in rows]
    return _metadata(metadata) + "\n".join(lines) + "\n"


def _series_control(args) -> SeriesControl:
    return SeriesControl(epsilon=args.epsilon, max_terms=args.max_terms)


def _sim_config(args) -> SimConfig:
    return SimConfig(
        trials=args.trials,
        seed=args.seed,
        window_radius=args.radius,
        min_expected_points=args.min_points,
    )


def _linspace(start: float, stop: float, count: int) -> np.ndarray:
    """np.linspace(start, stop, count) for float endpoints, with numpy's
    arithmetic but not the generality that makes an 8-point np.linspace
    cost 6 us and np.geomspace 22 us on a 2-core x86 VM, against 2-3 us
    here: start + k step for step = (stop - start) / (count - 1), or
    start + (k / (count - 1)) (stop - start) when the step underflows to
    zero, and the last point stop."""
    div = count - 1
    delta = stop - start
    points = np.arange(0, count, dtype=float)
    if div > 0:
        step = delta / div
        if step == 0.0:
            points /= div
            points *= delta
        else:
            points *= step
    else:
        points *= delta
    points += start
    if div > 0:
        points[-1] = stop
    return points


def _geomspace(start: float, stop: float, count: int) -> np.ndarray:
    """np.geomspace(start, stop, count) for positive endpoints: 10 to the
    powers _linspace puts between log10(start) and log10(stop), with the
    endpoints exact, as numpy computes it."""
    points = np.power(10.0, _linspace(np.log10(start), np.log10(stop), count))
    points[0] = start
    if count > 1:
        points[-1] = stop
    return points


def _parse_grid(spec: str) -> list[float]:
    """Explicit comma list, or start:stop:count[:log] for a generated grid."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) not in (3, 4) or (len(parts) == 4 and parts[3] != "log"):
            raise ModelValidationError(
                f"grid spec must be start:stop:count[:log], got {spec!r}"
            )
        try:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ModelValidationError(f"cannot parse grid spec {spec!r}") from exc
        if count < 1:
            raise ModelValidationError(f"grid count must be >= 1, got {count}")
        if count > _MAX_GRID_COUNT:
            raise ModelValidationError(
                f"grid count must be at most {_MAX_GRID_COUNT}, got {count}")
        if len(parts) == 4 and (start <= 0 or stop <= 0):
            raise ModelValidationError("log grids need positive endpoints")
        # An infinite endpoint or step yields non-finite points, rejected below.
        with np.errstate(over="ignore", invalid="ignore"):
            space = _geomspace if len(parts) == 4 else _linspace
            values = space(start, stop, count).tolist()
    else:
        try:
            values = [float(v) for v in spec.split(",") if v.strip()]
        except ValueError as exc:
            raise ModelValidationError(f"cannot parse sweep values {spec!r}") from exc
        if not values:
            raise ModelValidationError("sweep values must not be empty")
    # float() takes nan, inf and overflowing literals such as 1e400.
    if not all(math.isfinite(v) for v in values):
        raise ModelValidationError(f"sweep values must be finite, got {spec!r}")
    return values


def _cmd_coverage(network, args) -> tuple[str, int, str]:
    result = coverage(network, _series_control(args))
    report = {
        "engine": "analytic",
        "access": "open" if network.is_open_access else "closed",
        **asdict(result),
        "epsilon": args.epsilon,
        "max_terms": args.max_terms,
        "warnings": list(validation_warnings(network)),
    }
    code = EXIT_OK if result.converged else EXIT_NONCONVERGENCE
    return _json_report(report), code, ""


def _cmd_simulate(network, args) -> tuple[str, int, str]:
    sim = _sim_config(args)
    if args.load == "system":
        if args.resource_blocks is None or args.user_density is None:
            raise ModelValidationError(
                "system load simulation needs --user-density and --resource-blocks"
            )
        if args.placement != "ppp":
            raise ModelValidationError("system load simulation needs --placement ppp")
        est = estimate_coverage_system(
            network, args.user_density, args.resource_blocks, sim
        )
        extra = {"user_density": args.user_density, "resource_blocks": args.resource_blocks}
    else:
        est = estimate_coverage(network, sim, placement=args.placement, load=args.load)
        extra = {"placement": args.placement}
    report = {"engine": "mc", "load": args.load, "seed": args.seed, **asdict(est), **extra}
    return _json_report(report), EXIT_OK, ""


def _cmd_compare(network, args) -> tuple[str, int, str]:
    control = _series_control(args)
    sim = _sim_config(args)
    analytic_ct = coverage(network, control)
    analytic = (analytic_ct, full_load_coverage(network), coverage_idle_only(network, control))
    estimates = _estimate_loads([network], sim, "ppp", LOAD_MODES)
    rows = []
    for load, result, est in zip(LOAD_MODES, analytic, estimates):
        delta = abs(result.value - est.mean)
        if est.stderr > 0.0:
            z = delta / est.stderr
        else:
            z = 0.0 if delta == 0.0 else math.inf
        rows.append(
            {
                "model": load,
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
    code = EXIT_OK if analytic_ct.converged else EXIT_NONCONVERGENCE
    return _json_report(report), code, ""


def _sweep_series_index(network, values, control):
    indices = {round(v) for v in values}
    if min(indices) < 1:
        raise ModelValidationError("series_index values must be >= 1")
    if max(indices) > control.max_terms:
        raise ModelValidationError(
            f"series_index values must not exceed --max-terms ({control.max_terms}), "
            f"got {max(indices)}"
        )
    trace = correction_trace(network, control, count=max(indices))
    header = ["m", "term", "partial_sum", "majorant"]
    rows = [(t.index, t.term, t.partial_sum, t.majorant) for t in trace if t.index in indices]
    # a trace fails only from its first overflowing term on, where no sum is finite
    return header, rows, [m for m, _, total, _ in rows if not math.isfinite(total)]


def _sweep_grid(network, target, values, control, args):
    """Every sweep target except series_index.  Each grid value gives its
    leading cells and the networks the engines evaluate: one network, or
    for an access fraction its closed-access and its open-access variant.
    Each point's tiers and networks come from their constructors, which
    check them as the scenario's were checked.  All analytic points of the
    sweep go through the series kernel in one call, and all Monte Carlo
    points through one _estimate_loads call, which lets networks of one
    field share a draw, or through one _estimate_system run, which serves
    every user density of the grid.  Also returns the grid values whose
    series did not converge."""
    want_analytic = args.engine in ("analytic", "both")
    want_mc = args.engine in ("mc", "both")
    analytic = ["analytic_value", "analytic_lower", "analytic_upper"]
    mc = ["mc_mean", "mc_stderr"]
    rows, networks = [], []
    if target == "user_density":
        if args.resource_blocks is None:
            raise ModelValidationError(
                "user_density sweeps need --resource-blocks"
            )
        lead = ["user_density"]
        lead += [f"activity_{j}" for j in range(1, network.num_tiers + 1)]
        for lu in values:
            activities = activity_from_user_density(network, lu, args.resource_blocks)
            rows.append([lu, *activities])
            # the system simulation draws its own activities from the users,
            # so only the analytic engine evaluates the loaded network
            if want_analytic:
                tiers = tuple(Tier(t.power, t.density, t.target_sir, a)
                              for t, a in zip(network.tiers, activities))
                networks.append([Network(network.alpha, tiers, network.access)])
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
            open_tier = Tier(
                closed_tier.power,
                closed_tier.density * f / (1.0 - f),
                closed_tier.target_sir,
                closed_tier.activity,
            )
            tiers = network.tiers + (open_tier,)
            rows.append([f])
            networks.append([
                Network(alpha=network.alpha, tiers=tiers, access=network.access | {len(tiers)}),
                Network(alpha=network.alpha, tiers=tiers, access=None),
            ])
    else:
        match = _TIER_TARGET.match(target)
        if match:
            index, field = int(match.group(1)), match.group(2)
            if not 1 <= index <= network.num_tiers:
                raise ModelValidationError(
                    f"sweep target {target!r} addresses tier {index} of a "
                    f"{network.num_tiers}-tier scenario"
                )
            indices = [index - 1]
        elif target == "target_sir_db":
            field, indices = target, range(network.num_tiers)
        else:
            raise ModelValidationError(f"unknown sweep target {target!r}")
        lead = [re.sub(r"[^0-9A-Za-z_]+", "_", target).strip("_")]
        # the swept field's position among Tier's fields
        slot = ("power", "density", "target_sir_db", "activity").index(field)
        for value in values:
            setting = _db_to_linear(value) if field == "target_sir_db" else value
            tiers = list(network.tiers)
            for i in indices:
                t = tiers[i]
                fields = [t.power, t.density, t.target_sir, t.activity]
                fields[slot] = setting
                tiers[i] = Tier(*fields)
            rows.append([value])
            networks.append([Network(network.alpha, tuple(tiers), network.access)])
    header = lead + (analytic if want_analytic else []) + (mc if want_mc else [])
    unconverged = []
    flat = [n for variants in networks for n in variants]
    if want_analytic:
        results = iter(coverage_batch(flat, control))
        for row, variants in zip(rows, networks):
            found = [next(results) for _ in variants]
            if target == "access_fraction":
                closed, opened = found
                row += [closed.value, opened.value, opened.value - closed.value]
            else:
                row += [found[0].value, found[0].lower, found[0].upper]
            if not all(r.converged for r in found):
                unconverged.append(row[0])
    if want_mc:
        sim = _sim_config(args)
        if target == "user_density":
            estimates = _estimate_system(network, values, args.resource_blocks, sim)
        else:
            estimates = _estimate_loads(flat, sim, "ppp", ["conditional-thinning"])
        cells = iter([v for est in estimates for v in (est.mean, est.stderr)])
        for row in rows:
            row += [next(cells) for _ in mc]
    return header, rows, unconverged


def _cmd_sweep(network, args) -> tuple[str, int, str]:
    control = _series_control(args)
    values = _parse_grid(args.sweep_values)
    target = args.sweep_target
    if target == "series_index":
        if args.engine != "analytic":
            raise ModelValidationError("series_index traces the analytic series; "
                                       f"--engine {args.engine} does not apply")
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
    text = _csv_text(metadata, header, rows)
    if unconverged:
        where = ", ".join(_cell(v) for v in unconverged)
        note = f"non-convergence: the series did not converge at {target} = {where}"
        return text, EXIT_NONCONVERGENCE, note
    return text, EXIT_OK, ""


def _cmd_raster(network, args) -> tuple[str, int, str]:
    radius = args.radius or default_window_radius(network, args.min_points)
    realization = draw_realization(network, radius, args.seed, placement=args.placement)
    grid = coverage_region_raster(realization, args.resolution, args.mode)
    if args.dump_realization:
        field = io.StringIO()
        realization_to_csv(realization, field)
        _emit(field.getvalue(), args.dump_realization)
    buffer = io.StringIO()
    buffer.write(_metadata([
        ("mode", args.mode),
        ("seed", args.seed),
        ("resolution", args.resolution),
        ("window_radius", radius),
    ]))
    raster_to_csv(realization, grid, buffer)
    return buffer.getvalue(), EXIT_OK, ""


def _add_series_flags(parser) -> None:
    default = SeriesControl()
    parser.add_argument("--epsilon", type=_POSITIVE, default=default.epsilon,
                        help=f"series stopping tolerance (default {default.epsilon})")
    parser.add_argument("--max-terms", type=_COUNT, default=default.max_terms,
                        help=f"series term cap (default {default.max_terms})")


def _add_sim_flags(parser, default_trials: int | None) -> None:
    """Simulation flags; without default_trials the command draws one field
    and takes no --trials."""
    if default_trials is not None:
        parser.add_argument("--trials", type=_COUNT, default=default_trials,
                            help=f"Monte Carlo trials (default {default_trials})")
    parser.add_argument("--seed", type=_SEED, default=0,
                        help="simulation seed (default 0, announced in output)")
    parser.add_argument("--radius", type=_POSITIVE, default=None,
                        help="window radius (default derived from densities)")
    default = SimConfig.min_expected_points
    parser.add_argument("--min-points", type=_COUNT, default=default,
                        help="expected stations of the sparsest tier in the "
                             "derived window: max(500, value), so a value "
                             f"below 500 changes nothing (default {default})")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and building it costs about as much as an analytic sweep.
    Its commands attribute maps each command name to the command's own
    parser, with which _parse_args reads the rest of an argv."""
    parser = _Parser(
        prog="hetcov",
        description="Load-aware K-tier coverage: analytic series and Monte Carlo",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    parser.commands = sub.choices
    io_flags = argparse.ArgumentParser(add_help=False)
    io_flags.add_argument("--scenario", required=True, help="network scenario JSON")
    io_flags.add_argument("--out", default=None, help="output path (default stdout)")

    cov = sub.add_parser("coverage", parents=[io_flags], help="analytic coverage of a scenario")
    _add_series_flags(cov)
    cov.set_defaults(func=_cmd_coverage)

    sim = sub.add_parser("simulate", parents=[io_flags], help="Monte Carlo coverage of a scenario")
    _add_sim_flags(sim, default_trials=10_000)
    sim.add_argument("--placement", choices=PLACEMENTS, default="ppp")
    sim.add_argument("--load", choices=LOAD_MODES + ("system",),
                     default="conditional-thinning")
    sim.add_argument("--user-density", type=_NON_NEGATIVE, default=None,
                     help="user density for --load system")
    sim.add_argument("--resource-blocks", type=_COUNT, default=None,
                     help="resource blocks for --load system")
    sim.set_defaults(func=_cmd_simulate)

    swp = sub.add_parser("sweep", parents=[io_flags], help="parameter sweep to CSV")
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
    swp.set_defaults(func=_cmd_sweep)

    cmp_ = sub.add_parser("compare", parents=[io_flags],
                          help="analytic vs Monte Carlo cross-check")
    _add_series_flags(cmp_)
    _add_sim_flags(cmp_, default_trials=20_000)
    cmp_.set_defaults(func=_cmd_compare)

    ras = sub.add_parser("raster", parents=[io_flags], help="coverage-region raster to CSV")
    ras.add_argument("--resolution", type=_COUNT, default=200)
    ras.add_argument("--mode", choices=RASTER_MODES, default="full")
    ras.add_argument("--placement", choices=PLACEMENTS, default="ppp")
    _add_sim_flags(ras, default_trials=None)
    ras.add_argument("--dump-realization", default=None,
                     help="also write the sampled field as CSV")
    ras.set_defaults(func=_cmd_raster)
    return parser


def _parse_args(argv) -> argparse.Namespace:
    """The namespace parse_args of the whole parser gives for argv, from
    one parse: an argv that starts with a command name goes to that
    command's parser alone, as the top-level parser would hand it on
    after scanning every token again.  No command, an unknown one and -h
    go to the top-level parser, so every message stays its own."""
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    return command.parse_args(argv[1:], argparse.Namespace(command=argv[0]))


def main(argv=None) -> int:
    """Run one command: the only place that reads the scenario, writes the
    report and turns errors into exit codes.  A command returns (text, exit
    code, note); a non-empty note goes to stderr once the text is written.
    Every warning, assumption flags included, goes to stderr after the text
    as one "warning: <message>" line, each distinct message once."""
    try:
        args = _parse_args(argv)
        if not hasattr(args, "func"):
            _build_parser().print_usage(sys.stderr)
            return EXIT_USAGE
        network = _load_network(args.scenario)
        with warnings.catch_warnings(record=True) as caught:
            # every user warning reaches stderr, whatever the caller's
            # filters; other categories keep them (a test suite may make a
            # RuntimeWarning an error)
            warnings.simplefilter("always", UserWarning)
            text, code, note = args.func(network, args)
        _emit(text, args.out)
        for message in dict.fromkeys(str(w.message) for w in caught):
            print(f"warning: {message}", file=sys.stderr)
        if note:
            print(note, file=sys.stderr)
        return code
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ModelValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SeriesConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except MemoryError as exc:
        print(f"usage error: out of memory: {exc or type(exc).__name__}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

"""Workload generators: scenarios and CLI commands made from a workload seed.

Each workload is a list of hetcov CLI invocations over scenario files the
generator writes.  Parameters are drawn stratified (one draw per equal slice
of each range, in shuffled order) from a fixed design that the workload seed
nudges (see _Draws): every seed covers the same regimes in the same
proportions and only the exact points differ, which keeps the benchmark's
figures steady from seed to seed.

The program receives only the generated scenario files and argument lists.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("sweep-loaded", "sweep-lowload", "monte-carlo")

SWEEP_ROWS = 8
EPSILON = 1e-10  # the CLI's default series tolerance, passed explicitly

# sweep-lowload: the user-density grid runs from effective load 0.9 down to
# the first point where either the effective load reaches LOWLOAD_FLOOR or
# the series' largest term reaches 10**LOWLOAD_PEAK_LOG10 (about 0.02 in
# activity at alpha = 4; the oracle's cost grows with the digits it needs).
LOWLOAD_FLOOR = 0.02
LOWLOAD_PEAK_LOG10 = 60.0


@dataclass
class Command:
    """One CLI invocation and what its output is checked against.

    ops counts the operations the command produces (sweep rows, Monte Carlo
    estimates, rasters); trials and pixels count the work inside them.
    """

    kind: str
    argv: list[str]
    scenario: str
    check: dict
    ops: int
    trials: int = 0
    pixels: int = 0
    refs: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    seed: int
    scenarios: dict[str, dict]
    commands: list[Command]


class _Draws:
    """Draws from a fixed design, nudged by the workload seed.

    The design generator is seeded by the workload name alone, so the
    structure (tier counts, targets, grid sizes, stratum order) and the
    bulk of every continuous parameter are the same for every seed.  Each
    uniform draw is then moved by up to +-NUDGE/2 of its range (reflected
    at the ends) with a second generator seeded by the workload seed.  A
    seed thus changes every input a little while the cost of the workload,
    which depends on where the inputs sit, stays nearly the same.
    """

    NUDGE = 0.1

    def __init__(self, name: str, seed: int):
        self.design = random.Random(f"{name}:design")
        self.jitter = random.Random(f"{name}:{seed}")
        self.randrange = self.design.randrange
        self.choice = self.design.choice
        self.sample = self.design.sample
        self.shuffle = self.design.shuffle

    def random(self) -> float:
        u = self.design.random() + self.NUDGE * (self.jitter.random() - 0.5)
        if u < 0.0:
            return -u
        return min(2.0 - u, math.nextafter(1.0, 0.0)) if u >= 1.0 else u

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def fixed(self) -> float:
        """A design draw without the nudge, for discrete structure."""
        return self.design.random()

    def seed_int(self) -> int:
        """A simulation seed that differs between workload seeds."""
        return self.jitter.randrange(1 << 31)


def _strata(rng: _Draws, n: int, fixed: bool = False) -> list[float]:
    """n points in [0, 1), one in each slice [i/n, (i+1)/n), shuffled;
    fixed=True takes them from the design without the seed's nudge."""
    draw = rng.fixed if fixed else rng.random
    values = [min((i + draw()) / n, math.nextafter(1.0, 0.0)) for i in range(n)]
    rng.shuffle(values)
    return values


def _span(u: float, lo: float, hi: float) -> float:
    return lo + (hi - lo) * u


def _tier(rng, activity) -> dict:
    return {
        "power": 10.0 ** rng.uniform(-2.0, 1.0),
        "density": 10.0 ** rng.uniform(-1.0, 1.0),
        "target_sir_db": rng.uniform(0.5, 10.0),
        "activity": activity,
    }


def _net(alpha: float, tiers: list[dict], access=None) -> dict:
    doc = {"alpha": alpha, "tiers": tiers}
    if access is not None:
        doc["access"] = list(access)
    return doc


def _fmt(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _sweep_argv(path, target, spec, extra=()):
    return [
        "sweep", "--scenario", path, "--sweep-target", target,
        "--sweep-values", spec, "--engine", "analytic",
        "--epsilon", repr(EPSILON), *extra,
    ]


def _grid(spec: str) -> list[float]:
    """The values the CLI's start:stop:count[:log] grammar produces."""
    parts = spec.split(":")
    start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    if len(parts) == 4:
        return [float(v) for v in np.geomspace(start, stop, count)]
    return [float(v) for v in np.linspace(start, stop, count)]


def _sweep_loaded(rng, scen) -> list[Command]:
    kinds = ("density", "power", "activity", "target_sir_db",
             "access_fraction", "series_index")
    per_kind = 8
    n = len(kinds) * per_kind
    u_alpha, u_k = _strata(rng, n), _strata(rng, n, fixed=True)
    commands = []
    for i in range(n):
        kind = kinds[i % len(kinds)]
        alpha = _span(u_alpha[i], 2.8, 5.2)
        k = 1 + int(3 * u_k[i])
        if kind == "access_fraction":
            k = max(k, 2)
        # Three tiers are always drawn, so the design stream stays aligned.
        tiers = [_tier(rng, rng.uniform(0.3, 1.0)) for _ in range(3)][:k]
        access = None
        if kind == "access_fraction":
            closed = rng.randrange(1, k + 1)
            access = [j for j in range(1, k + 1) if j != closed]
        name = f"loaded-{i:02d}"
        path = scen(name, _net(alpha, tiers, access))
        check = {"epsilon": EPSILON}
        if kind == "access_fraction":
            values = sorted(rng.uniform(0.0, 0.9) for _ in range(SWEEP_ROWS))
            argv = _sweep_argv(path, "access_fraction", _fmt(values))
        elif kind == "series_index":
            values = sorted(rng.sample(range(1, 17), SWEEP_ROWS))
            argv = _sweep_argv(path, "series_index", ",".join(map(str, values)))
        else:
            j = rng.randrange(1, k + 1)
            target = f"tier[{j}].{kind}"
            if kind == "density":
                spec = f"{10 ** rng.uniform(-1.5, -0.5)!r}:{10 ** rng.uniform(0.5, 1.5)!r}:{SWEEP_ROWS}:log"
                values = _grid(spec)
            elif kind == "power":
                spec = f"{10 ** rng.uniform(-3.0, -1.5)!r}:{10 ** rng.uniform(0.5, 1.5)!r}:{SWEEP_ROWS}:log"
                values = _grid(spec)
            elif kind == "activity":
                spec = f"{rng.uniform(0.3, 0.45)!r}:{rng.uniform(0.85, 1.0)!r}:{SWEEP_ROWS}"
                values = _grid(spec)
            else:
                values = sorted(rng.uniform(0.5, 10.0) for _ in range(SWEEP_ROWS))
                spec = _fmt(values)
            argv = _sweep_argv(path, target, spec)
            check["tier"] = j
            check["field"] = kind
        check["target"] = argv[4]
        check["values"] = values
        commands.append(Command("sweep", argv, name, check, ops=len(values)))
    return commands


def log10_peak(ratio: float, delta: float) -> float:
    """log10 of the largest ratio^m / Gamma(1 + delta m) over m >= 1.

    The log of the envelope is concave in m, so the peak is where its
    forward difference changes sign; found by doubling and bisection.
    Peaks past index 2**40 are reported as infinite.
    """
    if ratio <= 0.0:
        return -math.inf
    log_ratio = math.log(ratio)

    def log_env(m):
        return m * log_ratio - math.lgamma(1.0 + delta * m)

    def rising(m):
        return log_env(m + 1) > log_env(m)

    lo, hi = 1, 2
    if not rising(lo):
        return log_env(lo) / math.log(10.0)
    while rising(hi):
        lo, hi = hi, 2 * hi
        if hi > 2**40:
            return math.inf
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if rising(mid):
            lo = mid
        else:
            hi = mid
    return log_env(hi) / math.log(10.0)


def _plan_ratio(doc: dict, user_density: float, blocks: int) -> tuple[float, float, float]:
    """(effective load, series ratio r, log10 peak term) at one user density,
    in plain floats; used only to place the grid."""
    alpha = doc["alpha"]
    delta = 2.0 / alpha
    tiers = doc["tiers"]
    beta = [10.0 ** (t["target_sir_db"] / 10.0) for t in tiers]
    shares = [(t["power"] / b) ** delta for t, b in zip(tiers, beta)]
    denom = sum(t["density"] * s for t, s in zip(tiers, shares))
    acts = [min(1.0, user_density / blocks * s / denom) for s in shares]
    weights = [t["density"] * t["power"] ** delta for t in tiers]
    active = sum(a * w for a, w in zip(acts, weights))
    c_alpha = 2.0 * math.pi**2 / (alpha * math.sin(2.0 * math.pi / alpha))
    idle = math.pi * math.gamma(1.0 + delta) * sum(
        (1.0 - a) * w * b**-delta for a, w, b in zip(acts, weights, beta)
    )
    ratio = idle / (c_alpha * active)
    return active / sum(weights), ratio, log10_peak(ratio, delta)


def _density_for(doc, blocks, predicate) -> float:
    """Smallest user density in [1e-9, 1e9] (log bisection) at which
    predicate holds; the predicate must be monotone (false below, true
    above)."""
    lo, hi = 1e-9, 1e9
    for _ in range(80):
        mid = math.sqrt(lo * hi)
        if predicate(_plan_ratio(doc, mid, blocks)):
            hi = mid
        else:
            lo = mid
    return hi


def _sweep_lowload(rng, scen) -> list[Command]:
    n = 16
    u_alpha, u_k = _strata(rng, n), _strata(rng, n, fixed=True)
    commands = []
    for i in range(n):
        alpha = _span(u_alpha[i], 2.8, 5.0)
        k = 1 + int(3 * u_k[i])
        tiers = [_tier(rng, 1.0) for _ in range(3)][:k]
        doc = _net(alpha, tiers)
        blocks = rng.choice((10, 20, 50, 100))
        high = _density_for(doc, blocks, lambda p: p[0] >= 0.9)
        low = _density_for(
            doc, blocks,
            lambda p: p[0] >= LOWLOAD_FLOOR and p[2] <= LOWLOAD_PEAK_LOG10,
        )
        # Log-spaced from the floor up to high load; the interior points sit
        # in the lower half of their slices, at a place the draws decide.
        span = math.log(high / low)
        values = sorted(
            low * math.exp(span * min(1.0, (j + 0.5 * rng.random()) / (SWEEP_ROWS - 1)))
            for j in range(SWEEP_ROWS)
        )
        values[0], values[-1] = low, high
        name = f"lowload-{i:02d}"
        path = scen(name, doc)
        argv = _sweep_argv(
            path, "user_density", _fmt(values),
            ("--resource-blocks", str(blocks)),
        )
        check = {"epsilon": EPSILON, "target": "user_density",
                 "values": values, "blocks": blocks}
        commands.append(Command("sweep", argv, name, check, ops=len(values)))
    return commands


# monte-carlo: per-command trial counts, chosen so that every command takes
# about 0.2 s on the 2-core reference machine and a run completes 100+ commands,
# which keeps the latency percentiles inside one population.
MC_TRIALS = {"small-window": 700, "large-window": 120}
COMPARE_TRIALS = {"small-window": 250, "large-window": 40}
SYSTEM_TRIALS = 120
SYSTEM_RADIUS = 6.0
RASTER_RESOLUTION = 100
LOAD_MODES = ("conditional-thinning", "fully-loaded", "idle-only")
RASTER_MODES = ("full", "thinned-regions", "thinned-biased")


def _mc_net(rng, window: str) -> dict:
    """Two-tier macro/small-cell net of fixed Monte Carlo size.

    The estimator's window holds 500 expected stations of the sparsest
    active tier, so a trial draws 500 * sum(density) / min(activity *
    density) stations: 1875 for the loaded small-window net (macro activity
    0.8) and 15000 for the large-window net (macro activity 0.2, dense
    small cells).  Only parameters that leave that count unchanged vary.
    The large-window net stays at macro activity 0.2: at 0.1 the seed's
    series already misses its 1e-10 tolerance (ROADMAP item 1), which
    sweep-lowload measures; this workload measures the simulator.
    """
    alpha = rng.uniform(3.5, 4.2)
    db = rng.uniform(1.0, 5.0)
    small_power = 10 ** rng.uniform(-2.2, -1.8)
    if window == "small-window":
        macro = (1.0, 1.0, 0.8)
        small = (small_power, 2.0, rng.uniform(0.5, 0.7))
    else:
        macro = (1.0, 1.0, 0.2)
        small = (small_power, 5.0, rng.uniform(0.3, 0.5))
    tiers = [
        {"power": p, "density": lam, "target_sir_db": db, "activity": act}
        for p, lam, act in (macro, small)
    ]
    return _net(alpha, tiers)


def _monte_carlo(rng, scen, workdir) -> list[Command]:
    commands = []
    for window in ("small-window", "large-window"):
        for copy in range(2):
            name = f"mc-{window}-{copy}"
            path = scen(name, _mc_net(rng, window))
            for mode in LOAD_MODES:
                trials = MC_TRIALS[window]
                argv = ["simulate", "--scenario", path, "--trials", str(trials),
                        "--seed", str(rng.seed_int()), "--load", mode]
                commands.append(Command(
                    "simulate", argv, name, {"load": mode, "window": window},
                    ops=1, trials=trials))
            trials = COMPARE_TRIALS[window]
            argv = ["compare", "--scenario", path, "--trials", str(trials),
                    "--seed", str(rng.seed_int()), "--epsilon", repr(EPSILON)]
            commands.append(Command(
                "compare", argv, name, {"window": window, "epsilon": EPSILON},
                ops=3, trials=3 * trials))
    for copy in range(2):
        # The detailed load simulation against the series calibrated with
        # activity_from_user_density (acceptance criterion c10's setting,
        # with targets above 0 dB where the series is exact).
        db = rng.uniform(1.0, 4.0)
        doc = _net(rng.uniform(3.5, 4.2), [
            {"power": 1.0, "density": 1.0, "target_sir_db": db, "activity": 0.5},
            {"power": 10 ** rng.uniform(-1.5, -0.5), "density": 1.0,
             "target_sir_db": db, "activity": 0.5},
        ])
        name = f"mc-system-{copy}"
        path = scen(name, doc)
        user_density, blocks = rng.uniform(5.5, 6.5), 20
        argv = ["simulate", "--scenario", path, "--load", "system",
                "--user-density", repr(user_density), "--resource-blocks", str(blocks),
                "--trials", str(SYSTEM_TRIALS), "--seed", str(rng.seed_int()),
                "--radius", repr(SYSTEM_RADIUS)]
        commands.append(Command(
            "system", argv, name,
            {"user_density": user_density, "blocks": blocks},
            ops=1, trials=SYSTEM_TRIALS))
    for copy, mode in enumerate(rng.sample(RASTER_MODES, 2)):
        name = f"mc-raster-{copy}"
        path = scen(name, _mc_net(rng, "small-window"))
        field_path = os.path.join(workdir, f"field-{copy}.csv")
        argv = ["raster", "--scenario", path, "--resolution", str(RASTER_RESOLUTION),
                "--mode", mode, "--seed", str(rng.seed_int()),
                "--dump-realization", field_path]
        commands.append(Command(
            "raster", argv, name,
            {"mode": mode, "field": field_path, "resolution": RASTER_RESOLUTION},
            ops=1, pixels=RASTER_RESOLUTION**2))
    return commands


def generate(name: str, seed: int, workdir: str) -> Workload:
    """Build a workload from its seed and write its scenario files to
    workdir.  The same (name, seed) always gives the same files and argv."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    rng = _Draws(name, seed)
    os.makedirs(workdir, exist_ok=True)
    scenarios: dict[str, dict] = {}

    def scen(key: str, doc: dict) -> str:
        scenarios[key] = doc
        path = os.path.join(workdir, f"{key}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, sort_keys=True)
        return path

    if name == "sweep-loaded":
        commands = _sweep_loaded(rng, scen)
    elif name == "sweep-lowload":
        commands = _sweep_lowload(rng, scen)
    else:
        commands = _monte_carlo(rng, scen, workdir)
    return Workload(name, seed, scenarios, commands)

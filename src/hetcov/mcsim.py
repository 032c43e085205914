"""Independent Monte Carlo oracle for the load-aware coverage model.

Provides the point-field samplers, the conditional-thinning coverage
estimator, the detailed per-BS load simulation and the coverage-region
rasteriser.  Estimators draw all randomness from counter-based streams.
By the thinning theorem a tier's active and idle stations are independent
Poisson fields of densities p * density and (1 - p) * density, so the
coverage estimator draws them as two streams, keyed on (seed, block, tier,
stream) for each tier of each block of _BLOCK_TRIALS trials.  A run draws
the active streams, and the idle streams of the accessible tiers only for
a load with idle candidates.  An idle station never interferes and counts
only through the largest idle signal of its tier, so an idle stream stops
where no further station can raise that signal (the fade is bounded,
_FADE_MAX), and a run reports its stations per trial as their expectation.
The system simulation draws block streams too, its users as arrivals in
density (estimate_coverage_system), and draw_realization renders trial 0
of its field (_station_field).  One driver (_count_covered) runs the
blocks, binding their streams to the seed and the block and keeping every
trial's state, the largest signal per kind and tier, and an estimator only
says what one block holds.  The targets, the access set and the load rule
enter only after the blocks, in the decision step (_binomial_estimate), so
one draw serves every load, target and access set of a field
(_estimate_loads).  Each (slots, trials) array is reduced over the slot
axis, so the width sets how many trials each numpy call serves
(_BLOCK_TRIALS).  A result follows the seed and _BLOCK_TRIALS, not the
chunking or the trial count: a run of n trials is a prefix of any longer
run with the same seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import groupby
from numbers import Integral

import numpy as np

from .model import ModelValidationError, Network, _warn

__all__ = [
    "SimConfig",
    "Estimate",
    "SystemEstimate",
    "Realization",
    "default_window_radius",
    "sample_ppp",
    "sample_hex_grid",
    "draw_realization",
    "estimate_coverage",
    "estimate_coverage_system",
    "coverage_region_raster",
    "realization_to_csv",
    "raster_to_csv",
]

PLACEMENTS = ("ppp", "hex-first-tier")
LOAD_MODES = ("conditional-thinning", "fully-loaded", "idle-only")
RASTER_MODES = ("full", "thinned-regions", "thinned-biased")

# Stations per drawn chunk of a block, so at most 256 slots of 64 columns:
# a stream reuses its chunk buffers, and larger chunks fall out of cache
# (32,768 and 65,536 ran slower at 64 and 128 columns on a 2-core host),
# smaller ones add numpy calls.
_POINT_BUDGET = 16_384
# Trials per keyed generator, and the columns of every (slots, trials)
# array: numpy reduces over the slot axis with one inner loop per slot row,
# as long as a row is, so a wider block pays that loop's overhead on more
# trials (max, sum and any cost 2-4x less per element at 64 columns than at
# 16) and builds fewer generators.  128 ran level with 64; 256 was slower on
# the 120-trial runs, whose blocks it fills half.  Blocks run one after
# another: a block makes some thirty short numpy calls per chunk, between
# which numpy holds the interpreter lock.  On a 2-core host two threads
# gained 1.6x on the 15,000-station window only while the other core was
# idle; beside one busy process the benchmark ran slower on two threads
# than on one, and its command times followed the neighbour's load.
_BLOCK_TRIALS = 64
# Rows per step of an idle stream, which stops at its cutoff (_poisson_tier).
_IDLE_STEP = 32
# A fade is -log1p(-u) of a uniform u <= 1 - 2^-53, so at most 53 ln 2; the
# margin covers the rounding of the signals compared against it.
_FADE_MAX = -math.log1p(-math.nextafter(1.0, 0.0)) * (1.0 + 1e-9)
_UINT64_MASK = (1 << 64) - 1
# Most expected points (stations, and users in the system simulation) a
# trial's window, or one call of a public sampler, may hold: ~4 GB where
# each station's position is stored.
_MAX_WINDOW_POINTS = 1e8


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo run settings.

    Leaving window_radius unset derives the radius from the network so that
    the sparsest actively transmitting tier still places at least
    max(500, min_expected_points) stations in the disc; the path-loss
    exponent above 2 then keeps the untruncated far-field interference below
    the Monte Carlo noise.
    """

    trials: int
    seed: int = 0
    window_radius: float | None = None
    min_expected_points: int = 500

    def __post_init__(self) -> None:
        # numpy draws with integer counts and seeds; Integral admits numpy's
        for name in ("trials", "min_expected_points"):
            value = getattr(self, name)
            if not (isinstance(value, Integral) and value >= 1):
                raise ValueError(f"{name} must be an integer >= 1, got {value}")
        if not (isinstance(self.seed, Integral) and 0 <= self.seed <= _UINT64_MASK):
            raise ValueError(f"seed must be an integer that fits in 64 bits, got {self.seed}")
        if self.window_radius is not None and not self.window_radius > 0.0:
            raise ValueError(
                f"window_radius must be positive, got {self.window_radius}"
            )


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo mean with its binomial standard error, the radius of the
    window the trials were sampled on, the number of trials that held no
    candidate station, the expected stations per trial of the streams the
    load reads (pi R^2 times their summed densities, not a sample mean),
    and the mean interference from outside the window as a fraction of the
    median per-trial interference sampled inside it.  Every estimator
    returns one, the system simulation as a SystemEstimate."""

    mean: float
    stderr: float
    trials: int
    window_radius: float
    empty_trials: int
    mean_stations_per_trial: float
    truncated_interference_bound: float


@dataclass(frozen=True)
class SystemEstimate(Estimate):
    """An Estimate from the detailed load simulation, plus the per-tier
    load diagnostics gathered on the way.

    tier_user_fraction is measured on users in the inner half of the window,
    where association is unaffected by the window edge.  The
    truncated_interference_bound takes its activities from
    tier_mean_activity.
    """

    tier_user_fraction: tuple[float, ...]
    tier_user_fraction_stderr: tuple[float, ...]
    tier_mean_activity: tuple[float, ...]


@dataclass(frozen=True, eq=False)
class Realization:
    """One marked base-station field (draw_realization): an (n, 2) array of
    positions, 1-based tiers, and each station's activity, unit-mean
    exponential fade and relative transmit power, with the path-loss
    exponent, so that the field renders standalone."""

    positions: np.ndarray
    tiers: np.ndarray
    active: np.ndarray
    fading: np.ndarray
    powers: np.ndarray
    radius: float
    alpha: float

    def __len__(self) -> int:
        return len(self.tiers)


def _block_rng(seed: int, block: int, tier: int, stream: int) -> np.random.Generator:
    """Counter-based stream for one stream (0 active, 1 idle) of one tier of
    one block of _BLOCK_TRIALS trials; the system simulation keys its
    streams 0-3 on tier K, one past the last (estimate_coverage_system)."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([seed, block, tier, stream]))
    )


def _truncation_bound(
    network: Network, activities, radius: float, interference: np.ndarray
) -> float:
    """Mean interference from outside the window, sum_i p_i lambda_i P_i *
    2 pi R^(2 - alpha) / (alpha - 2) with unit-mean fading, over the median
    of the per-trial interference sampled inside it (inf when that median
    is 0, or when R^(2 - alpha) overflows).  The median, not the mean: under
    the singular path loss the in-window interference has no finite mean,
    so its sample mean would follow the rare trials with a station next to
    the centre."""
    alpha = network.alpha
    # float: the system simulation passes its activities as numpy values
    weight = float(sum(p * t.density * t.power for p, t in zip(activities, network.tiers)))
    try:
        outside = weight * (2.0 * math.pi * radius ** (2.0 - alpha) / (alpha - 2.0))
    except OverflowError:
        outside = math.inf if weight > 0.0 else 0.0
    median = float(np.median(interference))
    if median > 0.0:
        return outside / median
    return math.inf if outside > 0.0 else 0.0


def _binomial_estimate(
    network: Network, run, load: str, radius: float, bound: float, stations
) -> Estimate:
    """The decision step: one load's estimate from a run's per-trial state
    (_count_covered), the one place where targets, access and load enter.

    A load covers the centre user when a candidate it admits (see
    estimate_coverage) on an access tier clears its tier target, signal >=
    threshold * interference (delta if active, target_sir if idle), that is
    when the largest signal / threshold over those (kind, tier) rows reaches
    the interference, as dividing keeps the order; a trial without any such
    candidate counts as empty.  stations holds the expected [active, idle]
    stations per trial the run read; a load reads the active ones, plus the
    idle ones if it admits idle candidates.  Warns when more than 0.1% of
    the trials held no candidate, unless the load has no candidate density
    on the access tiers, so that no window can hold one."""
    interference, best, found = run
    trials = len(interference)
    admits = [load != "idle-only", load != "fully-loaded"]  # [active, idle]
    keep = np.outer(admits, [k + 1 in network.access for k in range(network.num_tiers)])
    thresholds = np.array([[t.delta for t in network.tiers],
                           [t.target_sir for t in network.tiers]])
    with np.errstate(over="ignore"):  # an inf ratio clears, as the exact one does
        largest = (best[keep] / thresholds[keep][:, None]).max(axis=0)
    hit = found[keep].any(axis=0)
    covered = int(np.count_nonzero(hit & (largest >= interference)))
    empty = trials - int(np.count_nonzero(hit))
    candidates = np.array([[t.activity * t.density for t in network.tiers],
                           [(1.0 - t.activity) * t.density for t in network.tiers]])
    if empty > 0.001 * trials and candidates[keep].sum() > 0.0:
        _warn(f"{empty} of {trials} trials had no candidate station "
              "in the window; enlarge the window or densities", UserWarning)
    mean = covered / trials
    stderr = math.sqrt(mean * (1.0 - mean) / trials)
    return Estimate(
        mean=mean,
        stderr=stderr,
        trials=trials,
        window_radius=radius,
        empty_trials=empty,
        mean_stations_per_trial=stations[0] + stations[1] * admits[1],
        truncated_interference_bound=bound,
    )


def _window_points(radius: float, densities, may_be_empty: bool = False) -> float:
    """Expected points pi R^2 sum(densities) of a disc, checked before
    anything is drawn: the one rule for every disc this module samples.  A
    disc needs a positive radius, non-negative densities, at most
    _MAX_WINDOW_POINTS expected points and, unless may_be_empty, some (a
    window whose area underflows holds none).  Total density 0 holds none
    whatever the radius (0 * inf is nan); radius * radius cannot raise
    where radius**2 can."""
    if not (radius > 0.0 and all(d >= 0.0 for d in densities)):
        raise ModelValidationError(
            f"a disc needs a positive radius and non-negative densities, "
            f"got radius {radius} and densities {list(densities)}")
    total = sum(densities)
    expected = total * math.pi * (radius * radius) if total > 0.0 else 0.0
    if not (expected > 0.0 or may_be_empty) or not expected <= _MAX_WINDOW_POINTS:
        raise ModelValidationError(
            f"a disc of radius {radius:.6g} holds {expected:.3g} expected points, "
            f"outside {'[' if may_be_empty else '('}0, {_MAX_WINDOW_POINTS:g}]")
    return expected


def _run_radius(sim: SimConfig, sizing, densities) -> float:
    """A run's window radius: sim.window_radius, or the disc placing
    max(500, sim.min_expected_points) expected points of the sparsest
    positive sizing density; checked for the densities drawn on it."""
    radius = float(sim.window_radius or _disc_radius(sizing, sim.min_expected_points))
    _window_points(radius, densities)
    return radius


def _disc_radius(densities, min_points: int) -> float:
    """Disc radius placing max(500, min_points) expected points of the
    sparsest positive density inside the window."""
    positive = [d for d in densities if d > 0.0]
    if not positive:
        raise ModelValidationError(
            f"a default window needs a positive density to size it, "
            f"got densities {list(densities)}")
    sparsest = min(positive)
    return math.sqrt(max(500, min_points) / (math.pi * sparsest))


def default_window_radius(network: Network, min_expected_points: int = 500) -> float:
    """Disc radius placing max(500, min_expected_points) expected stations of
    the sparsest actively transmitting tier inside the window."""
    return _disc_radius(
        [t.activity * t.density for t in network.tiers], min_expected_points
    )


def sample_ppp(density: float, radius: float, rng: np.random.Generator) -> np.ndarray:
    """Homogeneous Poisson field on the disc: Poisson count, uniform points."""
    n = rng.poisson(_window_points(radius, [density], may_be_empty=True))
    return _plane(radius * np.sqrt(rng.random(n)), 2.0 * math.pi * rng.random(n))


def _plane(radii, angles) -> np.ndarray:
    """Points at the given radii and angles as an (..., 2) array of x and
    y: x + iy = r e^(i angle), one complex exp for the cosine and sine."""
    z = np.exp(1j * angles)
    z *= radii
    return z[..., None].view(np.float64)


def _hex_sites(
    density: float, radius: float, shift: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Unrotated hexagonal lattice of the given density, translated by shift,
    an (..., 2) array of primitive-cell coordinates in [0, 1).

    Returns x and y of shape (..., sites) over the index pairs whose
    unshifted site lies within radius + 2 spacings of the origin: a shift
    moves a site by less than sqrt(3) spacings, so no other site can enter
    the disc.  Clipping to the disc is the caller's.
    """
    spacing = math.sqrt(2.0 / (math.sqrt(3.0) * density))
    # Primitive cell a1 = (s, 0), a2 = (s/2, s*sqrt(3)/2); index ranges must
    # cover the disc before any rotation, which preserves radii.
    row_height = spacing * math.sqrt(3.0) / 2.0
    k_max = int(math.ceil(radius / row_height)) + 2
    j_max = int(math.ceil(radius / spacing + k_max / 2.0)) + 2
    j, k = np.meshgrid(
        np.arange(-j_max, j_max + 1), np.arange(-k_max, k_max + 1), indexing="ij"
    )
    j, k = j.ravel(), k.ravel()
    near = np.hypot((j + 0.5 * k) * spacing, k * row_height) <= radius + 2.0 * spacing
    j, k = j[near], k[near]
    u1, u2 = shift[..., :1], shift[..., 1:]
    x = (j + u1 + 0.5 * (k + u2)) * spacing
    y = (k + u2) * row_height
    return x, y


def sample_hex_grid(
    density: float, radius: float, rng: np.random.Generator
) -> np.ndarray:
    """Hexagonal lattice sites with the requested density, clipped to the disc.

    The lattice receives a uniformly random translation inside one primitive
    cell and a uniformly random rotation, so the typical point at the origin
    sees translation-invariant statistics across draws.
    """
    _window_points(radius, [density], may_be_empty=True)
    if density == 0.0:
        raise ModelValidationError("a lattice needs a positive density, got 0")
    x, y = _hex_sites(density, radius, rng.random(2))
    angle = 2.0 * math.pi * rng.random()
    keep = x * x + y * y <= radius * radius
    x, y = x[keep], y[keep]
    cos_a, sin_a = math.cos(angle), math.sin(angle)
    return np.column_stack((cos_a * x - sin_a * y, sin_a * x + cos_a * y))


def draw_realization(
    network: Network, radius: float, rng: int | np.random.Generator, placement: str = "ppp"
) -> Realization:
    """Trial 0 of a run's marked base-station field on the disc: that of
    estimate_coverage_system with seed rng (or one drawn from a Generator)
    and this radius, nearest first (_station_field), a station being active
    when its activity mark lies below its tier's activity.  "hex-first-tier"
    puts first, in place of the field's first tier, the lattice and marks of
    trial 0 of estimate_coverage with that placement (_lattice_tier)."""
    if placement not in PLACEMENTS:
        raise ValueError(f"placement must be one of {PLACEMENTS}, got {placement!r}")
    densities = [t.density for t in network.tiers]
    _window_points(radius, densities)
    if isinstance(rng, np.random.Generator):
        rng = rng.integers(_UINT64_MASK, dtype=np.uint64, endpoint=True)
    stream = partial(_block_rng, SimConfig(trials=1, seed=int(rng)).seed, 0)
    _, fade, present, tier, positions, mark = _station_field(stream, densities, radius, 1)
    field = [positions, tier, fade, mark < np.array([t.activity for t in network.tiers])[tier]]
    if placement == "hex-first-tier" and densities[0] > 0.0:
        x, y, _, *marks, sites = _lattice_tier(stream(0, 0), network.tiers[0], radius, 1)
        present = np.concatenate((sites, present & (tier != 0)))
        lattice = [np.stack((x, y), axis=-1), np.zeros_like(tier, shape=sites.shape), *marks]
        field = [np.concatenate(pair) for pair in zip(lattice, field)]
    positions, tier, fading, active = (a[present] for a in field)
    powers = np.array([t.power for t in network.tiers])[tier]
    return Realization(positions, tier + 1, active, fading, powers, radius, network.alpha)


def _count_covered(network: Network, sim: SimConfig, block):
    """The per-trial state of a run laid out as columns: (interference,
    best, found), for any targets, candidate tiers or load: these enter
    only in the decision step (_binomial_estimate).

    The package's one loop over blocks: block b fills its slice of the
    run's columns with the chunks of block(stream, width), width being its
    trials and stream(k, s) the _block_rng stream keyed (sim.seed, b, k,
    s).  A chunk (tier, active, r2, fade, present) holds active or idle
    stations of the tier: slot j of column i of the (slots, width) arrays
    r2, fade and present holds a station in trial i of the block where
    present is set, and padding (finite, with r2 > 0) elsewhere.  Per
    trial of the run the reducer keeps the interference of the active
    stations and, at [kind, tier] of best and found (kind 0 active, 1 idle),
    the largest signal of the tier's stations of that kind and whether it
    had one.  A column's state depends on its block alone, and its
    interference is summed slot by slot in chunk order, so cutting a
    chunk's slots into more chunks changes no sum.
    """
    interference = np.zeros(sim.trials)
    best = np.zeros((2, network.num_tiers, sim.trials))  # [active, idle]
    found = np.zeros(best.shape, dtype=bool)
    for b, first in enumerate(range(0, sim.trials, _BLOCK_TRIALS)):
        columns = slice(first, min(first + _BLOCK_TRIALS, sim.trials))
        stream = partial(_block_rng, sim.seed, b)
        for k, active, r2, fade, present in block(stream, columns.stop - first):
            if not len(r2):
                continue
            signal = np.multiply(fade, network.tiers[k].power)
            signal *= r2 ** (-network.alpha / 2.0)
            signal *= present
            # signals are non-negative, so zeroing the slots without a
            # station leaves the largest signal
            kind = 0 if active else 1
            largest = best[kind, k, columns]
            np.maximum(largest, signal.max(axis=0), out=largest)
            found[kind, k, columns] |= present.any(axis=0)
            if active:
                # carrying the running sum in the first slot sums slot by slot;
                # add.reduce sums a lone column pairwise, so it is accumulated
                heard = interference[columns]
                signal[0] += heard
                if signal.shape[1] > 1:
                    np.add.reduce(signal, axis=0, out=heard)
                else:
                    heard[:] = np.cumsum(signal, axis=0)[-1]
    return interference, best, found


def _poisson_tier(
    rng: np.random.Generator, density: float, radius: float, trials: int,
    alpha: float | None = None,
):
    """Chunks (r2, fade, present) of a Poisson field of the given density
    for the first `trials` columns of a block, nearest station first.

    Slot j of trial i reads row (j, i) of the block's (slots,
    _BLOCK_TRIALS, 2) uniforms: an exponential gap of unit-rate arrivals
    whose running sum G gives r2 = G / (pi * density), and the fading.  A
    station is in the window while G <= pi * density * radius^2.  A row
    thus belongs to one (trial, rank) whatever the radius or the number of
    trials, and a larger window holds every station of a smaller one.  The
    chunks share their buffers, so a chunk holds until the next one is
    drawn.

    Without alpha (an active stream, read in full) rows are drawn in
    chunks of at most _POINT_BUDGET stations, about three standard
    deviations past the mean count, and on until every trial has left the
    window.

    With alpha (an idle stream, read only for its largest signal) rows are
    drawn in steps of _IDLE_STEP.  A fade is at most _FADE_MAX, so a
    station beyond r2 can beat a column's largest fade * r2^(-alpha/2) so
    far only while _FADE_MAX * r2^(-alpha/2) exceeds it; the stream stops
    after the first step whose last row leaves none of the `trials`
    columns such a chance inside the window.  The rows past that point
    cannot raise any column's largest signal, so where the stream stops
    decides nothing, and a partial block may stop before the full one.
    """
    mean = math.pi * density * radius * radius
    if alpha is None:
        margin = math.ceil(3.0 * math.sqrt(mean)) + 1
        most, target = max(1, _POINT_BUDGET // _BLOCK_TRIALS), math.ceil(mean) + margin
    else:
        margin = most = target = _IDLE_STEP
        largest = np.zeros(trials)
    drawn = 0
    size = min(most, target)  # no later chunk is larger than the first
    rows = np.empty((size, _BLOCK_TRIALS, 2))
    # row 0 carries the running sum of the previous chunk
    arrival = np.zeros((size + 1, trials))
    r2, fade = np.empty((size, trials)), np.empty((size, trials))
    present = np.empty((size, trials), dtype=bool)
    while True:
        count = min(most, target - drawn)
        uniforms = rng.random(out=rows[:count])[:, :trials]
        head, chunk = arrival[: count + 1], arrival[1 : count + 1]
        for out, column in ((chunk, 0), (fade[:count], 1)):  # -log(1 - u)
            np.negative(uniforms[:, :, column], out=out)
            np.log1p(out, out=out)
            np.negative(out, out=out)
        # the gaps become arrivals, carried on from the previous chunk
        np.cumsum(head, axis=0, out=head)
        np.divide(chunk, math.pi * density, out=r2[:count])
        np.less_equal(chunk, mean, out=present[:count])
        if alpha is None:
            done = not present[count - 1].any()
        else:
            decay = r2[:count] ** (-alpha / 2.0)
            gain = decay * fade[:count]
            gain *= present[:count]
            np.maximum(largest, gain.max(axis=0), out=largest)
            done = not (present[count - 1] & (_FADE_MAX * decay[-1] > largest)).any()
        yield r2[:count], fade[:count], present[:count]
        if done:
            return
        head[0] = head[count]
        drawn += count
        if drawn == target:
            target += margin


def _lattice_tier(rng: np.random.Generator, tier, radius: float, trials: int):
    """(x, y, r2, fade, active, present) of a hexagonal tier for the first
    `trials` columns of a block: the block draws _BLOCK_TRIALS lattice
    offsets, then one row of (fading, active) uniforms per site in the disc,
    trial by trial, so one generator serves the active and the idle
    sites."""
    x, y = _hex_sites(tier.density, radius, rng.random((_BLOCK_TRIALS, 2))[:trials])
    r2 = x * x + y * y
    present = r2 <= radius * radius
    rows = rng.random((np.count_nonzero(present), 2))
    fade = np.zeros(r2.shape)
    fade[present] = -np.log1p(-rows[:, 0])
    active = np.zeros(r2.shape, dtype=bool)
    active[present] = rows[:, 1] < tier.activity
    return tuple(np.ascontiguousarray(a.T) for a in (x, y, r2, fade, active, present))


def _station_field(stream, densities, radius: float, trials: int):
    """(r2, fade, present, tier, positions, mark) of the nearest-first field
    of all K tiers' stations in the first `trials` columns of a block:
    stream(K, 0) draws it at the summed density (_poisson_tier), stream(K,
    1) a row of (tier, angle, activity) uniforms per row, chunk by chunk as
    one draw fills them row-major, keeping only the run's columns."""
    K = len(densities)
    # a station's tier mark falls below these density shares; the last
    # bound is inf, so rounding never yields tier K
    bounds = np.append(np.cumsum(densities[:-1]) / sum(densities), math.inf)
    marks = stream(K, 1)
    # a chunk holds until the next one is drawn, so copy each
    r2, fade, present, uniforms = map(np.concatenate, zip(*(
        (*(a.copy() for a in chunk),
         marks.random((len(chunk[0]), _BLOCK_TRIALS, 3))[:, :trials].copy())
        for chunk in _poisson_tier(stream(K, 0), sum(densities), radius, trials)
    )))
    tier = np.searchsorted(bounds, uniforms[..., 0], side="right")
    positions = _plane(np.sqrt(r2), 2.0 * math.pi * uniforms[..., 1])
    return r2, fade, present, tier, positions, uniforms[..., 2]


def _estimate_loads(networks, sim: SimConfig, placement: str, loads) -> list[Estimate]:
    """estimate_coverage of each network under each load, network-major.
    No stream's key or content depends on a target, an access set or a
    load, so neighbouring networks of equal alpha and tier (power, density,
    activity) share one draw, with the idle streams of all their access
    tiers, and each Estimate equals estimate_coverage on its network and
    load alone."""
    with_idle = any(load != "fully-loaded" for load in loads)
    estimates = []
    for _, (network, *rest) in groupby(networks, lambda n: (
            n.alpha, [(t.power, t.density, t.activity) for t in n.tiers])):
        densities = [t.density for t in network.tiers]
        radius = _run_radius(sim, [t.activity * t.density for t in network.tiers], densities)
        access = network.access.union(*(n.access for n in rest))

        def block(stream, trials):
            for k, tier in enumerate(network.tiers):
                if not tier.density > 0.0:
                    continue
                idle = with_idle and k + 1 in access
                if placement == "hex-first-tier" and k == 0:
                    _, _, r2, fade, active, present = _lattice_tier(
                        stream(k, 0), tier, radius, trials)
                    yield k, True, r2, fade, present & active
                    if idle:
                        yield k, False, r2, fade, present & ~active
                    continue
                shares = [tier.activity, 1.0 - tier.activity] if idle else [tier.activity]
                for s, share in enumerate(shares):
                    if share > 0.0:
                        # an idle stream is read only for its largest signal
                        cutoff = network.alpha if s else None
                        for chunk in _poisson_tier(
                            stream(k, s), share * tier.density, radius, trials, cutoff
                        ):
                            yield (k, s == 0, *chunk)

        run = _count_covered(network, sim, block)
        bound = _truncation_bound(network, [t.activity for t in network.tiers], radius, run[0])
        # a lattice tier holds as many sites per trial on average as a Poisson one
        area = math.pi * radius * radius
        for n in (network, *rest):
            stations = [area * sum(t.activity * t.density for t in n.tiers),
                        area * sum((1.0 - t.activity) * t.density for _, t in n.access_tiers())]
            estimates += [_binomial_estimate(n, run, load, radius, bound, stations)
                          for load in loads]
    return estimates


def estimate_coverage(
    network: Network,
    sim: SimConfig,
    placement: str = "ppp",
    load: str = "conditional-thinning",
) -> Estimate:
    """Coverage probability of a typical user at the window centre.

    Per trial every tier's active and idle stations in the disc take part.
    The user is covered when any accessible candidate clears its tier
    target: an active candidate against the remaining active power, an idle
    candidate against the whole active field.  No single-candidate
    assumption is involved, so the estimator is a valid oracle for targets
    at and below 0 dB as well.

    load selects the candidate rule: "conditional-thinning" admits active
    and idle candidates (the load-aware model), "fully-loaded" drops the
    idle stations entirely (the thinned-density full-load baseline), and
    "idle-only" admits only idle candidates against the active field.

    Only the distances to the origin matter to the test, so stations never
    get positions.  The active and idle stations of a Poisson tier are
    independent Poisson fields of densities p * density and (1 - p) *
    density, and each (block, tier, stream) draws from its own generator,
    its stations in order of distance (_poisson_tier), so runs that differ
    only in the window radius share every station they both hold.  The
    idle stream is drawn only for an accessible tier under a load with idle
    candidates, and no key depends on the load or the access set, so the
    fully-loaded estimate never exceeds the conditional-thinning one with
    the same seed, nor closed access open access.  An idle stream stops at
    its exact cutoff, past which no station can change a decision.
    "hex-first-tier" draws its lattice with its marks (_lattice_tier).  A
    tier of zero density is empty in both placements.
    """
    if placement not in PLACEMENTS:
        raise ValueError(f"placement must be one of {PLACEMENTS}, got {placement!r}")
    if load not in LOAD_MODES:
        raise ValueError(f"load must be one of {LOAD_MODES}, got {load!r}")
    return _estimate_loads([network], sim, placement, [load])[0]


def estimate_coverage_system(
    network: Network,
    user_density: float,
    resource_blocks: int,
    sim: SimConfig,
) -> SystemEstimate:
    """Detailed load simulation with per-station activity from user counts.

    Users form their own Poisson field and associate to the station with the
    strongest fading-averaged power.  A station serving n users is active in
    the evaluated resource block with probability min(n / resource_blocks,
    1).  The typical user at the centre is then tested exactly as in
    estimate_coverage, with per-station activity probabilities.  Activity
    factors are an outcome here, not an input, so the default window is
    sized from the raw station densities.

    A block reads four streams stream(K, s) for K tiers (_count_covered
    binds seed and block): s = 0 is one nearest-first field of all stations
    and s = 1 its rows' (tier, angle, activity) uniforms (_station_field;
    draw_realization renders trial 0), s = 2 the users' arrivals and s = 3
    their positions.  A trial's stations and users are prefixes of its
    column, so a run of n trials is a prefix of any longer run, and results
    follow _BLOCK_TRIALS, as estimate_coverage's do.  The users of density
    lambda_u are the rows whose unit-rate arrival is at most pi lambda_u
    R^2, so those of a smaller density are a prefix of those of a larger
    one: the active stations nest in lambda_u, and on one seed coverage
    never rises with it.
    """
    if not (isinstance(resource_blocks, Integral) and resource_blocks >= 1):
        raise ValueError(f"resource_blocks must be an integer >= 1, got {resource_blocks}")
    densities = [t.density for t in network.tiers]
    radius = _run_radius(sim, densities, [user_density, *densities])
    K = network.num_tiers
    rank = np.array([t.power for t in network.tiers]) ** (2.0 / network.alpha)
    # the tier shares of the inner users of each trial that has some
    shares = []
    activity_sums, station_counts = np.zeros((2, K))

    def block(stream, trials):
        r2, fade, present, tier, positions, mark = _station_field(
            stream, densities, radius, trials)
        users = np.zeros(trials, dtype=np.int64)
        if user_density > 0.0:
            for chunk in _poisson_tier(stream(K, 2), user_density, radius, trials):
                users += np.count_nonzero(chunk[2], axis=0)
            places = stream(K, 3).random((users.max(), _BLOCK_TRIALS, 2))
        # Without stations nobody is served and the trial counts as not
        # covered; without users every station stays idle.
        activity = np.zeros(r2.shape)
        for i, (n, m) in enumerate(zip(np.count_nonzero(present, axis=0), users)):
            if not (n and m):
                continue
            u = places[:m, i, 0]
            points = _plane(radius * np.sqrt(u), 2.0 * math.pi * places[:m, i, 1])
            chosen = _serving_station(points, positions[:n, i], rank[tier[:n, i]])
            served = np.bincount(chosen, minlength=n)
            activity[:n, i] = np.minimum(served / resource_blocks, 1.0)
            inner = chosen[u <= 0.25]  # within R / 2 of the centre
            if len(inner):
                shares.append(np.bincount(tier[inner, i], minlength=K) / len(inner))
        active = mark < activity
        for k in range(K):
            mine = present & (tier == k)
            station_counts[k] += np.count_nonzero(mine)
            activity_sums[k] += np.sum(activity, where=mine)
            yield k, True, r2, fade, mine & active
            if k + 1 in network.access:
                yield k, False, r2, fade, mine & ~active

    run = _count_covered(network, sim, block)
    # the trials with inner users, C-contiguous in trial order: mean and
    # ddof=1 standard error as numpy's, 0 with one such trial or none
    inner = np.reshape(shares, (-1, K))
    n = max(len(inner), 1)
    frac_mean = inner.sum(axis=0) / n
    frac_err = np.sqrt(np.square(inner - frac_mean).sum(axis=0) / max(n - 1, 1)) / math.sqrt(n)
    # a tier without stations has a zero sum
    mean_activity = activity_sums / np.maximum(station_counts, 1)
    bound = _truncation_bound(network, mean_activity, radius, run[0])
    return SystemEstimate(
        **vars(_binomial_estimate(network, run, "conditional-thinning", radius, bound,
                                  [math.pi * radius * radius * sum(densities), 0.0])),
        tier_user_fraction=tuple(float(v) for v in frac_mean),
        tier_user_fraction_stderr=tuple(float(v) for v in frac_err),
        tier_mean_activity=tuple(float(v) for v in mean_activity),
    )


def _serving_station(points, positions, rank) -> np.ndarray:
    """Station of strongest fading-averaged power at each point, -1 if none.

    rank is power^(2/alpha), so rank / d^2 orders stations as P d^(-alpha)
    does.  Within one rank the nearest station is the strongest, so each
    distinct rank takes one nearest-station query; ties go to the lower rank.
    """
    from scipy.spatial import cKDTree  # only the association needs scipy

    best = np.full(len(points), -1, dtype=np.int64)
    best_score = np.full(len(points), -np.inf)
    for weight in np.unique(rank):
        members = np.flatnonzero(rank == weight)
        d, nearest = cKDTree(positions[members]).query(points)
        with np.errstate(divide="ignore"):
            score = weight / d**2
        better = score > best_score
        best[better] = members[nearest[better]]
        best_score[better] = score[better]
    return best


def _pixel_centers(radius: float, resolution: int) -> np.ndarray:
    """Centre coordinates of the pixels along one side of the square window."""
    return -radius + (np.arange(resolution) + 0.5) * (2.0 * radius / resolution)


def coverage_region_raster(
    realization: Realization, grid_resolution: int, mode: str = "full"
) -> np.ndarray:
    """Serving-station id for each pixel of the square window, fading
    averaged out.

    mode "full" tessellates with every station; "thinned-biased" with the
    active stations only, so surviving cells expand into their silent
    neighbours; "thinned-regions" keeps the full tessellation but blanks
    (id -1) the pixels whose full-mode server is inactive.  A mode without
    any station to tessellate with blanks every pixel.  Returns a
    (grid_resolution, grid_resolution) integer array indexed [iy, ix].
    """
    if mode not in RASTER_MODES:
        raise ValueError(f"mode must be one of {RASTER_MODES}, got {mode!r}")
    if grid_resolution < 1:
        raise ValueError(f"grid_resolution must be >= 1, got {grid_resolution}")
    active = realization.active
    subset = np.flatnonzero(active) if mode == "thinned-biased" else np.arange(len(active))
    if not len(subset):  # no station serves, so every pixel is blank
        return np.full((grid_resolution, grid_resolution), -1, dtype=np.int64)
    centers = _pixel_centers(realization.radius, grid_resolution)
    x, y = np.meshgrid(centers, centers)
    pixels = np.column_stack((x.ravel(), y.ravel()))
    rank = realization.powers[subset] ** (2.0 / realization.alpha)
    serving = _serving_station(pixels, realization.positions[subset], rank)
    grid = subset[serving].reshape(grid_resolution, grid_resolution)
    if mode == "thinned-regions":
        grid = np.where(active[grid], grid, -1)
    return grid


def realization_to_csv(realization: Realization, file) -> None:
    """Write the field as CSV rows "x,y,tier,active,fading"."""
    file.write("x,y,tier,active,fading\n")
    columns = (*realization.positions.T.tolist(), realization.tiers.tolist(),
               realization.active.astype(int).tolist(), realization.fading.tolist())
    file.writelines(
        f"{x!r},{y!r},{tier},{act},{fade!r}\n" for x, y, tier, act, fade in zip(*columns)
    )


def raster_to_csv(realization: Realization, grid: np.ndarray, file) -> None:
    """Write a raster as CSV rows "x,y,bs_id,tier"; blank pixels carry -1."""
    centers = [repr(c) for c in _pixel_centers(realization.radius, grid.shape[0]).tolist()]
    # one ",bs_id,tier" per station; a blank pixel's id -1 picks the last
    suffixes = [*(f",{bs},{t}\n" for bs, t in enumerate(realization.tiers.tolist())), ",-1,-1\n"]
    file.write("x,y,bs_id,tier\n")
    for y, row in zip(centers, grid.tolist()):
        file.write("".join([f"{x},{y}{suffixes[bs]}" for x, bs in zip(centers, row)]))

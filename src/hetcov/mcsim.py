"""Independent Monte Carlo oracle for the load-aware coverage model.

Provides the point-field samplers, the conditional-thinning coverage
estimator, the detailed per-BS load simulation and the coverage-region
rasteriser.  Estimators draw all randomness from counter-based streams:
the coverage estimator keys one generator on (seed, block, tier) for each
tier of each block of _BLOCK_TRIALS trials, the system simulation one on
(seed, trial) for each trial.  Blocks are independent work units that
return plain counts, summed in block order, so a result does not depend on
the chunking or on the trial count of the run: trial t depends only on
(seed, t), and a run of n trials is a prefix of any longer run with the
same seed.  Blocks run one after another in the calling thread; see
_BLOCK_TRIALS for why they are not spread over threads.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .model import Network

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

# Stations per drawn chunk of a block: larger chunks page-fault fresh
# arrays and fall out of cache, smaller ones add numpy calls.
_POINT_BUDGET = 65_536
# Trials per keyed generator.  Blocks run one after another: a block makes
# some thirty short numpy calls per chunk, between which numpy holds the
# interpreter lock.  On a 2-core host two threads gained 1.6x on the
# 15,000-station window only while the other core was idle; beside one busy
# process the benchmark ran slower on two threads than on one, and its
# command times followed the neighbour's load.
_BLOCK_TRIALS = 16
_UINT64_MASK = (1 << 64) - 1


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
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.seed <= _UINT64_MASK:
            raise ValueError(f"seed must fit in 64 bits, got {self.seed}")
        if self.window_radius is not None and not self.window_radius > 0.0:
            raise ValueError(
                f"window_radius must be positive, got {self.window_radius}"
            )
        if self.min_expected_points < 1:
            raise ValueError(
                f"min_expected_points must be >= 1, got {self.min_expected_points}"
            )


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo mean with its binomial standard error, the radius of the
    window the trials were sampled on, the number of trials that held no
    candidate station and the mean number of stations a trial drew."""

    mean: float
    stderr: float
    trials: int
    window_radius: float
    empty_trials: int
    mean_stations_per_trial: float


@dataclass(frozen=True)
class SystemEstimate:
    """Coverage estimate from the detailed load simulation plus the per-tier
    load diagnostics gathered on the way.

    tier_user_fraction is measured on users in the inner half of the window,
    where association is unaffected by the window edge.
    """

    mean: float
    stderr: float
    trials: int
    tier_user_fraction: tuple[float, ...]
    tier_user_fraction_stderr: tuple[float, ...]
    tier_mean_activity: tuple[float, ...]
    window_radius: float
    empty_trials: int
    mean_stations_per_trial: float


@dataclass(frozen=True, eq=False)
class Realization:
    """One sampled base-station field with marks.

    positions is an (n, 2) array; tiers holds 1-based tier indices; active
    marks are drawn independently per tier with that tier's activity factor;
    fading holds the unit-mean exponential draws.  Each station's relative
    transmit power and the path-loss exponent ride along so the field
    renders standalone.
    """

    positions: np.ndarray
    tiers: np.ndarray
    active: np.ndarray
    fading: np.ndarray
    powers: np.ndarray
    radius: float
    alpha: float

    def __len__(self) -> int:
        return len(self.tiers)


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Counter-based substream for one trial; order-independent by design."""
    key = np.array([seed & _UINT64_MASK, trial & _UINT64_MASK], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _block_rng(seed: int, block: int, tier: int) -> np.random.Generator:
    """Counter-based stream for one tier of one block of _BLOCK_TRIALS
    trials."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([seed, block, tier]))
    )


def _map_blocks(task, trials: int) -> list:
    """task(block) for each block of _BLOCK_TRIALS trials, in block order."""
    return [task(b) for b in range(-(-trials // _BLOCK_TRIALS))]


def _binomial_estimate(
    successes: int, trials: int, radius: float, empty: int, stations: int
) -> Estimate:
    """The estimate of successes in trials; warns when more than 0.1% of the
    trials held no candidate station.  Call it from the estimator itself, so
    the warning names the estimator's caller."""
    if empty > 0.001 * trials:
        warnings.warn(
            f"{empty} of {trials} trials had no candidate station "
            "in the window; enlarge the window or densities",
            stacklevel=3,
        )
    mean = successes / trials
    stderr = math.sqrt(mean * (1.0 - mean) / trials)
    return Estimate(
        mean=mean,
        stderr=stderr,
        trials=trials,
        window_radius=radius,
        empty_trials=empty,
        mean_stations_per_trial=stations / trials,
    )


def _disc_radius(densities, min_points: int) -> float:
    """Disc radius placing max(500, min_points) expected points of the
    sparsest positive density inside the window."""
    sparsest = min(d for d in densities if d > 0.0)
    return math.sqrt(max(500, min_points) / (math.pi * sparsest))


def default_window_radius(network: Network, min_expected_points: int = 500) -> float:
    """Disc radius placing max(500, min_expected_points) expected stations of
    the sparsest actively transmitting tier inside the window."""
    return _disc_radius(
        [t.activity * t.density for t in network.tiers], min_expected_points
    )


def sample_ppp(density: float, radius: float, rng: np.random.Generator) -> np.ndarray:
    """Homogeneous Poisson field on the disc: Poisson count, uniform points."""
    if density < 0.0:
        raise ValueError(f"density must be non-negative, got {density}")
    if not radius > 0.0:
        raise ValueError(f"radius must be positive, got {radius}")
    n = rng.poisson(density * math.pi * radius**2)
    r = radius * np.sqrt(rng.random(n))
    theta = 2.0 * math.pi * rng.random(n)
    return np.column_stack((r * np.cos(theta), r * np.sin(theta)))


def _hex_sites(
    density: float, radius: float, shift: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Unrotated hexagonal lattice of the given density, translated by shift,
    an (..., 2) array of primitive-cell coordinates in [0, 1).

    Returns x and y of shape (..., sites) over an index range that covers the
    disc; clipping to the disc is the caller's.
    """
    if not density > 0.0:
        raise ValueError(f"density must be positive, got {density}")
    if not radius > 0.0:
        raise ValueError(f"radius must be positive, got {radius}")
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
    x, y = _hex_sites(density, radius, rng.random(2))
    angle = 2.0 * math.pi * rng.random()
    keep = x * x + y * y <= radius * radius
    x, y = x[keep], y[keep]
    cos_a, sin_a = math.cos(angle), math.sin(angle)
    return np.column_stack((cos_a * x - sin_a * y, sin_a * x + cos_a * y))


def _sample_field(
    network: Network, radius: float, rng: np.random.Generator, placement: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One base-station field on the disc: (positions, 0-based tier index,
    fading, activity uniforms), drawn tier by tier."""
    positions, tiers, fading, uniforms = [], [], [], []
    for index, tier in enumerate(network.tiers):
        if placement == "hex-first-tier" and index == 0:
            pts = sample_hex_grid(tier.density, radius, rng)
        else:
            pts = sample_ppp(tier.density, radius, rng)
        n = len(pts)
        positions.append(pts)
        tiers.append(np.full(n, index, dtype=np.int64))
        fading.append(rng.standard_exponential(n))
        uniforms.append(rng.random(n))
    return tuple(np.concatenate(part) for part in (positions, tiers, fading, uniforms))


def draw_realization(
    network: Network,
    radius: float,
    rng: np.random.Generator,
    placement: str = "ppp",
) -> Realization:
    """Sample one marked base-station field on the disc.

    Each tier is drawn independently, then partitioned into active and idle
    stations with the tier's activity factor; fading marks are unit-mean
    exponentials, redrawn per station.
    """
    if placement not in PLACEMENTS:
        raise ValueError(f"placement must be one of {PLACEMENTS}, got {placement!r}")
    positions, tier, fading, uniforms = _sample_field(network, radius, rng, placement)
    activity = np.array([t.activity for t in network.tiers])
    power = np.array([t.power for t in network.tiers])
    return Realization(
        positions=positions,
        tiers=tier + 1,
        active=uniforms < activity[tier],
        fading=fading,
        powers=power[tier],
        radius=radius,
        alpha=network.alpha,
    )


def _count_covered(
    network: Network, load: str, trials: int, chunks
) -> tuple[int, int, int]:
    """(covered, empty, stations) over a group of trials laid out as columns.

    chunks yields (tier, r2, fade, active, present), arrays of shape
    (slots, trials): slot j of column i holds a station of that tier in
    trial i where present is set, and padding (finite, with r2 > 0)
    elsewhere.  A trial's centre user is covered when a candidate of the
    load rule (see estimate_coverage) clears its tier target, signal >=
    threshold * interference, that is when the largest signal / threshold
    over the candidates reaches the interference; a trial without any
    candidate counts as empty.  The interference is summed slot by slot in
    chunk order, so cutting a tier's slots into more chunks changes no sum.
    """
    interference = np.zeros((1, trials))
    best = np.zeros(trials)
    found = np.zeros(trials, dtype=bool)
    stations = 0
    for k, r2, fade, active, present in chunks:
        stations += int(np.count_nonzero(present))
        tier = network.tiers[k]
        signal = tier.power * fade * r2 ** (-network.alpha / 2.0)
        on = present & active
        heard = signal * on
        interference = np.add.reduce(np.vstack((interference, heard)), axis=0, keepdims=True)
        if k + 1 not in network.access:
            continue
        # signals are non-negative, so zeroing the non-candidates leaves the
        # largest candidate signal; dividing by the threshold keeps the order
        if load != "idle-only":  # active candidates
            best = np.maximum(best, heard.max(axis=0, initial=0.0) / tier.delta)
            found |= on.any(axis=0)
        if load != "fully-loaded":  # idle candidates
            off = present & ~active
            best = np.maximum(best, (signal * off).max(axis=0, initial=0.0) / tier.target_sir)
            found |= off.any(axis=0)
    covered = int(np.count_nonzero(found & (best >= interference[0])))
    return covered, trials - int(np.count_nonzero(found)), stations


def _poisson_tier(rng: np.random.Generator, tier, radius: float, trials: int):
    """Chunks (r2, fade, active, present) of one Poisson tier for the first
    `trials` columns of a block, nearest station first.

    Slot j of trial i reads row (j, i) of the block's (slots, _BLOCK_TRIALS,
    3) uniforms: an exponential gap of unit-rate arrivals whose running sum
    G gives r2 = G / (pi * density), the fading and the active mark.  A
    station is in the window while G <= pi * density * radius^2.  A row
    thus belongs to one (trial, rank) whatever the radius or the number of
    trials, and a larger window holds every station of a smaller one.  Rows
    are drawn in chunks of at most _POINT_BUDGET stations, about three
    standard deviations past the mean count, and on until every trial has
    left the window.
    """
    mean = math.pi * tier.density * radius * radius
    margin = math.ceil(3.0 * math.sqrt(mean)) + 1
    most = max(1, _POINT_BUDGET // _BLOCK_TRIALS)
    drawn, target = 0, math.ceil(mean) + margin
    arrival = np.zeros((1, trials))
    while True:
        count = min(most, target - drawn)
        rows = rng.random((count, _BLOCK_TRIALS, 3))[:, :trials]
        gaps = -np.log1p(-rows[:, :, 0])
        # the carried row keeps every running sum in slot order
        arrival = np.cumsum(np.vstack((arrival[-1:], gaps)), axis=0)[1:]
        present = arrival <= mean
        yield (
            arrival / (math.pi * tier.density),
            -np.log1p(-rows[:, :, 1]),
            rows[:, :, 2] < tier.activity,
            present,
        )
        if not present[-1].any():
            return
        drawn += count
        if drawn == target:
            target += margin


def _lattice_tier(rng: np.random.Generator, tier, radius: float, trials: int):
    """The one chunk (r2, fade, active, present) of a hexagonal tier for the
    first `trials` columns of a block: the block draws _BLOCK_TRIALS lattice
    offsets, then one row of (fading, active) uniforms per site in the disc,
    trial by trial."""
    x, y = _hex_sites(tier.density, radius, rng.random((_BLOCK_TRIALS, 2))[:trials])
    r2 = x * x + y * y
    present = r2 <= radius * radius
    rows = rng.random((np.count_nonzero(present), 2))
    fade = np.zeros(r2.shape)
    fade[present] = -np.log1p(-rows[:, 0])
    active = np.zeros(r2.shape, dtype=bool)
    active[present] = rows[:, 1] < tier.activity
    yield r2.T, fade.T, active.T, present.T


def estimate_coverage(
    network: Network,
    sim: SimConfig,
    placement: str = "ppp",
    load: str = "conditional-thinning",
) -> Estimate:
    """Coverage probability of a typical user at the window centre.

    Per trial every tier is sampled on the disc and partitioned into active
    and idle stations.  The user is covered when any accessible candidate
    clears its tier target: an active candidate against the remaining active
    power, an idle candidate against the whole active field.  No
    single-candidate assumption is involved, so the estimator is a valid
    oracle for targets at and below 0 dB as well.

    load selects the candidate rule: "conditional-thinning" admits active
    and idle candidates (the load-aware model), "fully-loaded" drops the
    idle stations entirely (the thinned-density full-load baseline), and
    "idle-only" admits only idle candidates against the active field.

    Only the distances to the origin matter to the test, so stations never
    get positions.  Each (block, tier) pair draws from its own generator:
    a Poisson tier its stations in order of distance (_poisson_tier), so
    runs that differ only in the window radius share every station they
    both hold; "hex-first-tier" draws its lattice (_lattice_tier).
    """
    if placement not in PLACEMENTS:
        raise ValueError(f"placement must be one of {PLACEMENTS}, got {placement!r}")
    if load not in LOAD_MODES:
        raise ValueError(f"load must be one of {LOAD_MODES}, got {load!r}")
    radius = sim.window_radius or default_window_radius(
        network, sim.min_expected_points
    )

    def chunks(b: int, trials: int):
        for k, tier in enumerate(network.tiers):
            if placement == "hex-first-tier" and k == 0:
                sampler = _lattice_tier
            elif tier.density > 0.0:
                sampler = _poisson_tier
            else:
                continue
            for chunk in sampler(_block_rng(sim.seed, b, k), tier, radius, trials):
                yield (k, *chunk)

    def block(b: int) -> tuple[int, int, int]:
        trials = min(_BLOCK_TRIALS, sim.trials - b * _BLOCK_TRIALS)
        return _count_covered(network, load, trials, chunks(b, trials))

    covered, empty, stations = map(sum, zip(*_map_blocks(block, sim.trials)))
    return _binomial_estimate(covered, sim.trials, radius, empty, stations)


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
    sized from the raw station densities.  Trial t draws from its own
    (seed, t) stream; trials are tested in blocks of _BLOCK_TRIALS, as in
    estimate_coverage, and every count and diagnostic is summed in trial
    order.
    """
    if user_density < 0.0:
        raise ValueError(f"user_density must be non-negative, got {user_density}")
    if resource_blocks < 1:
        raise ValueError(f"resource_blocks must be >= 1, got {resource_blocks}")
    radius = sim.window_radius or _disc_radius(
        [t.density for t in network.tiers], sim.min_expected_points
    )
    K = network.num_tiers
    rank = np.array([t.power for t in network.tiers]) ** (2.0 / network.alpha)
    inner_sq = (radius / 2.0) ** 2

    def trial(t: int):
        """Trial t's stations per tier as (r2, fade, active) and its load
        diagnostics: the inner users' tier shares (None without inner
        users), the per-tier activity sums and station counts."""
        rng = _trial_rng(sim.seed, t)
        positions, tier_idx, fade, uniforms = _sample_field(network, radius, rng, "ppp")
        users = sample_ppp(user_density, radius, rng)
        counts_per_tier = np.bincount(tier_idx, minlength=K)
        offsets = np.concatenate(([0], np.cumsum(counts_per_tier)))
        n_bs, n_users = len(tier_idx), len(users)
        # Without stations nobody is served and the trial counts as not
        # covered; without users every station stays idle.
        served = np.zeros(n_bs, dtype=np.int64)
        fraction = None
        if n_bs and n_users:
            chosen = _serving_station(users, positions, rank[tier_idx])
            best_tier = tier_idx[chosen]
            served = np.bincount(chosen, minlength=n_bs)
            inner = users[:, 0] ** 2 + users[:, 1] ** 2 <= inner_sq
            n_inner = int(np.count_nonzero(inner))
            if n_inner:
                fraction = np.bincount(best_tier[inner], minlength=K) / n_inner

        activity = np.minimum(served / resource_blocks, 1.0)
        r2 = positions[:, 0] ** 2 + positions[:, 1] ** 2
        active = uniforms < activity
        tiers = [slice(offsets[i], offsets[i + 1]) for i in range(K)]
        per_tier = [(r2[s], fade[s], active[s]) for s in tiers]
        activity_sum = np.array([np.sum(activity[s]) for s in tiers])
        return per_tier, fraction, activity_sum, counts_per_tier

    def block(b: int):
        """(covered, empty, stations) of block b and its trials' diagnostics."""
        first = b * _BLOCK_TRIALS
        drawn = [trial(t) for t in range(first, min(first + _BLOCK_TRIALS, sim.trials))]

        def chunks():
            # tier k of trial i fills column i; the padding of ones keeps
            # every padded signal finite
            for k in range(K):
                parts = [d[0][k] for d in drawn]
                counts = np.array([len(part[0]) for part in parts])
                present = np.arange(counts.max())[:, None] < counts
                columns = []
                for values in zip(*parts):
                    column = np.ones(present.shape, dtype=values[0].dtype)
                    column.T[present.T] = np.concatenate(values)
                    columns.append(column)
                yield (k, *columns, present)

        counts = _count_covered(network, "conditional-thinning", len(drawn), chunks())
        return counts, [d[1:] for d in drawn]

    covered = empty = stations = 0
    fractions: list[np.ndarray] = []
    activity_sums = np.zeros(K)
    activity_counts = np.zeros(K, dtype=np.int64)
    for (hits, misses, seen), trials in _map_blocks(block, sim.trials):
        covered += hits
        empty += misses
        stations += seen
        for fraction, activity_sum, counts_per_tier in trials:
            if fraction is not None:
                fractions.append(fraction)
            activity_sums += activity_sum
            activity_counts += counts_per_tier

    if len(fractions) > 1:
        stacked = np.vstack(fractions)
        frac_mean = stacked.mean(axis=0)
        frac_err = stacked.std(axis=0, ddof=1) / math.sqrt(len(stacked))
    else:
        frac_mean = fractions[0] if fractions else np.zeros(K)
        frac_err = np.zeros(K)
    mean_activity = np.divide(
        activity_sums,
        activity_counts,
        out=np.zeros(K),
        where=activity_counts > 0,
    )
    return SystemEstimate(
        **vars(_binomial_estimate(covered, sim.trials, radius, empty, stations)),
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
    (id -1) the pixels whose full-mode server is inactive.  Returns a
    (grid_resolution, grid_resolution) integer array indexed [iy, ix].
    """
    if mode not in RASTER_MODES:
        raise ValueError(f"mode must be one of {RASTER_MODES}, got {mode!r}")
    if grid_resolution < 1:
        raise ValueError(f"grid_resolution must be >= 1, got {grid_resolution}")
    n = len(realization)
    if n == 0:
        raise ValueError("realization holds no stations")
    centers = _pixel_centers(realization.radius, grid_resolution)
    active = realization.active
    if mode == "thinned-biased":
        subset = np.flatnonzero(active)
        if not len(subset):
            return np.full((grid_resolution, grid_resolution), -1, dtype=np.int64)
    else:
        subset = np.arange(n)
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
    # a blank pixel's id -1 picks the appended tier -1
    tiers = np.append(realization.tiers, -1)[grid]
    file.write("x,y,bs_id,tier\n")
    for y, bs_row, tier_row in zip(centers, grid.tolist(), tiers.tolist()):
        file.writelines(f"{x},{y},{bs},{tier}\n" for x, bs, tier in zip(centers, bs_row, tier_row))

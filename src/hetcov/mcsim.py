"""Independent Monte Carlo oracle for the load-aware coverage model.

Provides the point-field samplers, the conditional-thinning coverage
estimator, the detailed per-BS load simulation and the coverage-region
rasteriser.  Estimators draw all randomness from counter-based per-trial
substreams keyed on (seed, trial index), so trials are independent work
units: results do not depend on execution order or batching and are
bit-identical for a given seed.  Aggregation is a plain sum of indicator
counts, hence commutative.
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

_POINT_BUDGET = 2_000_000  # flat points per vectorised batch
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
    """Monte Carlo mean with its binomial standard error and the radius of
    the window the trials were sampled on."""

    mean: float
    stderr: float
    trials: int
    window_radius: float


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


def _binomial_estimate(successes: int, trials: int, radius: float) -> Estimate:
    mean = successes / trials
    stderr = math.sqrt(mean * (1.0 - mean) / trials)
    return Estimate(mean=mean, stderr=stderr, trials=trials, window_radius=radius)


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


def sample_hex_grid(
    density: float, radius: float, rng: np.random.Generator
) -> np.ndarray:
    """Hexagonal lattice sites with the requested density, clipped to the disc.

    The lattice receives a uniformly random translation inside one primitive
    cell and a uniformly random rotation, so the typical point at the origin
    sees translation-invariant statistics across draws.
    """
    if not density > 0.0:
        raise ValueError(f"density must be positive, got {density}")
    if not radius > 0.0:
        raise ValueError(f"radius must be positive, got {radius}")
    spacing = math.sqrt(2.0 / (math.sqrt(3.0) * density))
    u1, u2 = rng.random(2)
    angle = 2.0 * math.pi * rng.random()
    # Primitive cell a1 = (s, 0), a2 = (s/2, s*sqrt(3)/2); index ranges must
    # cover the disc before the rotation, which preserves radii.
    row_height = spacing * math.sqrt(3.0) / 2.0
    k_max = int(math.ceil(radius / row_height)) + 2
    j_max = int(math.ceil(radius / spacing + k_max / 2.0)) + 2
    j, k = np.meshgrid(
        np.arange(-j_max, j_max + 1), np.arange(-k_max, k_max + 1), indexing="ij"
    )
    x = (j + u1 + 0.5 * (k + u2)) * spacing
    y = (k + u2) * row_height
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


# Kept apart from _sample_field: the Monte Carlo hot path never forms positions.
def _draw_radial_trial(
    network: Network,
    radius: float,
    rng: np.random.Generator,
    placement: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Radial view of one trial: (squared radii, tier idx, fading, active).

    For a Poisson field only the distances to the origin matter to the
    coverage functional, and the squared radii of a uniform disc point are
    uniform on [0, radius^2], so positions are never materialised.  The hex
    tier needs the geometry, so its radii come from the lattice points.
    """
    r2_parts, tier_parts, fade_parts, act_parts = [], [], [], []
    r_sq = radius * radius
    for index, tier in enumerate(network.tiers):
        if placement == "hex-first-tier" and index == 0:
            pts = sample_hex_grid(tier.density, radius, rng)
            r2 = pts[:, 0] ** 2 + pts[:, 1] ** 2
        else:
            n = rng.poisson(tier.density * math.pi * r_sq)
            r2 = rng.random(n) * r_sq
        n = len(r2)
        r2_parts.append(r2)
        tier_parts.append(np.full(n, index, dtype=np.int8))
        fade_parts.append(rng.standard_exponential(n))
        act_parts.append(rng.random(n) < tier.activity)
    parts = (r2_parts, tier_parts, fade_parts, act_parts)
    return tuple(np.concatenate(part) for part in parts)


def _count_covered(
    network: Network, sim: SimConfig, radius: float, draw_trial, load: str
) -> int:
    """Number of trials whose centre user is covered.

    draw_trial(rng) returns one trial's (squared radii, 0-based tier index,
    fading, active) on the disc of the given radius.  Trials are reduced in
    batches of about _POINT_BUDGET flat points with bincounts keyed by
    trial.  The user is covered when any candidate of the load rule (see
    estimate_coverage) clears its tier target.  Warns when more than 0.1%
    of the trials hold no candidate station.
    """
    neg_half_alpha = -network.alpha / 2.0
    power = np.array([t.power for t in network.tiers])
    beta = np.array([t.target_sir for t in network.tiers])
    delta = beta / (1.0 + beta)
    accessible = np.array(
        [i in network.access for i in range(1, network.num_tiers + 1)]
    )

    mean_points = sum(t.density for t in network.tiers) * math.pi * radius**2
    chunk = max(1, int(_POINT_BUDGET / max(1.0, mean_points)))
    covered = 0
    empty_trials = 0
    for start in range(0, sim.trials, chunk):
        stop = min(start + chunk, sim.trials)
        batch = stop - start
        drawn = [draw_trial(_trial_rng(sim.seed, t)) for t in range(start, stop)]
        r2, tier_idx, fade, act = (np.concatenate(part) for part in zip(*drawn))
        trial_idx = np.repeat(np.arange(batch), [len(trial[0]) for trial in drawn])

        signal = power[tier_idx] * fade * r2**neg_half_alpha
        interference = np.bincount(
            trial_idx, weights=np.where(act, signal, 0.0), minlength=batch
        )
        per_point_interference = interference[trial_idx]
        in_access = accessible[tier_idx]
        if load == "conditional-thinning":
            candidate = in_access
            threshold = np.where(act, delta[tier_idx], beta[tier_idx])
        elif load == "fully-loaded":
            candidate = in_access & act
            threshold = delta[tier_idx]
        else:  # idle-only
            candidate = in_access & ~act
            threshold = beta[tier_idx]
        hits = candidate & (signal >= threshold * per_point_interference)
        hit_counts = np.bincount(trial_idx[hits], minlength=batch)
        covered += int(np.count_nonzero(hit_counts))
        candidate_counts = np.bincount(trial_idx[candidate], minlength=batch)
        empty_trials += int(np.count_nonzero(candidate_counts == 0))

    if empty_trials > 0.001 * sim.trials:
        warnings.warn(
            f"{empty_trials} of {sim.trials} trials had no candidate station "
            "in the window; enlarge the window or densities",
            stacklevel=3,
        )
    return covered


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
    """
    if placement not in PLACEMENTS:
        raise ValueError(f"placement must be one of {PLACEMENTS}, got {placement!r}")
    if load not in LOAD_MODES:
        raise ValueError(f"load must be one of {LOAD_MODES}, got {load!r}")
    radius = sim.window_radius or default_window_radius(
        network, sim.min_expected_points
    )

    def draw_trial(rng):
        return _draw_radial_trial(network, radius, rng, placement)

    covered = _count_covered(network, sim, radius, draw_trial, load)
    return _binomial_estimate(covered, sim.trials, radius)


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
    """
    if user_density < 0.0:
        raise ValueError(f"user_density must be non-negative, got {user_density}")
    if resource_blocks < 1:
        raise ValueError(f"resource_blocks must be >= 1, got {resource_blocks}")
    radius = sim.window_radius or _disc_radius(
        [t.density for t in network.tiers], sim.min_expected_points
    )
    K = network.num_tiers
    power = np.array([t.power for t in network.tiers])
    inner_sq = (radius / 2.0) ** 2

    fractions: list[np.ndarray] = []
    activity_sums = np.zeros(K)
    activity_counts = np.zeros(K, dtype=np.int64)

    def draw_trial(rng):
        positions, tier_idx, fade, uniforms = _sample_field(network, radius, rng, "ppp")
        users = sample_ppp(user_density, radius, rng)
        counts_per_tier = np.bincount(tier_idx, minlength=K)
        offsets = np.concatenate(([0], np.cumsum(counts_per_tier)))
        n_bs, n_users = len(tier_idx), len(users)
        # Without stations nobody is served and the trial counts as not
        # covered; without users every station stays idle.
        served = np.zeros(n_bs, dtype=np.int64)
        if n_bs and n_users:
            # Strongest average power association, tier by tier via the
            # nearest station of each tier (within a tier the nearest is the
            # strongest).
            tier_power = np.full((K, n_users), -np.inf)
            tier_nearest = np.zeros((K, n_users), dtype=np.int64)
            for i in range(K):
                pts = positions[offsets[i]:offsets[i + 1]]
                if not len(pts):
                    continue
                dist, nearest = cKDTree(pts).query(users)
                with np.errstate(divide="ignore"):
                    tier_power[i] = power[i] * dist**-network.alpha
                tier_nearest[i] = nearest
            best_tier = np.argmax(tier_power, axis=0)
            chosen = offsets[best_tier] + tier_nearest[best_tier, np.arange(n_users)]
            served = np.bincount(chosen, minlength=n_bs)
            inner = users[:, 0] ** 2 + users[:, 1] ** 2 <= inner_sq
            n_inner = int(np.count_nonzero(inner))
            if n_inner:
                fractions.append(np.bincount(best_tier[inner], minlength=K) / n_inner)

        activity = np.minimum(served / resource_blocks, 1.0)
        for i in range(K):
            activity_sums[i] += float(np.sum(activity[offsets[i]:offsets[i + 1]]))
        activity_counts[:] += counts_per_tier
        r2 = positions[:, 0] ** 2 + positions[:, 1] ** 2
        return r2, tier_idx, fade, uniforms < activity

    covered = _count_covered(network, sim, radius, draw_trial, "conditional-thinning")
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
        **vars(_binomial_estimate(covered, sim.trials, radius)),
        tier_user_fraction=tuple(float(v) for v in frac_mean),
        tier_user_fraction_stderr=tuple(float(v) for v in frac_err),
        tier_mean_activity=tuple(float(v) for v in mean_activity),
    )


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
    pos = realization.positions[subset]
    # P * d^(-alpha) ranks stations identically to P^(2/alpha) / d^2, which
    # avoids a fractional power per pixel-station pair.
    rank_power = realization.powers[subset] ** (2.0 / realization.alpha)
    grid = np.empty((grid_resolution, grid_resolution), dtype=np.int64)
    row_budget = max(1, _POINT_BUDGET // (max(1, len(subset)) * grid_resolution))
    for start in range(0, grid_resolution, row_budget):
        stop = min(start + row_budget, grid_resolution)
        dx = centers[None, :, None] - pos[None, None, :, 0]
        dy = centers[start:stop, None, None] - pos[None, None, :, 1]
        d2 = dx * dx + dy * dy
        with np.errstate(divide="ignore"):
            rank = rank_power[None, None, :] / d2
        grid[start:stop] = subset[np.argmax(rank, axis=2)]
    if mode == "thinned-regions":
        grid = np.where(active[grid], grid, -1)
    return grid


def realization_to_csv(realization: Realization, file) -> None:
    """Write the field as CSV rows "x,y,tier,active,fading"."""
    file.write("x,y,tier,active,fading\n")
    for (x, y), tier, act, fade in zip(
        realization.positions,
        realization.tiers,
        realization.active,
        realization.fading,
    ):
        file.write(f"{float(x)!r},{float(y)!r},{int(tier)},{int(act)},{float(fade)!r}\n")


def raster_to_csv(realization: Realization, grid: np.ndarray, file) -> None:
    """Write a raster as CSV rows "x,y,bs_id,tier"; blank pixels carry -1."""
    centers = _pixel_centers(realization.radius, grid.shape[0]).tolist()
    file.write("x,y,bs_id,tier\n")
    for iy, y in enumerate(centers):
        for ix, x in enumerate(centers):
            bs = int(grid[iy, ix])
            tier = int(realization.tiers[bs]) if bs >= 0 else -1
            file.write(f"{x!r},{y!r},{bs},{tier}\n")

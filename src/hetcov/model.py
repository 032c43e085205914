"""Domain model for load-aware K-tier cellular networks.

Holds the tier and network value types, their validation, the JSON scenario
format, and the derived scalar quantities that both the analytic series and
the Monte Carlo estimators consume.  All types are immutable and every
operation is pure, so the module is safe for concurrent use.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, replace

from .specfun import SeriesTolerance, interference_constant, gauss_2f1

__all__ = [
    "ModelValidationError",
    "AssumptionWarning",
    "Tier",
    "Network",
    "DerivedConstants",
    "SeriesControl",
    "CoverageResult",
    "validate",
    "validation_warnings",
    "derived_constants",
    "hypergeometric_sum",
    "effective_load",
    "user_fraction_per_tier",
    "activity_from_user_density",
    "split_access_fraction",
    "network_to_dict",
    "network_from_dict",
    "network_to_json",
    "network_from_json",
]


class ModelValidationError(ValueError):
    """A tier or network field violates a model invariant."""


class AssumptionWarning(UserWarning):
    """Inputs lie outside the exactness assumptions of the analytic results."""


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ModelValidationError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class Tier:
    """One base-station class.

    power is a relative transmit power on a linear scale, density is in BSs
    per unit area, target_sir is the linear SIR threshold, and activity is
    the probability that an interfering BS of this tier transmits in the
    evaluated resource block.  Zero density is allowed so that a tier split
    into open and closed parts stays representable at the boundary
    fractions.
    """

    power: float
    density: float
    target_sir: float
    activity: float

    def __post_init__(self) -> None:
        _require_finite("power", self.power)
        _require_finite("density", self.density)
        _require_finite("target_sir", self.target_sir)
        _require_finite("activity", self.activity)
        if not self.power > 0.0:
            raise ModelValidationError(f"power must be positive, got {self.power}")
        if self.density < 0.0:
            raise ModelValidationError(
                f"density must be non-negative, got {self.density}"
            )
        if not self.target_sir > 0.0:
            raise ModelValidationError(
                f"target_sir must be positive, got {self.target_sir}"
            )
        if not 0.0 <= self.activity <= 1.0:
            raise ModelValidationError(
                f"activity must lie in [0, 1], got {self.activity}"
            )

    @property
    def delta(self) -> float:
        """Threshold ratio beta/(1+beta) used by the active-candidate test."""
        return self.target_sir / (1.0 + self.target_sir)


@dataclass(frozen=True)
class Network:
    """A K-tier network with a path-loss exponent and an access set.

    access holds the 1-based indices of the tiers a mobile may connect to;
    every tier interferes regardless of access.  Omitting access grants open
    access to all tiers.
    """

    alpha: float
    tiers: tuple[Tier, ...]
    access: frozenset[int] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tiers", tuple(self.tiers))
        if self.access is None:
            object.__setattr__(
                self, "access", frozenset(range(1, len(self.tiers) + 1))
            )
        else:
            object.__setattr__(
                self, "access", frozenset(_tier_index(i) for i in self.access)
            )
        _check_network(self)

    @property
    def num_tiers(self) -> int:
        return len(self.tiers)

    @property
    def is_open_access(self) -> bool:
        return self.access == frozenset(range(1, self.num_tiers + 1))

    def access_tiers(self) -> list[tuple[int, Tier]]:
        """(1-based index, tier) pairs of the connectable tiers, in order."""
        return [(i, t) for i, t in enumerate(self.tiers, start=1) if i in self.access]


def _is_number(value) -> bool:
    """A real number that is not a bool (JSON true is not a number).  JSON's
    own float and int are checked first: the numbers.Real check is an ABC
    lookup that costs more than the rest of reading a value."""
    if type(value) in (float, int):
        return True
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _tier_index(value) -> int:
    """An access entry as an int; 2.0 passes, 1.5, "x" and true do not."""
    if not _is_number(value) or value % 1 != 0:
        raise ModelValidationError(f"access indices must be integers, got {value!r}")
    return int(value)


def _weight(tier: Tier, alpha: float) -> float:
    """Association weight density * power^(2/alpha) of a tier."""
    return tier.density * tier.power ** (2.0 / alpha)


def _check_network(network: Network) -> None:
    if not math.isfinite(network.alpha) or not network.alpha > 2.0:
        raise ModelValidationError(
            f"alpha must be a finite exponent above 2, got {network.alpha}"
        )
    if network.num_tiers < 1:
        raise ModelValidationError("tiers must contain at least one tier")
    if not network.access:
        raise ModelValidationError("access set must not be empty")
    valid = range(1, network.num_tiers + 1)
    if not all(i in valid for i in network.access):
        raise ModelValidationError(
            f"access indices {sorted(network.access)} must be 1-based tier "
            f"indices up to {network.num_tiers}"
        )
    if sum(t.activity * _weight(t, network.alpha) for t in network.tiers) <= 0.0:
        raise ModelValidationError(
            "no tier transmits (activity * density * power is zero everywhere); "
            "the interference field would be empty and the SIR model degenerate"
        )


def validate(network: Network) -> Network:
    """Re-check every invariant and hand the network back.

    Construction already validates, so this is mostly useful after loading
    from external data or as an explicit guard in pipelines.  Targets at or
    below 0 dB are legal inputs; they are reported by validation_warnings
    rather than rejected, because the accuracy study below 0 dB must stay
    expressible.
    """
    for tier in network.tiers:
        Tier(tier.power, tier.density, tier.target_sir, tier.activity)
    _check_network(network)
    return network


def validation_warnings(network: Network) -> tuple[str, ...]:
    """Advisory flags for inputs outside the analytic exactness assumptions."""
    flags = []
    for i, tier in enumerate(network.tiers, start=1):
        if tier.target_sir <= 1.0:
            flags.append(
                f"tier {i}: target SIR {tier.target_sir:g} is at or below 0 dB; "
                "the series result is exact only for targets above 0 dB"
            )
    return tuple(flags)


@dataclass(frozen=True)
class DerivedConstants:
    """Aggregate scalars consumed by the coverage series.

    idle_weight collects the idle candidate field over the access tiers;
    interference_scale is the coefficient of s^(2/alpha) in the Laplace
    exponent of the active field; a_over_eta is their ratio, which drives
    the series geometry; c_alpha is the shot-noise constant.
    """

    idle_weight: float
    interference_scale: float
    a_over_eta: float
    c_alpha: float


def derived_constants(network: Network) -> DerivedConstants:
    """Compute the series scalars for a validated network.

    interference_scale deliberately sums over every tier, because all tiers
    interfere whether or not they are connectable.
    """
    alpha = network.alpha
    two_over = 2.0 / alpha
    c_alpha = interference_constant(alpha)
    idle = math.pi * math.gamma(1.0 + two_over) * sum(
        (1.0 - t.activity)
        * _weight(t, alpha)
        * t.target_sir**-two_over
        for _, t in network.access_tiers()
    )
    scale = c_alpha * sum(t.activity * _weight(t, alpha) for t in network.tiers)
    if not scale > 0.0:
        raise ModelValidationError("interference scale is zero: no tier transmits")
    return DerivedConstants(
        idle_weight=idle,
        interference_scale=scale,
        a_over_eta=idle / scale,
        c_alpha=c_alpha,
    )


def hypergeometric_sum(
    network: Network, m: int, tol: SeriesTolerance | None = None
) -> float:
    """Activity-weighted hypergeometric tier sum entering series term m.

    The sum runs over the access tiers only, which is what the closed-access
    series needs and reduces to the full sum under open access.  Note the
    value depends on the term index m even though it plays the role of a
    constant inside each term.
    """
    if m < 1:
        raise ValueError(f"term index must be >= 1, got {m}")
    alpha = network.alpha
    two_over = 2.0 / alpha
    b = two_over * m
    c = 1.0 + (m + 1) * two_over
    total = 0.0
    for _, t in network.access_tiers():
        z = 1.0 / (1.0 + t.target_sir)
        total += (
            t.activity
            * _weight(t, alpha)
            * t.target_sir**-two_over
            * (1.0 + t.target_sir) ** -b
            * gauss_2f1(1.0, b, c, z, tol)
        )
    return total


def effective_load(network: Network) -> float:
    """Mean activity weighted by the association weights, over all tiers."""
    weights = [_weight(t, network.alpha) for t in network.tiers]
    return sum(t.activity * w for t, w in zip(network.tiers, weights)) / sum(weights)


def user_fraction_per_tier(network: Network) -> tuple[float, ...]:
    """Fraction of users each tier serves under strongest-signal association."""
    two_over = 2.0 / network.alpha
    shares = [
        t.density * (t.power / t.target_sir) ** two_over for t in network.tiers
    ]
    denom = sum(shares)
    if not denom > 0.0:
        raise ModelValidationError("all tiers have zero association weight")
    return tuple(s / denom for s in shares)


def activity_from_user_density(
    network: Network, user_density: float, resource_blocks: int
) -> tuple[float, ...]:
    """Per-tier activity factors induced by a user population.

    Each tier's mean per-BS load is the user density times its user share
    divided by its BS density; spreading that load over the resource blocks
    and capping at one gives the probability that a BS of the tier transmits
    in a randomly chosen block.
    """
    if not (math.isfinite(user_density) and user_density >= 0.0):
        raise ModelValidationError(
            f"user_density must be finite and non-negative, got {user_density}"
        )
    if resource_blocks < 1:
        raise ModelValidationError(
            f"resource_blocks must be >= 1, got {resource_blocks}"
        )
    two_over = 2.0 / network.alpha
    shares = [(t.power / t.target_sir) ** two_over for t in network.tiers]
    denom = sum(t.density * s for t, s in zip(network.tiers, shares))
    return tuple(
        min(1.0, user_density / resource_blocks * s / denom) for s in shares
    )


def split_access_fraction(tier: Tier, fraction: float) -> tuple[Tier, Tier]:
    """Split a tier into open and closed parts as independent thinnings.

    The open part keeps the given fraction of the density and the closed
    part the remainder; power, target SIR and activity are shared.  The two
    densities add back to the original, which is the superposition property
    of splitting a Poisson field.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ModelValidationError(f"fraction must lie in [0, 1], got {fraction}")
    # Computing the larger share by multiplication and the smaller by
    # subtraction keeps the subtraction exact (the operands are within a
    # factor of two), so the two densities always add back to the original.
    if fraction >= 0.5:
        open_density = tier.density * fraction
        closed_density = tier.density - open_density
    else:
        closed_density = tier.density * (1.0 - fraction)
        open_density = tier.density - closed_density
    return (
        replace(tier, density=open_density),
        replace(tier, density=closed_density),
    )


@dataclass(frozen=True)
class SeriesControl:
    """Stopping control for the coverage correction series."""

    epsilon: float = 1e-10
    max_terms: int = 10_000

    def __post_init__(self) -> None:
        if not self.epsilon > 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.max_terms < 1:
            raise ValueError(f"max_terms must be >= 1, got {self.max_terms}")


@dataclass(frozen=True)
class CoverageResult:
    """Coverage value with truncation bounds and series diagnostics.

    value is intentionally not clamped to [0, 1]: inputs outside the
    exactness assumptions (targets at or below 0 dB) can push the series
    value out of range, and hiding that would mask the violation.  When
    converged is True, lower <= value <= upper and the bracket width is
    below the requested epsilon.
    """

    value: float
    lower: float
    upper: float
    terms_used: int
    a_over_eta: float
    converged: bool


def network_to_dict(network: Network) -> dict:
    """JSON-ready document; target SIRs are stored in dB."""
    return {
        "alpha": network.alpha,
        "tiers": [
            {
                "power": t.power,
                "density": t.density,
                "target_sir_db": 10.0 * math.log10(t.target_sir),
                "activity": t.activity,
            }
            for t in network.tiers
        ],
        "access": sorted(network.access),
    }


def _db_to_linear(db: float) -> float:
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        raise ModelValidationError(f"{db} dB is beyond the float range") from None


def _number(doc: dict, key: str, where: str) -> float:
    """doc[key] as a float; a missing value, or one that is not a JSON number
    ("4", true) or overflows a float, names where and key."""
    if key not in doc:
        raise ModelValidationError(f"{where} is missing required key {key!r}")
    value = doc[key]
    try:
        if _is_number(value):
            return float(value)
    except OverflowError:
        pass
    raise ModelValidationError(f"{where}: {key} must be a number, got {value!r}")


def network_from_dict(doc: dict) -> Network:
    """Build a validated Network from a scenario document.

    The document stores target SIRs in dB; _db_to_linear, which the CLI's dB
    sweep targets share, converts them, so all internal math stays linear.
    """
    if not isinstance(doc, dict):
        raise ModelValidationError(f"scenario must be a JSON object, got {type(doc).__name__}")
    alpha = _number(doc, "alpha", "scenario")
    if "tiers" not in doc:
        raise ModelValidationError("scenario is missing required key 'tiers'")
    raw_tiers = doc["tiers"]
    if not isinstance(raw_tiers, list) or not raw_tiers:
        raise ModelValidationError("tiers must be a non-empty list")
    tiers = []
    for i, entry in enumerate(raw_tiers, start=1):
        if not isinstance(entry, dict):
            raise ModelValidationError(f"tier {i} must be a JSON object, got {entry!r}")
        power, density, target_db, activity = (
            _number(entry, key, f"tier {i}")
            for key in ("power", "density", "target_sir_db", "activity")
        )
        tiers.append(Tier(power, density, _db_to_linear(target_db), activity))
    access = doc.get("access")
    if access is not None and not isinstance(access, list):
        raise ModelValidationError(f"access must be a list of tier indices, got {access!r}")
    return Network(alpha=alpha, tiers=tuple(tiers), access=access)


def network_to_json(network: Network, **kwargs) -> str:
    return json.dumps(network_to_dict(network), sort_keys=True, **kwargs)


def network_from_json(text: str) -> Network:
    return network_from_dict(json.loads(text))

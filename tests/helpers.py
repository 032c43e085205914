"""Shared construction and oracle helpers for the test suite."""

import math
import random

from scipy import integrate

from hetcov import Network, Tier, convergence_threshold


def hyp2f1_quadrature(a: float, b: float, c: float, z: float) -> float:
    """Independent oracle: adaptive quadrature of the Euler integral form
    Gamma(c)/(Gamma(b)Gamma(c-b)) * int_0^1 t^(b-1)(1-t)^(c-b-1)(1-tz)^(-a) dt."""
    front = math.gamma(c) / (math.gamma(b) * math.gamma(c - b))
    value, _ = integrate.quad(
        lambda t: t ** (b - 1.0) * (1.0 - t) ** (c - b - 1.0) * (1.0 - t * z) ** -a,
        0.0,
        1.0,
        limit=200,
    )
    return front * value


def random_tier(
    rng: random.Random,
    beta_range=(1.2, 6.0),
    activity_range=(0.35, 0.95),
    beta: float | None = None,
) -> Tier:
    return Tier(
        power=10.0 ** rng.uniform(-2.0, 1.0),
        density=10.0 ** rng.uniform(-1.0, 1.0),
        target_sir=beta if beta is not None else rng.uniform(*beta_range),
        activity=rng.uniform(*activity_range),
    )


def random_network(
    rng: random.Random,
    k: int | None = None,
    alpha: float | None = None,
    beta_range=(1.2, 6.0),
    activity_range=(0.35, 0.95),
    equal_beta: bool = False,
    closed: bool = False,
) -> Network:
    k = k if k is not None else rng.choice([1, 2, 3])
    alpha = alpha if alpha is not None else rng.uniform(2.6, 5.5)
    beta = rng.uniform(*beta_range) if equal_beta else None
    tiers = tuple(
        random_tier(rng, beta_range, activity_range, beta=beta) for _ in range(k)
    )
    access = None
    if closed and k > 1:
        keep = rng.randrange(1, k)
        access = list(range(1, keep + 1))
    return Network(alpha=alpha, tiers=tiers, access=access)


def random_converging_network(rng: random.Random, k: int | None = None) -> Network:
    """Network whose activity factors sit above the per-tier threshold, so the
    series envelope decays from the first term."""
    k = k if k is not None else rng.choice([1, 2, 3])
    alpha = rng.uniform(2.6, 5.5)
    tiers = []
    for _ in range(k):
        beta = rng.uniform(1.2, 8.0)
        floor = convergence_threshold(beta, alpha)
        tiers.append(
            Tier(
                power=10.0 ** rng.uniform(-2.0, 1.0),
                density=10.0 ** rng.uniform(-1.0, 1.0),
                target_sir=beta,
                activity=rng.uniform(min(floor + 0.08, 0.9), 0.97),
            )
        )
    return Network(alpha=alpha, tiers=tuple(tiers))


def coverage_mpmath(network: Network, digits: int = 40) -> float:
    """Independent oracle: the coverage series summed term by term in mpmath
    at the given working precision, from the tier parameters alone.

    Terms are added until the envelope ratio^m / Gamma(1 + 2m/alpha) is
    falling and below 10^-(digits - 10), so the result is exact to far
    below double precision whenever the peak term stays under 10^10.
    """
    import mpmath

    with mpmath.workdps(digits):
        alpha = mpmath.mpf(network.alpha)
        delta = 2 / alpha
        c_alpha = 2 * mpmath.pi**2 / (alpha * mpmath.sin(2 * mpmath.pi / alpha))
        tiers = [
            (
                i in network.access,
                mpmath.mpf(t.activity),
                mpmath.mpf(t.density) * mpmath.mpf(t.power) ** delta,
                mpmath.mpf(t.target_sir),
            )
            for i, t in enumerate(network.tiers, start=1)
        ]
        access = [(p, w, b) for acc, p, w, b in tiers if acc]
        eta = c_alpha * mpmath.fsum(p * w for _, p, w, _ in tiers)
        gamma = mpmath.pi * mpmath.gamma(1 + delta)
        ratio = gamma * mpmath.fsum((1 - p) * w * b**-delta for p, w, b in access) / eta
        head = mpmath.pi / eta * mpmath.fsum(p * w * b**-delta for p, w, b in access)
        total = mpmath.mpf(0)
        floor = mpmath.mpf(10) ** (10 - digits)
        prev_env = mpmath.mpf(1)
        m = 0
        while ratio > 0:
            m += 1
            env = ratio**m * mpmath.rgamma(1 + delta * m)
            hyper = mpmath.fsum(
                p * w * b**-delta * (1 + b) ** (-delta * m)
                * mpmath.hyp2f1(1, delta * m, 1 + (m + 1) * delta, 1 / (1 + b))
                for p, w, b in access
            )
            total += (-ratio) ** m * (
                mpmath.rgamma(1 + delta * m)
                - gamma / eta * hyper * mpmath.rgamma(1 + (m + 1) * delta)
            )
            if env < prev_env and env < floor:
                break
            prev_env = env
        return float(head - total)

"""Exact coverage-probability series, truncation bounds and special cases.

The coverage probability of the typical user under conditional interference
thinning is a fully-loaded head term minus an alternating correction series.
Term m scales like (A/eta)^m / Gamma(1 + 2m/alpha), where A/eta is the ratio
of the idle-candidate weight to the active-field interference scale: below
one the terms decay immediately, above one their envelope rises over a hump
before the factorial-type decay wins.  The stopping rule and the majorant
reported in traces both use the provable Gamma-form envelope.

Every series form (general, single tier, common target, idle-only, bounds
and traces) is one parameterisation of a single kernel that evaluates
blocks of term indices for many series at once, with the envelope in log
space so that no power of A/eta can overflow.

All results are exact when every target SIR exceeds 0 dB; lower targets are
computed as-is and flagged with AssumptionWarning (the idle-only variant
needs no such assumption).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .model import (
    AssumptionWarning,
    CoverageResult,
    ModelValidationError,
    Network,
    SeriesControl,
    Tier,
    derived_constants,
    effective_load,
    validation_warnings,
)

# The series no longer calls these two, but they stay importable here: the
# benchmark tracer wraps every name it counts at each module listed for it.
from .model import hypergeometric_sum  # noqa: F401
from .specfun import SeriesConvergenceError, gauss_2f1, interference_constant  # noqa: F401

__all__ = [
    "SeriesTermTrace",
    "laplace_interference",
    "correction_term",
    "correction_trace",
    "closed_form_first_terms",
    "full_load_coverage",
    "coverage",
    "coverage_bounds",
    "truncation_terms",
    "convergence_threshold",
    "coverage_single_tier",
    "coverage_equal_targets",
    "tier_addition_effect",
    "coverage_idle_only",
]

_DEFAULT_CONTROL = SeriesControl()

# Terms whose envelope exceeds exp(690) would overflow doubles, and long
# before that the alternating cancellation has exhausted double precision;
# the series driver aborts there and reports non-convergence.
_LOG_TERM_LIMIT = 690.0

# Unit roundoff u of double precision: a sum of terms whose magnitudes add
# up to S carries a rounding error of about u * S.
_UNIT_ROUNDOFF = 2.0**-53

# Term indices per series in the kernel's first block; each later block is
# twice the size of the one before.  Loaded networks stop within the first.
_FIRST_BLOCK = 32


def _warn_low_targets(network: Network) -> None:
    """Flag targets at or below 0 dB.  Only the two series builders call
    this, and every public caller builds its series in its own frame, so
    stacklevel 4 names the caller's line."""
    flags = validation_warnings(network)
    if flags:
        message = "; ".join(flags) + "; the value is returned unclamped"
        warnings.warn(message, AssumptionWarning, stacklevel=4)


def laplace_interference(network: Network, s: float) -> float:
    """Laplace transform of the aggregate active-field interference at s."""
    if s < 0.0:
        raise ValueError(f"Laplace argument must be non-negative, got {s}")
    scale = derived_constants(network).interference_scale
    return math.exp(-scale * s ** (2.0 / network.alpha))


@dataclass(frozen=True)
class _Series:
    """Parameters of one correction series, with delta = 2/alpha.

    Term m is (-ratio)^m [1/Gamma(1 + delta m) - pi Gamma(1 + delta)
    / Gamma(1 + (m+1) delta) * sum_i weights[i] (1 + betas[i])^(-delta m)
    2F1(1, delta m; 1 + (m+1) delta; 1/(1 + betas[i]))], and the coverage is
    base minus the sum of the terms.  No betas means idle-only terms.
    """

    alpha: float
    ratio: float
    base: float
    betas: tuple[float, ...] = ()
    weights: tuple[float, ...] = ()


def _network_series(network: Network) -> _Series:
    """The general series.  The head term's numerator and the hypergeometric
    sum run over the access tiers, each tier weighted by its active field;
    the head term's denominator keeps every tier because all tiers
    interfere.  Targets at or below 0 dB warn."""
    _warn_low_targets(network)
    dc = derived_constants(network)
    two_over = 2.0 / network.alpha
    access = [t for _, t in network.access_tiers()]
    active = [
        t.activity * t.density * t.power**two_over * t.target_sir**-two_over
        for t in access
    ]
    denominator = sum(t.activity * t.density * t.power**two_over for t in network.tiers)
    return _Series(
        alpha=network.alpha,
        ratio=dc.a_over_eta,
        base=math.pi / dc.c_alpha * sum(active) / denominator,
        betas=tuple(t.target_sir for t in access),
        weights=tuple(a / dc.interference_scale for a in active),
    )


def _hyper_rows(delta: np.ndarray, beta: np.ndarray, m: np.ndarray) -> np.ndarray:
    """(1 + beta)^(-delta m) 2F1(1, delta m; 1 + (m+1) delta; 1/(1 + beta))
    for every row (delta, beta) and every index in m."""
    # Here, in _series_terms and in correction_trace, scipy.special is
    # imported on the first call, not with the package: it takes most of
    # the package's import time, and a thinning simulation never evaluates
    # a series
    from scipy.special import hyp2f1

    delta, beta = delta[:, None], beta[:, None]
    b = delta * m
    return (1.0 + beta) ** -b * hyp2f1(1.0, b, 1.0 + (m + 1.0) * delta, 1.0 / (1.0 + beta))


def _series_terms(
    series: list[_Series], control: SeriesControl, count: int | None = None
) -> list[tuple[list[float], bool]]:
    """(terms, converged) of every series, evaluated block by block.

    Each block computes a run of term indices for all series still going as
    arrays of shape (series x indices), with one row of hypergeometric
    factors per distinct (alpha, target) pair.  Without count a series stops
    at the first index whose term is below epsilon while its envelope
    ratio^m / Gamma(1 + 2m/alpha) is falling, so a small term inside the
    rising part (possible when ratio > 1) cannot end the summation early;
    it also stops before an envelope above exp(_LOG_TERM_LIMIT) and at the
    term cap.  converged is True only when the rule fired and the rounding
    error estimate u * sum |t_m| of the alternating sum stays within
    epsilon.  With count every series yields exactly count terms: no term
    is below a zero tolerance and no envelope exceeds an infinite limit.
    """
    from scipy.special import gammaln

    cap, epsilon, limit = control.max_terms, control.epsilon, _LOG_TERM_LIMIT
    if count is not None:
        cap, epsilon, limit = count, 0.0, math.inf
    rows: dict[tuple[float, float], int] = {}
    width = max((len(s.betas) for s in series), default=0)
    row_of = np.zeros((len(series), width), dtype=int)
    weight = np.zeros((len(series), width))
    for i, s in enumerate(series):
        for k, (beta, w) in enumerate(zip(s.betas, s.weights)):
            row_of[i, k] = rows.setdefault((2.0 / s.alpha, beta), len(rows))
            weight[i, k] = w
    row_delta = np.array([d for d, _ in rows])
    row_beta = np.array([beta for _, beta in rows])
    # Columns of the series still going; rows are dropped as series stop.
    live = np.arange(len(series))
    delta = np.array([[2.0 / s.alpha] for s in series])
    with np.errstate(divide="ignore"):
        log_ratio = np.log([[s.ratio] for s in series])
    log_pi_gamma = math.log(math.pi) + gammaln(1.0 + delta)
    prev_log_env = np.zeros((len(series), 1))
    terms_of: list[list[float]] = [[] for _ in series]
    fired = [False] * len(series)
    start, size = 1, _FIRST_BLOCK
    while live.size and start <= cap:
        stop = min(start + size, cap + 1)
        m = np.arange(start, stop, dtype=float)
        log_gamma = gammaln(1.0 + delta * np.arange(start, stop + 1.0))
        log_env = m * log_ratio - log_gamma[:, :-1]
        hyper = _hyper_rows(row_delta, row_beta, m)
        tail = (weight[:, :, None] * hyper[row_of]).sum(axis=1)
        kappa = np.exp(log_pi_gamma + log_gamma[:, :-1] - log_gamma[:, 1:])
        sign = np.where(m % 2.0 == 1.0, -1.0, 1.0)
        with np.errstate(over="ignore"):
            terms = sign * (1.0 - kappa * tail) * np.exp(np.minimum(log_env, limit))
        over = log_env > limit
        falling = log_env < np.concatenate((prev_log_env, log_env[:, :-1]), axis=1)
        halt = over | (falling & (np.abs(terms) < epsilon))
        first = halt.argmax(axis=1)
        at = np.arange(live.size)
        halted = halt[at, first]
        done = halted & ~over[at, first]
        keep = np.where(halted, first + done, m.size)
        for j, i in enumerate(live.tolist()):
            terms_of[i] += terms[j, : keep[j]].tolist()
            fired[i] = bool(done[j])
        going = ~halted
        live, delta, log_ratio = live[going], delta[going], log_ratio[going]
        log_pi_gamma, weight, row_of = log_pi_gamma[going], weight[going], row_of[going]
        prev_log_env = log_env[going, -1:]
        start, size = stop, 2 * size
    return [
        (terms, fired_ and _UNIT_ROUNDOFF * math.fsum(map(abs, terms)) <= epsilon)
        for terms, fired_ in zip(terms_of, fired)
    ]


def _coverage_of(series: list[_Series], control: SeriesControl) -> list[CoverageResult]:
    """Coverage results of many series from one kernel call, with the
    truncation bracket from the last two partial sums."""
    pending = iter(_series_terms([s for s in series if s.ratio != 0.0], control))
    results = []
    for s in series:
        base, ratio = s.base, s.ratio
        if ratio == 0.0:
            # Every correction term vanishes; the head term is exact.
            results.append(CoverageResult(base, base, base, 0, 0.0, True))
            continue
        terms, converged = next(pending)
        value = base - math.fsum(terms)
        previous = base - math.fsum(terms[:-1])
        lower, upper = (value, previous) if len(terms) % 2 == 0 else (previous, value)
        results.append(CoverageResult(value, lower, upper, len(terms), ratio, converged))
    return results


def correction_term(network: Network, m: int) -> float:
    """Signed term m of the coverage correction series.

    Closed access restricts the idle weight and the hypergeometric sum to
    the access tiers while the interference scale keeps all tiers.  Raises
    SeriesConvergenceError when the term is not finite (it overflows).
    Targets at or below 0 dB warn, as in coverage().
    """
    if m < 1:
        raise ValueError(f"term index must be >= 1, got {m}")
    series = _network_series(network)
    terms, _ = _series_terms([series], _DEFAULT_CONTROL, count=m)[0]
    if not math.isfinite(terms[-1]):
        raise SeriesConvergenceError(f"term {m} overflows (A/eta = {series.ratio:.4g})")
    return terms[-1]


@dataclass(frozen=True)
class SeriesTermTrace:
    """One step of the correction series.

    majorant is the provable envelope (A/eta)^m / Gamma(1 + 2m/alpha), which
    dominates the term magnitude for every index; partial_sum accumulates
    the terms up to this index.
    """

    index: int
    term: float
    majorant: float
    partial_sum: float


def correction_trace(
    network: Network,
    control: SeriesControl | None = None,
    *,
    count: int | None = None,
) -> list[SeriesTermTrace]:
    """Term-by-term trace of the correction series.

    With count given, exactly that many terms are emitted regardless of the
    stopping rule; otherwise the trace ends where the rule fires.  Terms
    whose envelope overflows are inf, and so is their majorant.  Targets at
    or below 0 dB warn, as in coverage().
    """
    from scipy.special import gammaln

    control = control or _DEFAULT_CONTROL
    if count is not None and count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    series = _network_series(network)
    if count is None and series.ratio == 0.0:
        return []
    terms, _ = _series_terms([series], control, count=count)[0]
    m = np.arange(1.0, len(terms) + 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        majorants = np.exp(m * np.log(series.ratio) - gammaln(1.0 + 2.0 * m / network.alpha))
    trace, exact, total = [], Fraction(0), 0.0
    for index, (term, majorant) in enumerate(zip(terms, majorants), start=1):
        # the exact running sum rounds as math.fsum of the prefix does, in
        # one pass; once the float sum is not finite (from the first
        # non-finite term on) it stays inf or nan, where fsum raises
        total += term
        if math.isfinite(total):
            exact += Fraction(term)
            total = float(exact)
        trace.append(SeriesTermTrace(index, term, float(majorant), total))
    return trace


def closed_form_first_terms(network: Network) -> tuple[float, float]:
    """First two correction terms in closed form for path-loss exponent 4.

    At alpha = 4 the hypergeometric sums collapse to elementary functions:
    term one via sqrt(1+beta) - sqrt(beta) written as a stable reciprocal
    sum, term two via the principal inverse cosecant, whose argument
    sqrt(1+beta) > 1 keeps the value in (0, pi/2).  Must agree with the
    general series terms to near machine precision.
    """
    if network.alpha != 4.0:
        raise ValueError(
            f"closed forms require alpha = 4 exactly, got {network.alpha}"
        )
    dc = derived_constants(network)
    ratio = dc.a_over_eta
    scale = dc.interference_scale
    sum_one = 0.0
    sum_two = 0.0
    for _, t in network.access_tiers():
        beta = t.target_sir
        weight = t.density * t.activity * math.sqrt(t.power)
        sum_one += weight / (math.sqrt(beta) * (math.sqrt(beta) + math.sqrt(1.0 + beta)))
        sum_two += weight * (
            1.0 / math.sqrt(beta) - math.asin(1.0 / math.sqrt(1.0 + beta))
        )
    g1 = -ratio * (2.0 / math.sqrt(math.pi) - math.pi**1.5 / scale * sum_one)
    g2 = ratio**2 * (1.0 - 2.0 * math.pi / scale * sum_two)
    return g1, g2


def full_load_coverage(network: Network) -> CoverageResult:
    """Head term of the series: the fully loaded network whose tier densities
    are thinned by their activity factors.

    Equals the whole coverage probability when every activity factor is one.
    The connectable numerator runs over the access tiers; the denominator
    keeps every tier because all tiers interfere.  Targets at or below 0 dB
    warn, as in coverage().
    """
    series = _network_series(network)
    return CoverageResult(series.base, series.base, series.base, 0, series.ratio, True)


def coverage(
    network: Network, control: SeriesControl | None = None
) -> CoverageResult:
    """Coverage probability of the typical user under conditional thinning.

    The mobile connects to the strongest accessible candidate; conditioned
    on that connection each tier-i interferer transmits independently with
    its activity factor.  Exact when every target SIR exceeds 0 dB (lower
    targets warn); converged is False when the term cap was hit while the
    envelope still exceeded epsilon, or when the rounding error of the
    alternating sum (u times the sum of the term magnitudes) exceeds epsilon.
    """
    control = control or _DEFAULT_CONTROL
    return _coverage_of([_network_series(network)], control)[0]


def coverage_batch(
    networks: list[Network], control: SeriesControl | None = None
) -> list[CoverageResult]:
    """coverage() of every network, with all their series evaluated together
    by one kernel call; each result equals coverage() of its network bit for
    bit."""
    control = control or _DEFAULT_CONTROL
    # map, not a comprehension: on Python 3.10 and 3.11 a comprehension is
    # a frame of its own, and the assumption flag would name it
    return _coverage_of(list(map(_network_series, networks)), control)


def coverage_bounds(network: Network, m: int) -> tuple[float, float]:
    """Sandwich bounds from truncating the series after 2m and 2m-1 terms.

    Both bracket the exact coverage for every m; the bracket width equals
    the magnitude of term 2m (up to one floating-point rounding of the
    endpoints), so the bounds tighten at the series decay rate once past
    the envelope hump.  Raises SeriesConvergenceError when one of the 2m
    terms is not finite.  Targets at or below 0 dB warn, as in coverage().
    """
    if m < 1:
        raise ValueError(f"bound order must be >= 1, got {m}")
    series = _network_series(network)
    terms, _ = _series_terms([series], _DEFAULT_CONTROL, count=2 * m)[0]
    if not all(map(math.isfinite, terms)):
        raise SeriesConvergenceError(
            f"a term of the first {2 * m} overflows (A/eta = {series.ratio:.4g})"
        )
    return series.base - math.fsum(terms), series.base - math.fsum(terms[:-1])


def truncation_terms(
    network: Network, epsilon: float, max_terms: int = _DEFAULT_CONTROL.max_terms
) -> int:
    """Smallest series index whose term magnitude falls below epsilon on the
    decreasing side of the envelope.

    Raises SeriesConvergenceError when the term cap is hit first, or when
    the rounding error of the alternating sum exceeds epsilon.  Targets at
    or below 0 dB warn, as in coverage().
    """
    control = SeriesControl(epsilon=epsilon, max_terms=max_terms)
    series = _network_series(network)
    terms, converged = _series_terms([series], control)[0]
    if not converged:
        raise SeriesConvergenceError(
            f"series did not reach epsilon={epsilon} within {max_terms} terms "
            f"or its rounding error exceeds it (A/eta = {series.ratio:.4g})"
        )
    return len(terms)


def convergence_threshold(target_sir: float, alpha: float) -> float:
    """Activity level above which the series ratio stays below one.

    If every tier's activity exceeds the threshold of its own target, the
    envelope decays from the first term for any densities and powers.
    """
    if not target_sir > 0.0:
        raise ValueError(f"target_sir must be positive, got {target_sir}")
    c_alpha = interference_constant(alpha)
    return 1.0 / (
        1.0
        + c_alpha
        * target_sir ** (2.0 / alpha)
        / (math.pi * math.gamma(1.0 + 2.0 / alpha))
    )


def coverage_single_tier(
    power: float,
    density: float,
    target_sir: float,
    activity: float,
    alpha: float,
    control: SeriesControl | None = None,
) -> CoverageResult:
    """Single-tier coverage from the ratio forms of the series.

    Density and power cancel exactly in every ratio, which is the
    scale-invariance property of a single-tier network; the arguments are
    kept for interface symmetry and validation only, and the common-target
    ratio forms run on a tier of unit power and density.  Must agree with
    the general series on the equivalent one-tier network to near machine
    precision.
    """
    tier = Tier(power=power, density=density, target_sir=target_sir, activity=activity)
    if tier.activity == 0.0:
        raise ModelValidationError(
            "single-tier activity of zero leaves no interference field"
        )
    unit = Network(alpha=alpha, tiers=(replace(tier, power=1.0, density=1.0),))
    return _coverage_of([_equal_target_series(unit)], control or _DEFAULT_CONTROL)[0]


def coverage_equal_targets(
    network: Network, control: SeriesControl | None = None
) -> CoverageResult:
    """K-tier coverage when all tiers share one target SIR.

    Uses the reduced ratio forms, where only the weighted activity mix
    enters; equals the general series to near machine precision, and
    collapses to the single-tier result when all activity factors agree.
    """
    targets = {t.target_sir for t in network.tiers}
    if len(targets) != 1:
        raise ModelValidationError(
            f"equal-target coverage requires one common target SIR, got {sorted(targets)}"
        )
    series = _equal_target_series(network)
    return _coverage_of([series], control or _DEFAULT_CONTROL)[0]


def _equal_target_series(network: Network) -> _Series:
    """The common-target series; a target at or below 0 dB warns."""
    _warn_low_targets(network)
    alpha = network.alpha
    two_over = 2.0 / alpha
    c_alpha = interference_constant(alpha)
    beta = network.tiers[0].target_sir
    weights = [t.density * t.power**two_over for t in network.tiers]
    active_all = sum(t.activity * w for t, w in zip(network.tiers, weights))
    active_acc = sum(
        t.activity * weights[i - 1] for i, t in network.access_tiers()
    )
    idle_acc = sum(
        (1.0 - t.activity) * weights[i - 1] for i, t in network.access_tiers()
    )
    ratio = (
        math.pi
        * math.gamma(1.0 + two_over)
        * idle_acc
        / (c_alpha * beta**two_over * active_all)
    )
    base = math.pi / c_alpha * beta**-two_over * active_acc / active_all
    weight = active_acc / (c_alpha * beta**two_over * active_all)
    return _Series(alpha, ratio, base, (beta,), (weight,))


def tier_addition_effect(network: Network, new_tier: Tier) -> str:
    """Predict whether appending new_tier raises, lowers or preserves the
    equal-target coverage.

    Coverage strictly decreases in the effective load, so the comparison of
    the new tier's activity against the current effective load decides the
    direction; equality within 1e-12 counts as unchanged.
    """
    targets = {t.target_sir for t in network.tiers} | {new_tier.target_sir}
    if len(targets) != 1:
        raise ModelValidationError(
            "tier-addition comparison requires a common target SIR across "
            "the existing tiers and the new tier"
        )
    p_eff = effective_load(network)
    if abs(new_tier.activity - p_eff) <= 1e-12:
        return "unchanged"
    return "increases" if new_tier.activity < p_eff else "decreases"


def coverage_idle_only(
    network: Network, control: SeriesControl | None = None
) -> CoverageResult:
    """Coverage when only idle base stations may serve.

    Models a predefined active set the mobile cannot join: the connection
    succeeds when some accessible idle candidate beats its target against
    the whole active field.  Exact for every positive target (the single
    candidate assumption is never needed here).
    """
    control = control or _DEFAULT_CONTROL
    # The terms are (-ratio)^m / Gamma(1 + 2m/alpha): no hypergeometric part.
    # ratio == 0 means no idle candidates exist at all, so the mobile can
    # never connect and the result degenerates to the correct value of 0.
    ratio = derived_constants(network).a_over_eta
    return _coverage_of([_Series(network.alpha, ratio, 0.0)], control)[0]

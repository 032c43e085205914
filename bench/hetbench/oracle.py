"""Independent high-precision reference for the coverage series.

The reference sums the same mathematical series as the program, but in
mpmath and split into two absolutely convergent parts, each at a working
precision set from its own peak term:

    coverage = head - (E_delta(-r) - 1) + sum_m (-r)^m G h_m / Gamma(1+(m+1)delta)

with delta = 2/alpha, r = A/eta the idle-to-active ratio, E_delta the
Mittag-Leffler function (its power series is summed directly) and
h_m = sum_i p_i w_i beta_i^-delta (1+beta_i)^(-delta m)
      2F1(1, delta m; 1+(m+1)delta; 1/(1+beta_i)) over the access tiers.
The hypergeometric part peaks at r (1+beta)^-delta < r, so it needs far fewer
digits than the Mittag-Leffler part.  Nothing here imports the program under
test; scenario documents use the CLI's JSON layout (targets in dB).

Every reference is accurate to about 1e-20 absolute, far below the 1e-10
series tolerance the benchmark checks against.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import mpmath

from .workloads import log10_peak

DIGITS = 20  # absolute accuracy of every reference, in decimal digits
_GUARD = 12  # extra working digits on top of the peak term and DIGITS


def _key(kind: str, *parts) -> str:
    text = json.dumps([kind, *parts], sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(text.encode()).hexdigest()


def _terms_needed(ratio: float, delta: float, m: int) -> bool:
    """True while the envelope ratio^m / Gamma(1+delta m) is still rising or
    above the accuracy target, so the loop must go on past index m."""
    if ratio <= 0.0:
        return False
    log_env = m * math.log(ratio) - math.lgamma(1.0 + delta * m)
    prev = (m - 1) * math.log(ratio) - math.lgamma(1.0 + delta * (m - 1))
    return log_env >= prev or log_env > -(DIGITS + 5) * math.log(10.0)


class _Net:
    """Scenario constants at the current mpmath precision."""

    def __init__(self, doc: dict):
        self.alpha = mpmath.mpf(doc["alpha"])
        self.delta = 2 / self.alpha
        k = len(doc["tiers"])
        access = set(doc.get("access") or range(1, k + 1))
        self.tiers = []
        for i, t in enumerate(doc["tiers"], start=1):
            beta = mpmath.power(10, mpmath.mpf(t["target_sir_db"]) / 10)
            weight = mpmath.mpf(t["density"]) * mpmath.power(t["power"], self.delta)
            self.tiers.append((i in access, mpmath.mpf(t["activity"]), weight, beta))
        a = self.alpha
        self.c_alpha = 2 * mpmath.pi**2 / (a * mpmath.sin(2 * mpmath.pi / a))
        self.active = mpmath.fsum(p * w for _, p, w, _ in self.tiers)
        self.eta = self.c_alpha * self.active
        g = mpmath.pi * mpmath.gamma(1 + self.delta)
        self.idle = g * mpmath.fsum(
            (1 - p) * w * b**-self.delta for acc, p, w, b in self.tiers if acc
        )
        self.ratio = self.idle / self.eta
        self.head = (
            mpmath.pi
            / self.c_alpha
            * mpmath.fsum(p * w * b**-self.delta for acc, p, w, b in self.tiers if acc)
            / self.active
        )
        self.hyper_scale = g / self.eta


def _plan(doc: dict) -> tuple[float, float, float, float]:
    """Float estimates (ratio, delta, log10 peak of each part) for choosing
    working precision and term counts."""
    with mpmath.workdps(20):
        net = _Net(doc)
        ratio = float(net.ratio)
        delta = float(net.delta)
        damp = max(
            (float((1 + b) ** -net.delta) for acc, _, _, b in net.tiers if acc),
            default=0.0,
        )
    return ratio, delta, log10_peak(ratio, delta), log10_peak(ratio * damp, delta)


def _dps(peak: float) -> int:
    return int(max(peak, 0.0)) + DIGITS + _GUARD


def _mittag_leffler_part(doc: dict, peak: float) -> tuple[float, float, float]:
    """(head term, E_delta(-r) - 1, r)."""
    with mpmath.workdps(_dps(peak)):
        net = _Net(doc)
        ratio_f, delta_f = float(net.ratio), float(net.delta)
        total = mpmath.mpf(0)
        power = mpmath.mpf(1)
        m = 0
        while True:
            m += 1
            power *= -net.ratio
            total += power * mpmath.rgamma(1 + net.delta * m)
            if not _terms_needed(ratio_f, delta_f, m):
                break
        return float(net.head), float(total), ratio_f


def _hyper_terms(net: _Net, m: int) -> mpmath.mpf:
    """(-r)^m G h_m / Gamma(1 + (m+1) delta) at the current precision."""
    d = net.delta
    h = mpmath.fsum(
        p
        * w
        * b**-d
        * (1 + b) ** (-d * m)
        * mpmath.hyp2f1(1, d * m, 1 + (m + 1) * d, 1 / (1 + b))
        for acc, p, w, b in net.tiers
        if acc
    )
    return (-net.ratio) ** m * net.hyper_scale * h * mpmath.rgamma(1 + (m + 1) * d)


def _hyper_part(doc: dict, ratio: float, delta: float, damp_peak: float) -> float:
    with mpmath.workdps(_dps(damp_peak)):
        net = _Net(doc)
        damp = max(float((1 + b) ** -net.delta) for acc, _, _, b in net.tiers if acc)
        total = mpmath.mpf(0)
        m = 0
        while True:
            m += 1
            total += _hyper_terms(net, m)
            if not _terms_needed(ratio * damp, delta, m):
                break
        return float(total)


class Oracle:
    """Cached references, keyed by the generated input.

    Values are computed on first request and kept in memory; load() and
    save() carry them across runs in one JSON file, so a rerun with the same
    workload seed computes nothing.
    """

    def __init__(self, cache_path: str | None = None):
        self.cache_path = cache_path
        self.cache: dict[str, object] = {}
        self.computed = 0

    def load(self) -> None:
        if self.cache_path and os.path.exists(self.cache_path):
            with open(self.cache_path, encoding="utf-8") as handle:
                self.cache = json.load(handle)

    def save(self) -> None:
        if self.cache_path:
            tmp = self.cache_path + ".tmp"
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(self.cache, handle)
            os.replace(tmp, self.cache_path)

    def _memo(self, key: str, compute):
        if key not in self.cache:
            self.cache[key] = compute()
            self.computed += 1
        return self.cache[key]

    def coverage(self, doc: dict) -> dict:
        """Reference values of one scenario: the load-aware coverage, the
        fully loaded head term, the idle-only coverage 1 - E_delta(-r), the
        ratio r and the log10 peak term of the series."""

        def compute():
            ratio, delta, peak, damp_peak = _plan(doc)
            if ratio == 0.0:
                with mpmath.workdps(DIGITS + _GUARD):
                    head = float(_Net(doc).head)
                return {"value": head, "full_load": head, "idle_only": 0.0,
                        "ratio": 0.0, "log10_peak": 0.0}
            head, ml_part, ratio = _mittag_leffler_part(doc, peak)
            hyper = _hyper_part(doc, ratio, delta, damp_peak)
            return {
                "value": head - ml_part + hyper,
                "full_load": head,
                "idle_only": -ml_part,
                "ratio": ratio,
                "log10_peak": peak,
            }

        return self._memo(_key("coverage", doc), compute)

    def series_terms(self, doc: dict, count: int) -> list[float]:
        """Signed correction terms t_1..t_count (coverage = head - sum t_m)."""

        def compute():
            ratio, delta, peak, _ = _plan(doc)
            with mpmath.workdps(_dps(peak)):
                net = _Net(doc)
                terms = []
                power = mpmath.mpf(1)
                for m in range(1, count + 1):
                    power *= -net.ratio
                    head = power * mpmath.rgamma(1 + net.delta * m)
                    terms.append(float(head - _hyper_terms(net, m)))
                return terms

        return self._memo(_key("terms", doc, count), compute)

    def activities(self, doc: dict, user_density: float, blocks: int) -> list[float]:
        """Per-tier activity min(1, lu/B * s_i / sum_j lambda_j s_j) with
        s_i = (P_i / beta_i)^delta."""

        def compute():
            with mpmath.workdps(DIGITS + _GUARD):
                delta = 2 / mpmath.mpf(doc["alpha"])
                shares = [
                    mpmath.power(
                        mpmath.mpf(t["power"])
                        / mpmath.power(10, mpmath.mpf(t["target_sir_db"]) / 10),
                        delta,
                    )
                    for t in doc["tiers"]
                ]
                denom = mpmath.fsum(
                    mpmath.mpf(t["density"]) * s for t, s in zip(doc["tiers"], shares)
                )
                load = mpmath.mpf(user_density) / blocks
                return [float(min(1, load * s / denom)) for s in shares]

        return self._memo(_key("activities", doc, user_density, blocks), compute)


def with_activities(doc: dict, activities) -> dict:
    """Copy of a scenario document with its activity factors replaced."""
    tiers = [dict(t, activity=float(a)) for t, a in zip(doc["tiers"], activities)]
    return dict(doc, tiers=tiers)


# ROADMAP's reference: one tier, alpha = 4, beta = 2, p = 0.05, computed
# independently with an 80-digit series.
ROADMAP_CASE = {
    "alpha": 4.0,
    "tiers": [{"power": 1.0, "density": 1.0,
               "target_sir_db": 10.0 * math.log10(2.0), "activity": 0.05}],
}
ROADMAP_VALUE = 0.995252087


def self_check(oracle: Oracle | None = None) -> list[str]:
    """Problems found by the oracle's self-checks; empty when all pass.

    1. The ROADMAP value above, to its nine printed decimals.
    2. At alpha = 4 the idle-only coverage is 1 - erfcx(r) exactly
       (E_1/2(-x) = exp(x^2) erfc(x)); erfcx is evaluated by mpmath's own
       error function, independently of the series.
    """
    oracle = oracle or Oracle()
    problems = []
    value = oracle.coverage(ROADMAP_CASE)["value"]
    if not abs(value - ROADMAP_VALUE) <= 1e-9:
        problems.append(f"ROADMAP case: {value!r} != {ROADMAP_VALUE}")
    for activity in (0.9, 0.5, 0.1, 0.03):
        doc = with_activities(ROADMAP_CASE, [activity])
        ref = oracle.coverage(doc)
        with mpmath.workdps(40):
            r = mpmath.mpf(ref["ratio"])
            expected = float(1 - mpmath.exp(r * r) * mpmath.erfc(r))
        # r itself passes through a double, which moves 1 - erfcx(r) by at
        # most |d/dr erfcx| * ulp(r) < 1e-15 here.
        if not abs(ref["idle_only"] - expected) <= 2e-15:
            problems.append(
                f"erfcx identity at p={activity}: {ref['idle_only']!r} != {expected!r}"
            )
    return problems

"""Scalar special functions: the interference constant of the coverage
formulas, and pure-Python references.

The correction series takes its 2F1 factors and log-gamma values from
scipy's hyp2f1 and gammaln; gauss_2f1, log_gamma and SeriesTolerance are
reference implementations that the tests compare against (gauss_2f1 also
serves the per-term hypergeometric_sum).  Everything here is a pure
function of its arguments, so it can be called concurrently from any
number of threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "SeriesTolerance",
    "SeriesConvergenceError",
    "log_gamma",
    "gauss_2f1",
    "interference_constant",
]


class SeriesConvergenceError(ArithmeticError):
    """A truncated series failed to meet its tolerance within the term cap."""


@dataclass(frozen=True)
class SeriesTolerance:
    """Truncation control for power-series evaluation."""

    rel_tol: float = 1e-13
    max_terms: int = 500

    def __post_init__(self) -> None:
        if not self.rel_tol > 0.0:
            raise ValueError(f"rel_tol must be positive, got {self.rel_tol}")
        if self.max_terms < 1:
            raise ValueError(f"max_terms must be >= 1, got {self.max_terms}")


_DEFAULT_TOLERANCE = SeriesTolerance()


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0.

    Relative error sits at the double-precision floor (well under 1e-12 on
    [0.5, 200]), which is what the series coefficients downstream need.
    """
    if not x > 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def gauss_2f1(
    a: float,
    b: float,
    c: float,
    z: float,
    tol: SeriesTolerance | None = None,
) -> float:
    """Gauss hypergeometric function 2F1(a, b; c; z) for 0 <= z < 1.

    Evaluated with the defining power series.  Every internal call site has
    z = 1/(1 + target SIR), which is below 1/2 once targets exceed 0 dB; the
    term ratio is then bounded by z, so the series converges at least
    geometrically.  The tests validate values against adaptive quadrature of
    the Euler integral representation.
    """
    if tol is None:
        tol = _DEFAULT_TOLERANCE
    if not 0.0 <= z < 1.0:
        raise ValueError(f"gauss_2f1 requires 0 <= z < 1, got {z}")
    if not c > 0.0:
        raise ValueError(f"gauss_2f1 requires c > 0, got {c}")
    if a == 0.0 or b == 0.0 or z == 0.0:
        return 1.0
    total = 1.0
    term = 1.0
    for n in range(tol.max_terms):
        term *= (a + n) * (b + n) / ((c + n) * (1.0 + n)) * z
        total += term
        if abs(term) <= tol.rel_tol * abs(total):
            return total
    raise SeriesConvergenceError(
        f"2F1 series did not converge within {tol.max_terms} terms "
        f"(a={a}, b={b}, c={c}, z={z})"
    )


def interference_constant(alpha: float) -> float:
    """Shot-noise constant 2*pi^2*csc(2*pi/alpha)/alpha of the interference
    Laplace exponent.

    Diverges as alpha approaches 2 from above (the cosecant argument reaches
    pi and the underlying interference integral stops converging), so the
    path-loss exponent must exceed 2.
    """
    if not alpha > 2.0:
        raise ValueError(f"path-loss exponent must exceed 2, got {alpha}")
    return 2.0 * math.pi**2 / (alpha * math.sin(2.0 * math.pi / alpha))

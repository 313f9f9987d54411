"""Deformed Gamma function and its growth (Stirling-type) diagnostic.

The deformed Gamma is pinned by two requirements: at positive integers it
reproduces the cached deformed factorials *bit-identically*
(gamma_log(n + 1) == log [n]!), and everywhere it satisfies the recurrence

    Gamma(x + 1) = R(p^x, q^x) * Gamma(x).

Between integers the function is fixed by a log-linear base on [1, 2)
(log Gamma(1) = 0 to log Gamma(2) = log R(p, q)) extended by the recurrence:
for x = n + d with n = floor(x), d = frac(x),

    log Gamma(x) = d * log R(p, q) + sum_{j=1}^{n-1} log R(p^(d+j), q^(d+j)),

and one downward recurrence step covers (0, 1).  Because floor/frac of a
double are exact, evaluating the recurrence at x and x + 1 cancels term by
term, which is what makes the residual of ``recurrence_check`` sit at
rounding level rather than interpolation level.

The Stirling-type diagnostic reports the residual sequence

    D_k = gamma_log(z_k) - [(z_k - 1/2) * log R(p^k, q^k) - z_k]

along a linear drift z_k = slope * k + offset.  It is a *diagnostic*: the
asymptotic form it probes holds only under growth hypotheses a given kernel
may fail, so the report says whether the sequence stabilised instead of
asserting it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    NonIntegerUnsupported,
    NonPositiveShiftedLattice,
    OutOfRange,
)
from .kernel import DeformedContext, kernel_value

BASE_INTERPOLATED = "interpolated"
BASE_INTEGER_ONLY = "integer-only"
_BASE_MODES = (BASE_INTERPOLATED, BASE_INTEGER_ONLY)


@dataclass(frozen=True)
class GammaConfig:
    """Evaluation policy for the deformed Gamma over a fixed context.

    Raises:
        DomainError: ``base_mode`` is not one of the two base modes.
    """

    context: DeformedContext
    base_mode: str = BASE_INTERPOLATED

    def __post_init__(self):
        if self.base_mode not in _BASE_MODES:
            raise DomainError(
                f"base_mode must be one of {_BASE_MODES}, got {self.base_mode!r}"
            )


def _log_shifted(cfg: GammaConfig, x: float) -> float:
    """log R(p^x, q^x) with positivity checked at every evaluation."""
    spec = cfg.context.spec
    val = kernel_value(spec, spec.p**x, spec.q**x)
    if not math.isfinite(val) or val <= 0.0:
        raise NonPositiveShiftedLattice(
            f"shifted lattice value R(p^x, q^x) at x={x!r} is {val!r}"
        )
    return math.log(val)


def gamma_log(cfg: GammaConfig, x: float) -> float:
    """log of the deformed Gamma at real x > 0.

    Raises:
        DomainError: x <= 0 or not finite.
        NonIntegerUnsupported: non-integer x in integer-only base mode.
        OutOfRange: integer x beyond the factorial cache.
        NonPositiveShiftedLattice: a required shifted lattice value is <= 0.
    """
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"gamma_log needs finite x > 0, got {x!r}")

    n = math.floor(x)
    if x == n:
        # Integer point: the cache is the definition.
        if n - 1 > cfg.context.order_cap:
            raise OutOfRange(
                f"gamma_log({x}) needs factorial {n - 1} beyond cache "
                f"(order_cap={cfg.context.order_cap})"
            )
        return cfg.context.log_factorial(n - 1)

    if cfg.base_mode == BASE_INTEGER_ONLY:
        raise NonIntegerUnsupported(
            f"x={x!r} is not an integer and base_mode is integer-only"
        )

    delta = x - n  # exact: n = floor(x), so the subtraction loses no bits
    base = delta * cfg.context.log_number(1)
    if n == 0:
        # One downward recurrence step from the [1, 2) base.
        return base - _log_shifted(cfg, delta)
    terms = [_log_shifted(cfg, delta + j) for j in range(1, n)]
    return math.fsum([base] + terms)


def recurrence_check(cfg: GammaConfig, x: float) -> float:
    """|gamma_log(x + 1) - gamma_log(x) - log R(p^x, q^x)| at x > 0."""
    lhs = gamma_log(cfg, x + 1.0) - gamma_log(cfg, x)
    return abs(lhs - _log_shifted(cfg, x))


@dataclass(frozen=True)
class StirlingDiagnostic:
    """Residual report for the Stirling-type growth form along z_k = slope*k + offset.

    ``gamma_logs[i]`` and ``residuals[i]`` hold gamma_log(z_k) and D_k for
    k = k_window[0] + i.
    """

    slope: float
    offset: float
    k_window: tuple[int, int]
    residuals: np.ndarray
    stabilized: bool
    c_estimate: float
    gamma_logs: np.ndarray


#: relative flatness threshold for declaring the residual sequence stabilised
STABILIZATION_FRACTION = 0.05


def stirling_diagnostic(
    cfg: GammaConfig, slope: float, offset: float, k_window: tuple[int, int]
) -> StirlingDiagnostic:
    """Evaluate D_k = gamma_log(z_k) - [(z_k - 1/2) log R(p^k, q^k) - z_k].

    The sequence is declared stabilised when, over the upper half of the
    window, max(D) - min(D) <= 0.05 * (max |D| + 1); ``c_estimate`` is
    exp(mean D) over that same upper half.  A window of length 1 is
    trivially stabilised.
    """
    if slope <= 0.0 or offset <= 0.0:
        raise DomainError(
            f"drift parameters must be positive, got slope={slope!r}, offset={offset!r}"
        )
    k_lo, k_hi = int(k_window[0]), int(k_window[1])
    if k_lo > k_hi:
        raise OutOfRange(f"empty window {k_window!r}")
    if k_lo < 1 or k_hi > cfg.context.order_cap:
        raise OutOfRange(
            f"window {k_window!r} outside lattice cache [1, {cfg.context.order_cap}]"
        )

    z = slope * np.arange(k_lo, k_hi + 1, dtype=float) + offset
    gamma_logs = np.array([gamma_log(cfg, z_k) for z_k in z])
    residuals = gamma_logs - ((z - 0.5) * cfg.context.log_numbers[k_lo - 1 : k_hi] - z)

    upper = residuals[residuals.size // 2 :]
    spread = float(np.max(upper) - np.min(upper))
    scale = float(np.max(np.abs(upper))) + 1.0
    stabilized = spread <= STABILIZATION_FRACTION * scale
    c_estimate = float(np.exp(np.mean(upper)))

    residuals.setflags(write=False)
    gamma_logs.setflags(write=False)
    return StirlingDiagnostic(
        slope=float(slope),
        offset=float(offset),
        k_window=(k_lo, k_hi),
        residuals=residuals,
        stabilized=stabilized,
        c_estimate=c_estimate,
        gamma_logs=gamma_logs,
    )

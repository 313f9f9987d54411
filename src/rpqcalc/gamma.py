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

Points that share a fractional part d share their terms: log Gamma(n + d) is
d * log R(p, q) plus the first n - 1 entries of one table
log R(p^(d+j), q^(d+j)), j = 1, 2, ...  Within one call the points are grouped
by their exact d and each group's table is evaluated once, up to the group's
largest floor.  Floor and frac of a double are exact, so every point still
sends the same floats to the same ``math.fsum`` as it would alone: sharing
changes no bit, only how often the kernel is evaluated.  A Stirling window at
slope 1 has few distinct d (z_k = k + offset keeps one d per binade), so its
cost falls from about K^2/2 kernel evaluations to a few K.

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


def _real(value, name: str) -> float:
    """``float(value)``, with a non-real value reported as a DomainError."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(
            f"{name} must be a real number in double range, got {value!r}"
        ) from None


def _gamma_logs(cfg: GammaConfig, xs: list[float]) -> list[float]:
    """log Gamma at each x of ``xs``, as ``gamma_log`` defines it.

    Integer points read the factorial cache.  Non-integer points are grouped
    by their exact fractional part d, and each group's shifted-lattice terms
    are evaluated once and shared (see the module docstring).

    Raises:
        As ``gamma_log`` at each x.  Every x is checked before any term is
        evaluated, so where several x fail, the error reported may name a
        different x than one ``gamma_log`` call per x, in order, would.
    """
    out = [0.0] * len(xs)
    groups: dict[float, list[tuple[int, int]]] = {}
    for i, x in enumerate(xs):
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
            out[i] = cfg.context.log_factorial(n - 1)
        elif cfg.base_mode == BASE_INTEGER_ONLY:
            raise NonIntegerUnsupported(
                f"x={x!r} is not an integer and base_mode is integer-only"
            )
        else:
            # exact: n = floor(x), so the subtraction loses no bits
            groups.setdefault(x - n, []).append((i, n))

    log_one = cfg.context.log_number(1)
    for delta, members in groups.items():
        base = delta * log_one
        top = max(n for _, n in members)
        terms = [_log_shifted(cfg, delta + j) for j in range(1, top)]
        for i, n in members:
            if n == 0:
                # One downward recurrence step from the [1, 2) base.
                out[i] = base - _log_shifted(cfg, delta)
            else:
                out[i] = math.fsum([base] + terms[: n - 1])
    return out


def gamma_log(cfg: GammaConfig, x: float) -> float:
    """log of the deformed Gamma at real x > 0.

    Raises:
        DomainError: x is not a real number, or x <= 0, or not finite.
        NonIntegerUnsupported: non-integer x in integer-only base mode.
        OutOfRange: integer x beyond the factorial cache.
        NonPositiveShiftedLattice: a required shifted lattice value is <= 0.
    """
    return _gamma_logs(cfg, [_real(x, "x")])[0]


def recurrence_check(cfg: GammaConfig, x: float) -> float:
    """|gamma_log(x + 1) - gamma_log(x) - log R(p^x, q^x)| at x > 0.

    Raises:
        DomainError: x is not a real number, or x <= 0, or not finite.
        Otherwise as ``gamma_log`` at x + 1 and at x.
    """
    x = _real(x, "x")
    above, at = _gamma_logs(cfg, [x + 1.0, x])
    return abs(above - at - _log_shifted(cfg, x))


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
    log_c_estimate: float


#: relative flatness threshold for declaring the residual sequence stabilised
STABILIZATION_FRACTION = 0.05


def stirling_diagnostic(
    cfg: GammaConfig, slope: float, offset: float, k_window: tuple[int, int]
) -> StirlingDiagnostic:
    """Evaluate D_k = gamma_log(z_k) - [(z_k - 1/2) log R(p^k, q^k) - z_k].

    The sequence is declared stabilised when, over the upper half of the
    window, max(D) - min(D) <= 0.05 * (max |D| + 1); ``log_c_estimate`` is
    mean D over that same upper half and ``c_estimate`` its exp, which may
    overflow to inf or underflow to 0 where ``log_c_estimate`` stays finite.
    A window of length 1 is trivially stabilised.

    Raises:
        DomainError: slope or offset is not a real number, or not positive.
        OutOfRange: the window is empty or outside [1, order_cap].
        Otherwise as ``gamma_log`` at each z_k.
    """
    slope, offset = _real(slope, "slope"), _real(offset, "offset")
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
    gamma_logs = np.array(_gamma_logs(cfg, z.tolist()))
    residuals = gamma_logs - ((z - 0.5) * cfg.context.log_numbers[k_lo - 1 : k_hi] - z)

    upper = residuals[residuals.size // 2 :]
    spread = float(np.max(upper) - np.min(upper))
    scale = float(np.max(np.abs(upper))) + 1.0
    stabilized = spread <= STABILIZATION_FRACTION * scale
    log_c_estimate = np.mean(upper)
    with np.errstate(over="ignore"):
        c_estimate = float(np.exp(log_c_estimate))

    residuals.setflags(write=False)
    gamma_logs.setflags(write=False)
    return StirlingDiagnostic(
        slope=slope,
        offset=offset,
        k_window=(k_lo, k_hi),
        residuals=residuals,
        stabilized=stabilized,
        c_estimate=c_estimate,
        gamma_logs=gamma_logs,
        log_c_estimate=float(log_c_estimate),
    )

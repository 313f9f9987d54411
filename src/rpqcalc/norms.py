"""Weighted norms, radius estimators, and numerical bound checks.

The weighted norm of a truncated series is

    ||f||_{R,r} = sum_{n>=1} |a_n| R(p^n, q^n) r^n

(the n = 0 weight is R(1, 1) = 0, so this is a seminorm killing constants).
Accumulation happens in the log domain with a single log-sum-exp so the
factorial-sized weights of expanding kernels cannot overflow intermediate
terms.

The check functions return a :class:`BoundCheckReport` rather than raising:
``passed`` says whether the inequality held at the stated tolerance,
``worst_margin`` is min(bound - observed) over everything sampled, and
``witness`` names where the minimum occurred.  ``inconclusive`` marks
reports whose hypotheses could not be certified (used by the sector-based
checks that share this type).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import (
    DomainError,
    OutOfRange,
    PreconditionViolated,
    WindowTooSmall,
)
from .kernel import KIND_DIFFERENCE, DeformedContext
from .numbers import LOG_ZERO
from .series import (
    MODE_COMPOSITE,
    TruncatedSeries,
    _multipliers,
    _require_order_cached,
    circle_points,
    eval_on_circle,
)

#: tolerances pinned by the acceptance gates
COEF_BOUND_REL_TOL = 1e-12
SUP_BOUND_ABS_TOL = 1e-10
OPNORM_REL_TOL = 1e-9

DEFAULT_TAIL_WINDOW = 32
DEFAULT_CIRCLE_SAMPLES = 256

#: elements per temporary of one batch of opnorm trials (draws or circle values)
_TRIAL_BLOCK_ELEMENTS = 1 << 15

MODE_DEFORMED = "deformed"      # tail exponents weighted by 1/[k]!
MODE_CLASSICAL = "classical"    # plain |a_k|^(1/k)
RADIUS_MODES = (MODE_DEFORMED, MODE_CLASSICAL)


@dataclass(frozen=True)
class SeminormFamily:
    """Weight family w_m(k) = scales[m-1] * exp(rates[m-1] * k^2), m 1-based."""

    scales: tuple[float, ...]
    rates: tuple[float, ...]

    def __post_init__(self):
        scales = tuple(float(c) for c in self.scales)
        rates = tuple(float(l) for l in self.rates)
        if len(scales) != len(rates) or not scales:
            raise DomainError("scales and rates must be equally sized and non-empty")
        if any(c <= 0.0 for c in scales) or any(l <= 0.0 for l in rates):
            raise DomainError("seminorm scales and rates must all be positive")
        object.__setattr__(self, "scales", scales)
        object.__setattr__(self, "rates", rates)

    def __len__(self) -> int:
        return len(self.scales)


@dataclass(frozen=True)
class BoundCheckReport:
    """Outcome of a sampled inequality check."""

    passed: bool
    worst_margin: float
    witness: str
    trials: int
    inconclusive: bool = False
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "worst_margin": self.worst_margin,
            "witness": self.witness,
            "trials": self.trials,
            "inconclusive": self.inconclusive,
            "details": dict(self.details),
        }


def _logsumexp(logs: np.ndarray) -> float:
    """log(sum(exp(logs))) over finite entries; -inf for an empty/all-zero set."""
    logs = logs[np.isfinite(logs)]
    if logs.size == 0:
        return LOG_ZERO
    top = float(np.max(logs))
    return top + math.log(float(np.sum(np.exp(logs - top))))


def _log_abs_coeffs(f: TruncatedSeries) -> np.ndarray:
    mags = np.abs(f.coeffs)
    with np.errstate(divide="ignore"):
        return np.log(mags)


def log_weighted_norm(ctx: DeformedContext, f: TruncatedSeries, r: float) -> float:
    """log ||f||_{R,r}; -inf when the seminorm is zero."""
    if not (r > 0.0 and math.isfinite(r)):
        raise DomainError(f"radius must be positive and finite, got {r!r}")
    _require_order_cached(ctx, f)
    if f.order == 0:
        return LOG_ZERO
    log_a = _log_abs_coeffs(f)[1:]
    ns = np.arange(1, f.order + 1, dtype=float)
    term_logs = log_a + ctx.log_numbers[: f.order] + ns * math.log(r)
    return _logsumexp(term_logs)


def weighted_norm(ctx: DeformedContext, f: TruncatedSeries, r: float) -> float:
    """||f||_{R,r} in linear domain (0.0 for constants and the zero series).

    A norm beyond double range reads ``math.inf``; :func:`log_weighted_norm`
    still holds its finite logarithm.
    """
    lv = log_weighted_norm(ctx, f, r)
    if lv == LOG_ZERO:
        return 0.0
    try:
        return math.exp(lv)
    except OverflowError:
        return math.inf


def coefficient_bound_check(
    ctx: DeformedContext, f: TruncatedSeries, r: float
) -> BoundCheckReport:
    """Verify |a_n| <= ||f|| / (R(p^n, q^n) r^n) for every 1 <= n <= order.

    Tolerance is relative (1e-12); margins are reported in linear domain.
    A constant series passes vacuously with zero margin.
    """
    log_norm = log_weighted_norm(ctx, f, r)
    if f.order == 0:
        return BoundCheckReport(True, 0.0, "vacuous (constant series)", 0)

    log_a = _log_abs_coeffs(f)[1:]
    ns = np.arange(1, f.order + 1, dtype=float)
    log_bounds = log_norm - ctx.log_numbers[: f.order] - ns * math.log(r)

    # Comparison in log domain (overflow-safe); slack log1p(tol) ~ tol.
    ok = log_a <= log_bounds + math.log1p(COEF_BOUND_REL_TOL)
    margins = np.exp(log_bounds) - np.exp(log_a)
    worst = int(np.argmin(margins))
    return BoundCheckReport(
        passed=bool(np.all(ok)),
        worst_margin=float(margins[worst]),
        witness=f"n={worst + 1}",
        trials=int(f.order),
    )


def sup_disk_bound_check(
    ctx: DeformedContext,
    f: TruncatedSeries,
    r: float,
    rho_eval: float,
    samples: int = DEFAULT_CIRCLE_SAMPLES,
) -> BoundCheckReport:
    """Verify the sampled sup of |f| on |z| = rho_eval against the norm bound.

    Bound: ||f||_{R,r} * sum_{n>=1} (rho_eval / r)^n / R(p^n, q^n) + |a_0|,
    with the sum taken over the cached lattice range.  Absolute tolerance
    1e-10; requires 0 < rho_eval < r.
    """
    if not (0.0 < rho_eval < r):
        raise PreconditionViolated(
            f"need 0 < rho_eval < r, got rho_eval={rho_eval!r}, r={r!r}"
        )
    if samples < 1:
        raise OutOfRange(f"need a positive sample count, got {samples}")
    _require_order_cached(ctx, f)

    log_norm = log_weighted_norm(ctx, f, r)
    ns = np.arange(1, ctx.order_cap + 1, dtype=float)
    log_ratio = math.log(rho_eval) - math.log(r)
    log_sum = _logsumexp(ns * log_ratio - ctx.log_numbers)
    series_part = 0.0 if log_norm == LOG_ZERO else math.exp(log_norm + log_sum)
    bound = series_part + abs(complex(f.coeffs[0]))

    values = np.abs(eval_on_circle(f, rho_eval, samples))
    worst = int(np.argmax(values))
    observed = float(values[worst])
    return BoundCheckReport(
        passed=observed <= bound + SUP_BOUND_ABS_TOL,
        worst_margin=bound - observed,
        witness=f"angle_index={worst}",
        trials=int(samples),
    )


def cauchy_hadamard_radius(
    ctx: DeformedContext,
    f: TruncatedSeries,
    mode: str = MODE_DEFORMED,
    tail_window: int = DEFAULT_TAIL_WINDOW,
) -> float:
    """Radius-of-convergence surrogate from the last ``tail_window`` coefficients.

    ``deformed`` mode estimates 1 / limsup (|a_k| / [k]!)^(1/k); ``classical``
    drops the factorial weight.  Returns +inf when the examined tail is
    identically zero.
    """
    if mode not in RADIUS_MODES:
        raise DomainError(f"mode must be one of {RADIUS_MODES}, got {mode!r}")
    if tail_window < 4:
        raise WindowTooSmall(f"tail_window must be >= 4, got {tail_window}")
    if f.order < tail_window:
        raise WindowTooSmall(
            f"series order {f.order} is below tail_window {tail_window}"
        )
    if mode == MODE_DEFORMED:
        _require_order_cached(ctx, f)

    ks = np.arange(f.order - tail_window + 1, f.order + 1)
    log_a = _log_abs_coeffs(f)[ks]
    if mode == MODE_DEFORMED:
        log_a = log_a - ctx.log_factorials[ks]
    exponents = log_a[np.isfinite(log_a)] / ks[np.isfinite(log_a)].astype(float)
    if exponents.size == 0:
        return math.inf
    return math.exp(-float(np.max(exponents)))


def seminorm(fam: SeminormFamily, m: int, f: TruncatedSeries) -> float:
    """p_m(f) = max_k |a_k| / (scales[m-1] * exp(rates[m-1] * k^2))."""
    if not 1 <= m <= len(fam):
        raise OutOfRange(f"family index m={m} outside [1, {len(fam)}]")
    log_c = math.log(fam.scales[m - 1])
    rate = fam.rates[m - 1]
    ks = np.arange(f.coeffs.size, dtype=float)
    exponents = _log_abs_coeffs(f) - log_c - rate * ks**2
    exponents = exponents[np.isfinite(exponents)]
    if exponents.size == 0:
        return 0.0
    return math.exp(float(np.max(exponents)))


def _trial_block(order: int, samples: int) -> int:
    """Opnorm trials per batch, so no temporary exceeds ~_TRIAL_BLOCK_ELEMENTS."""
    return max(1, _TRIAL_BLOCK_ELEMENTS // max(samples, 2 * (order + 1)))


def operator_norm_inequality_check(
    ctx: DeformedContext,
    r: float,
    rho: float,
    trials: int,
    order: int,
    seed: int = 0,
    samples: int = DEFAULT_CIRCLE_SAMPLES,
) -> BoundCheckReport:
    """Sampled check of the derivative bound for the difference kernel:

        sup_{|z|=r} |df(z)| <= 1 / (rho * (1 - p r / rho)) * sup_{|z|=rho} |f(z)|

    over ``trials`` random complex polynomials of the given order (derivative
    in composite mode).  Requires the difference kernel and p*r/rho < 1;
    relative tolerance 1e-9.  Trial t's coefficients are the t-th pair of
    ``order + 1`` standard normals (real parts, then imaginary) drawn from
    ``default_rng(seed)``; trials are drawn and evaluated in batches from that
    one stream, and the witness is the first trial attaining the worst
    margin, so a report depends only on its arguments.
    """
    if ctx.spec.kind != KIND_DIFFERENCE:
        raise PreconditionViolated(
            f"operator bound is stated for the difference kernel, got {ctx.spec.kind}"
        )
    if not (r > 0.0 and rho > 0.0):
        raise PreconditionViolated(f"radii must be positive, got r={r!r}, rho={rho!r}")
    contraction = ctx.spec.p * r / rho
    if not contraction < 1.0:
        raise PreconditionViolated(
            f"need p*r/rho < 1, got {contraction!r}"
        )
    if trials < 1:
        raise OutOfRange(f"need at least one trial, got {trials}")
    if not 1 <= order <= ctx.order_cap:
        raise OutOfRange(f"order={order} outside [1, {ctx.order_cap}]")

    constant = 1.0 / (rho * (1.0 - contraction))
    mult = _multipliers(ctx, order, MODE_COMPOSITE)
    f_points = circle_points(rho, samples)
    df_points = circle_points(r, samples)
    block = _trial_block(order, samples)
    rng = np.random.default_rng(seed)
    passed = True
    worst_margin = math.inf
    witness = ""
    for start in range(0, trials, block):
        draws = rng.standard_normal((min(block, trials - start), 2, order + 1))
        coeffs = draws[:, 0] + 1j * draws[:, 1]
        sup_f = np.max(np.abs(npoly.polyval(f_points, coeffs.T)), axis=1)
        sup_df = np.max(np.abs(npoly.polyval(df_points, (coeffs[:, 1:] * mult).T)), axis=1)
        bound = constant * sup_f
        if np.any(sup_df > bound * (1.0 + OPNORM_REL_TOL)):
            passed = False
        # NaN margins (inf - inf) never count as the worst.
        margins = bound - sup_df
        margins[np.isnan(margins)] = math.inf
        i = int(np.argmin(margins))
        if margins[i] < worst_margin:
            worst_margin = float(margins[i])
            witness = f"trial={start + i}"
    return BoundCheckReport(
        passed=passed,
        worst_margin=worst_margin,
        witness=witness,
        trials=trials,
        details={"constant": constant},
    )

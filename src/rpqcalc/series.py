"""Truncated power series and the deformed derivative operators.

A :class:`TruncatedSeries` is a finite complex coefficient vector in
ascending degree.  The operators here are all diagonal or degree-shifting
maps on monomials:

* ``scale_op(f, b)``: z^n -> (b z)^n, i.e. a_n <- a_n b^n (the P and Q maps
  for b = p, q).
* ``pq_derivative``: z^n -> ((p^n - q^n)/(p - q)) z^(n-1).
* ``r_derivative``: the kernel derivative, in two multiplier conventions —
  ``composite`` uses R(p^(n-1), q^(n-1)) * (p^n - q^n)/(p^(n-1) - q^(n-1))
  with the degree-1 multiplier set to [1] (the n = 1 formula is 0/0), and
  ``canonical`` uses [n] directly.  The two agree for kernels proportional
  to u - v and can genuinely differ otherwise; ``algebra_diagnostic``
  reports both multipliers so the discrepancy is observable.
* ``invert_P_minus_Q``: diagonal inverse a_n / (p^n - q^n), defined only on
  series with (numerically) vanishing constant term.
* ``r_multiplier_op``: z^n -> [n] z^n (annihilates constants since [0] = 0).

Multipliers and 1/[n]! are read as slices of the context's cached logs; a
value beyond double range raises :class:`OutOfRange`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import (
    DegenerateParameters,
    DomainError,
    NotInSubspace,
    OutOfRange,
    ParameterDomain,
)
from .kernel import DeformedContext

MODE_COMPOSITE = "composite"
MODE_CANONICAL = "canonical"
DERIVATIVE_MODES = (MODE_COMPOSITE, MODE_CANONICAL)

#: constant terms at or below this magnitude count as zero for (P - Q)^{-1}
CONSTANT_TERM_TOL = 1e-14


@dataclass(frozen=True)
class TruncatedSeries:
    """Finite power series sum a_n z^n, coefficients ascending in n.

    Raises:
        DomainError: coefficients that are not a non-empty 1-D vector of
            finite complex numbers.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        try:
            arr = np.array(self.coeffs, dtype=complex)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"coefficients must be complex numbers: {exc}") from exc
        if arr.ndim != 1 or arr.size < 1:
            raise DomainError("coefficients must form a non-empty 1-D vector")
        if not np.all(np.isfinite(arr.view(float))):
            raise DomainError("coefficients must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def order(self) -> int:
        return self.coeffs.size - 1

    def coefficient(self, n: int) -> complex:
        return complex(self.coeffs[n]) if 0 <= n <= self.order else 0.0 + 0.0j

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = max(self.coeffs.size, other.coeffs.size)
        out = np.zeros(n, dtype=complex)
        out[: self.coeffs.size] = self.coeffs
        out[: other.coeffs.size] += other.coeffs
        return TruncatedSeries(out)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = max(self.coeffs.size, other.coeffs.size)
        out = np.zeros(n, dtype=complex)
        out[: self.coeffs.size] = self.coeffs
        out[: other.coeffs.size] -= other.coeffs
        return TruncatedSeries(out)

    def __mul__(self, scalar: complex) -> "TruncatedSeries":
        return TruncatedSeries(self.coeffs * scalar)

    __rmul__ = __mul__


def series_from_pairs(pairs: Sequence[Sequence[float]]) -> TruncatedSeries:
    """Build a series from the interchange format: [[re, im], ...] by degree.

    Raises:
        DomainError: ``pairs`` is empty or not a sequence of [re, im] pairs
            of finite reals.
    """
    try:
        coeffs = [complex(float(re), float(im)) for re, im in pairs]
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"series must be a list of [re, im] pairs: {exc}") from exc
    return TruncatedSeries(coeffs)


def series_to_pairs(f: TruncatedSeries) -> list[list[float]]:
    return [[float(c.real), float(c.imag)] for c in f.coeffs]


def eval_series(f: TruncatedSeries, z: complex) -> complex:
    """Horner evaluation of the truncated series at a point."""
    return complex(npoly.polyval(z, f.coeffs))


def circle_points(radius: float, count: int) -> np.ndarray:
    """``count`` equispaced points of the circle |z| = radius, from angle 0."""
    if count < 1:
        raise OutOfRange(f"need at least one sample point, got {count}")
    angles = 2.0 * np.pi * np.arange(count) / count
    return radius * np.exp(1j * angles)


def eval_on_circle(f: TruncatedSeries, radius: float, count: int) -> np.ndarray:
    """Values of f at the :func:`circle_points` of |z| = radius."""
    return npoly.polyval(circle_points(radius, count), f.coeffs)


def scale_op(f: TruncatedSeries, base: float) -> TruncatedSeries:
    """Composition with z -> base * z; diagonal factors base^n, base in (0, 1]."""
    if not (0.0 < base <= 1.0):
        raise ParameterDomain(f"scale base must lie in (0, 1], got {base!r}")
    factors = np.power(base, np.arange(f.coeffs.size, dtype=float))
    return TruncatedSeries(f.coeffs * factors)


def _require_order_cached(ctx: DeformedContext, f: TruncatedSeries) -> None:
    if f.order > ctx.order_cap:
        raise OutOfRange(f"series order {f.order} exceeds order_cap {ctx.order_cap}")


def _power_gaps(p: float, q: float, order: int) -> np.ndarray:
    """p^n - q^n for n = 1..order."""
    n = np.arange(1, order + 1, dtype=float)
    return np.power(p, n) - np.power(q, n)


def pq_derivative(f: TruncatedSeries, p: float, q: float) -> TruncatedSeries:
    """Two-parameter divided difference: z^n -> ((p^n - q^n)/(p - q)) z^(n-1)."""
    if p == q:
        raise DegenerateParameters("pq-derivative needs p != q")
    if f.order == 0:
        return TruncatedSeries(np.zeros(1, dtype=complex))
    return TruncatedSeries(f.coeffs[1:] * (_power_gaps(p, q, f.order) / (p - q)))


def _multipliers(ctx: DeformedContext, order: int, mode: str) -> np.ndarray:
    """Multipliers of the kernel derivative (``mode``) for degrees 1..order.

    Canonical: [n].  Composite: [n-1] (p^n - q^n) / (p^(n-1) - q^(n-1)), with
    the degree-1 multiplier pinned to [1] (the general formula is 0/0 there).

    Raises:
        OutOfRange: a multiplier is not finite in double precision.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        mult = np.exp(ctx.log_numbers[:order])
        if mode == MODE_COMPOSITE:
            gaps = _power_gaps(ctx.spec.p, ctx.spec.q, order)
            mult = np.concatenate((mult[:1], mult[:-1] * gaps[1:] / gaps[:-1]))
    bad = ~np.isfinite(mult)
    if np.any(bad):
        raise OutOfRange(
            f"{mode} multiplier of degree {int(np.argmax(bad)) + 1} "
            "is beyond double range"
        )
    return mult


def r_derivative(
    ctx: DeformedContext, f: TruncatedSeries, mode: str = MODE_COMPOSITE
) -> TruncatedSeries:
    """Kernel derivative of a truncated series; see module docstring for modes."""
    if mode not in DERIVATIVE_MODES:
        raise DomainError(f"mode must be one of {DERIVATIVE_MODES}, got {mode!r}")
    _require_order_cached(ctx, f)
    if f.order == 0:
        return TruncatedSeries(np.zeros(1, dtype=complex))
    return TruncatedSeries(f.coeffs[1:] * _multipliers(ctx, f.order, mode))


def invert_P_minus_Q(
    f: TruncatedSeries, p: float, q: float
) -> TruncatedSeries:
    """Diagonal inverse of (P - Q) on the subspace of vanishing constant term.

    Raises:
        NotInSubspace: |a_0| exceeds ``CONSTANT_TERM_TOL``.
        DegenerateParameters: p == q.
    """
    if p == q:
        raise DegenerateParameters("(P - Q) is zero when p == q")
    a0 = abs(complex(f.coeffs[0]))
    if a0 > CONSTANT_TERM_TOL:
        raise NotInSubspace(
            f"constant term magnitude {a0:.3e} exceeds {CONSTANT_TERM_TOL}"
        )
    out = np.zeros(f.coeffs.size, dtype=complex)
    out[1:] = f.coeffs[1:] / _power_gaps(p, q, f.order)
    return TruncatedSeries(out)


def r_multiplier_op(ctx: DeformedContext, f: TruncatedSeries) -> TruncatedSeries:
    """Diagonal map z^n -> [n] z^n; the constant term is annihilated exactly."""
    _require_order_cached(ctx, f)
    out = np.zeros(f.coeffs.size, dtype=complex)
    out[1:] = f.coeffs[1:] * _multipliers(ctx, f.order, MODE_CANONICAL)
    return TruncatedSeries(out)


def deformed_exponential(ctx: DeformedContext, order: int) -> TruncatedSeries:
    """Truncation of the deformed exponential: coefficients 1/[n]!.

    A 1/[n]! beyond double range raises :class:`OutOfRange` naming the
    largest order whose coefficients all fit.
    """
    if not 0 <= order <= ctx.order_cap:
        raise OutOfRange(f"order={order} outside [0, {ctx.order_cap}]")
    with np.errstate(over="ignore"):
        coeffs = np.exp(-ctx.log_factorials[: order + 1])
    bad = np.isinf(coeffs)
    if np.any(bad):
        n = int(np.argmax(bad))
        raise OutOfRange(
            f"1/[{n}]! is beyond double range; the largest representable "
            f"order is {n - 1}"
        )
    return TruncatedSeries(coeffs)


def algebra_diagnostic(ctx: DeformedContext, n: int) -> tuple[float, float]:
    """(composite multiplier, canonical multiplier) at degree n, linear domain.

    Equal (to rounding) for difference-type kernels; a genuine gap flags a
    kernel for which the two derivative conventions are different operators.
    """
    if not 1 <= n <= ctx.order_cap:
        raise OutOfRange(f"n={n} outside [1, {ctx.order_cap}]")
    return (
        float(_multipliers(ctx, n, MODE_COMPOSITE)[-1]),
        float(_multipliers(ctx, n, MODE_CANONICAL)[-1]),
    )

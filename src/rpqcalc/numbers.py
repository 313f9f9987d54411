"""Deformed combinatorial numbers: [n], [n]!, and binomials.

Values are carried as :class:`LogQuantity` — a log-domain float with an
explicit zero flag, since [0] = R(1, 1) = 0 has no finite logarithm.
Binomials are assembled from the cached log factorials with a canonical
subtraction order (smaller lower index first) so that the symmetry
binom(m, n) == binom(m, m - n) holds bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, OutOfRange
from .kernel import DeformedContext

#: the log of exact zero, shared by every log-domain quantity in the package
LOG_ZERO = float("-inf")


@dataclass(frozen=True)
class LogQuantity:
    """A nonnegative real carried as (log_value, zero_flag).

    zero_flag is True exactly when the quantity is 0, in which case
    log_value is -inf.

    Raises:
        DomainError: a zero flag with a finite log, or a nonzero quantity
            whose log is not finite.
    """

    log_value: float
    zero_flag: bool = False

    def __post_init__(self):
        if self.zero_flag and self.log_value != LOG_ZERO:
            raise DomainError("zero LogQuantity must carry log_value = -inf")
        if not self.zero_flag and not math.isfinite(self.log_value):
            raise DomainError(f"nonzero LogQuantity needs a finite log, got {self.log_value!r}")

    @classmethod
    def zero(cls) -> "LogQuantity":
        return cls(log_value=LOG_ZERO, zero_flag=True)

    @classmethod
    def from_log(cls, log_value: float) -> "LogQuantity":
        return cls(log_value=float(log_value), zero_flag=False)

    @classmethod
    def from_value(cls, value: float) -> "LogQuantity":
        if value < 0.0:
            raise DomainError("LogQuantity represents nonnegative reals")
        if value == 0.0:
            return cls.zero()
        return cls(log_value=math.log(value), zero_flag=False)

    def value(self) -> float:
        """Linear-domain value; ``math.inf`` beyond double range."""
        if self.zero_flag:
            return 0.0
        try:
            return math.exp(self.log_value)
        except OverflowError:
            return math.inf

    def __mul__(self, other: "LogQuantity") -> "LogQuantity":
        if self.zero_flag or other.zero_flag:
            return LogQuantity.zero()
        return LogQuantity.from_log(self.log_value + other.log_value)

    def __truediv__(self, other: "LogQuantity") -> "LogQuantity":
        if other.zero_flag:
            raise DomainError("division by zero LogQuantity")
        if self.zero_flag:
            return LogQuantity.zero()
        return LogQuantity.from_log(self.log_value - other.log_value)


def deformed_number(ctx: DeformedContext, n: int) -> LogQuantity:
    """[n] = R(p^n, q^n); [0] is exact zero."""
    if n < 0:
        raise DomainError(f"deformed number needs n >= 0, got {n}")
    if n == 0:
        return LogQuantity.zero()
    if n > ctx.order_cap:
        raise OutOfRange(f"n={n} exceeds order_cap={ctx.order_cap}")
    return LogQuantity.from_log(ctx.log_number(n))


def deformed_factorial(ctx: DeformedContext, n: int) -> LogQuantity:
    """[n]! with [0]! = 1, straight from the telescoping cache."""
    if n < 0:
        raise DomainError(f"deformed factorial needs n >= 0, got {n}")
    if n > ctx.order_cap:
        raise OutOfRange(f"n={n} exceeds order_cap={ctx.order_cap}")
    return LogQuantity.from_log(ctx.log_factorial(n))


def deformed_binomial(ctx: DeformedContext, m: int, n: int) -> LogQuantity:
    """Deformed binomial [m choose n] = [m]! / ([n]! [m-n]!).

    Computed as log_fact[m] - log_fact[k_small] - log_fact[k_large] with
    (k_small, k_large) = sorted(n, m - n); the fixed order makes the
    symmetry in n <-> m - n an identity of the float program, not just of
    the math.
    """
    if n < 0 or n > m:
        raise DomainError(f"require 0 <= n <= m, got m={m}, n={n}")
    if m > ctx.order_cap:
        raise OutOfRange(f"m={m} exceeds order_cap={ctx.order_cap}")
    k_small, k_large = sorted((n, m - n))
    log_val = (
        ctx.log_factorial(m)
        - ctx.log_factorial(k_small)
        - ctx.log_factorial(k_large)
    )
    return LogQuantity.from_log(log_val)

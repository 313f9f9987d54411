"""Deformation kernels and the cached evaluation context.

A two-parameter deformation is described by a kernel function R(u, v) — a
finite Laurent polynomial in two variables — together with parameters
0 < q < p <= 1.  The lattice values R(p^n, q^n) generalise the integers:
they must be strictly positive for n >= 1 and R(1, 1) must vanish, so that
the deformed number of 0 is exactly zero.

Everything downstream (factorials, Gamma, norms) works with the *logarithms*
of the lattice values.  Deformed factorials grow like exp(lambda * n^2) for
expanding kernels, which overflows double precision near n = 40, so the
context caches ``log_numbers`` and ``log_factorials`` and linear-domain
values are only materialised when provably safe.

Builtin kernels:

``difference``
    R(u, v) = u - v, lattice values p^n - q^n.
``jagannathan-srinivasa``
    R(u, v) = (u - v) / (p - q), lattice values (p^n - q^n)/(p - q).
``q``
    The p = 1 specialisation of the previous one: (1 - q^n)/(1 - q).
Custom kernels are finite Laurent term lists [(s, t, c), ...] meaning
R(u, v) = sum c * u^s * v^t with integer exponents s, t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    EmptyKernel,
    InvalidKernel,
    NonPositiveLattice,
    OutOfRange,
    ParameterDomain,
)

KIND_DIFFERENCE = "builtin-difference"
KIND_JS = "builtin-jagannathan-srinivasa"
KIND_Q = "builtin-q"
KIND_CUSTOM = "custom-laurent"

_BUILTIN_KINDS = (KIND_DIFFERENCE, KIND_JS, KIND_Q)
_ALL_KINDS = _BUILTIN_KINDS + (KIND_CUSTOM,)

#: |R(1,1)| must not exceed this for a kernel to be accepted.
VANISHING_TOL = 1e-12


def _exponent(value) -> int:
    """A Laurent exponent: an integer, or a float with an integer value."""
    if int(value) != value:
        raise InvalidKernel(f"Laurent exponent must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class KernelSpec:
    """Immutable description of a deformation kernel.

    Attributes:
        p, q: deformation parameters, 0 < q < p <= 1.
        kind: one of the ``KIND_*`` constants.
        laurent_terms: tuple of (s, t, c) terms for custom kernels, None for
            builtins.

    Raises:
        InvalidKernel: unknown kind, or terms that are missing, present for a
            builtin, or not (integer, integer, real) triples.
    """

    p: float
    q: float
    kind: str = KIND_DIFFERENCE
    laurent_terms: tuple[tuple[int, int, float], ...] | None = None

    def __post_init__(self):
        if self.kind not in _ALL_KINDS:
            raise InvalidKernel(f"unknown kernel kind {self.kind!r}")
        if self.kind == KIND_CUSTOM:
            if self.laurent_terms is None:
                raise InvalidKernel("custom-laurent kernel requires laurent_terms")
            try:
                terms = tuple(
                    (_exponent(s), _exponent(t), float(c))
                    for (s, t, c) in self.laurent_terms
                )
            except (TypeError, ValueError, OverflowError) as exc:
                raise InvalidKernel(f"bad laurent term: {exc}") from exc
            object.__setattr__(self, "laurent_terms", terms)
        else:
            if self.laurent_terms is not None:
                raise InvalidKernel("builtin kernels take no laurent_terms")

    @property
    def is_builtin(self) -> bool:
        return self.kind != KIND_CUSTOM


def difference_kernel(p: float, q: float) -> KernelSpec:
    """R(u, v) = u - v."""
    return KernelSpec(p=p, q=q, kind=KIND_DIFFERENCE)


def jagannathan_srinivasa_kernel(p: float, q: float) -> KernelSpec:
    """R(u, v) = (u - v)/(p - q), the two-parameter number kernel."""
    return KernelSpec(p=p, q=q, kind=KIND_JS)


def q_kernel(q: float) -> KernelSpec:
    """Classical one-parameter kernel; p is pinned to 1."""
    return KernelSpec(p=1.0, q=q, kind=KIND_Q)


def laurent_kernel(
    p: float, q: float, terms: Sequence[tuple[int, int, float]]
) -> KernelSpec:
    """Custom kernel from finite Laurent data [(s, t, c), ...]."""
    return KernelSpec(p=p, q=q, kind=KIND_CUSTOM, laurent_terms=terms)


def kernel_value(spec: KernelSpec, u: float, v: float) -> float:
    """Evaluate R(u, v) in linear domain.

    Custom kernels are accumulated with ``math.fsum`` in stored term order so
    the cancellation check at (1, 1) is as sharp as the data allows.
    """
    if spec.kind == KIND_DIFFERENCE:
        return u - v
    if spec.kind in (KIND_JS, KIND_Q):
        return (u - v) / (spec.p - spec.q)
    return math.fsum(c * u**s * v**t for (s, t, c) in spec.laurent_terms)


def _validate_parameters(spec: KernelSpec) -> None:
    p, q = spec.p, spec.q
    if not (math.isfinite(p) and math.isfinite(q)):
        raise ParameterDomain(f"parameters must be finite, got p={p!r}, q={q!r}")
    if not (0.0 < q < p <= 1.0):
        raise ParameterDomain(f"require 0 < q < p <= 1, got p={p!r}, q={q!r}")
    if spec.kind == KIND_Q and p != 1.0:
        raise ParameterDomain(f"builtin-q kernel pins p = 1, got p={p!r}")


@dataclass(frozen=True)
class DeformedContext:
    """Validated kernel plus log-domain caches.

    ``log_numbers[i]`` holds log R(p^n, q^n) for n = i + 1 (1-based lattice
    index); ``log_factorials[n]`` holds log of the deformed factorial of n,
    with ``log_factorials[0] == 0.0``.  Every context is made by
    :meth:`from_log_values`, whose ascending ``np.cumsum`` makes the
    telescoping recurrence hold bit-for-bit as stored.  Downstream code reads
    these two arrays as slices rather than index by index.
    The fields are immutable after construction; the only mutable state is
    the private ``_memo``, where :func:`rpqcalc.sectors.tail_log_rate` keeps
    its fitted value on first use.  Instances are safe to share across
    threads.
    """

    spec: KernelSpec
    order_cap: int
    log_numbers: np.ndarray
    log_factorials: np.ndarray
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def log_number(self, n: int) -> float:
        """log R(p^n, q^n) for 1 <= n <= order_cap."""
        if not 1 <= n <= self.order_cap:
            raise OutOfRange(f"lattice index n={n} outside cache [1, {self.order_cap}]")
        return float(self.log_numbers[n - 1])

    def log_factorial(self, n: int) -> float:
        """log of the deformed factorial of n, 0 <= n <= order_cap."""
        if not 0 <= n <= self.order_cap:
            raise OutOfRange(
                f"factorial index n={n} outside cache [0, {self.order_cap}]"
            )
        return float(self.log_factorials[n])

    @classmethod
    def from_log_values(
        cls, spec: KernelSpec, log_numbers: Sequence[float]
    ) -> "DeformedContext":
        """Build a context from log lattice values log R(p^n, q^n), n = 1..cap.

        :func:`build_context` ends here, and synthetic growth profiles in
        diagnostics and tests start here.  The factorials are the ascending
        ``np.cumsum`` of the logs, so ``log_factorials[n]`` equals
        ``log_factorials[n - 1] + log_numbers[n - 1]`` exactly.  The logs
        are copied, so the caller's sequence stays as it was.
        """
        logs = np.array(log_numbers, dtype=float)
        if logs.ndim != 1 or logs.size < 1:
            raise OutOfRange("log_numbers must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(logs)):
            raise NonPositiveLattice(int(np.flatnonzero(~np.isfinite(logs))[0]) + 1, math.nan)
        facts = np.concatenate(([0.0], np.cumsum(logs)))
        logs.setflags(write=False)
        facts.setflags(write=False)
        return cls(spec=spec, order_cap=logs.size, log_numbers=logs, log_factorials=facts)


def build_context(spec: KernelSpec, order_cap: int) -> DeformedContext:
    """Validate a kernel and precompute log lattice values and factorials.

    Checks, in order: parameter domain, R(1, 1) = 0 within ``VANISHING_TOL``,
    and strict positivity of R(p^n, q^n) for every 1 <= n <= order_cap.

    Raises:
        ParameterDomain: p, q outside 0 < q < p <= 1 (or p != 1 for builtin-q).
        InvalidKernel: kernel does not vanish at (1, 1).
        NonPositiveLattice: first n whose lattice value is not positive/finite.
        OutOfRange: order_cap < 1.
    """
    _validate_parameters(spec)
    if order_cap < 1:
        raise OutOfRange(f"order_cap must be >= 1, got {order_cap}")

    at_one = kernel_value(spec, 1.0, 1.0)
    if not math.isfinite(at_one) or abs(at_one) > VANISHING_TOL:
        raise InvalidKernel(
            f"kernel must vanish at (1, 1); got R(1, 1) = {at_one!r}"
        )

    p, q = spec.p, spec.q
    logs = np.empty(order_cap, dtype=float)
    for n in range(1, order_cap + 1):
        val = kernel_value(spec, p**n, q**n)
        if not math.isfinite(val) or val <= 0.0:
            raise NonPositiveLattice(n, val)
        logs[n - 1] = math.log(val)
    return DeformedContext.from_log_values(spec, logs)


def bidisk_radius_estimate(spec: KernelSpec) -> tuple[float, float]:
    """Finite-data surrogate for the kernel's bidisk of convergence.

    Builtins are polynomials, so they return (inf, inf).  For a custom kernel
    the estimate is the largest equal pair R1 = R2 = R with
    max over represented total degrees K = s + t != 0 of
    (|c| * R^K)^(1/K) <= 1.  Since (|c| * R^K)^(1/K) = |c|^(1/K) * R, that
    is R = 1 / max |c|^(1/K) = min |c|^(-1/K).

    Raises:
        EmptyKernel: custom kernel whose coefficients are all zero.
    """
    if spec.is_builtin:
        return (math.inf, math.inf)
    terms = [(s, t, c) for (s, t, c) in spec.laurent_terms if c != 0.0]
    if not terms:
        raise EmptyKernel("custom kernel has no nonzero coefficients")
    degrees = [(s + t, abs(c)) for (s, t, c) in terms if s + t != 0]
    if not degrees:
        # Only total-degree-zero terms: the constraint set is empty.
        return (math.inf, math.inf)
    ks, mags = np.array(degrees, dtype=float).T
    with np.errstate(over="ignore"):
        radius = float(np.min(np.power(mags, -1.0 / ks)))
    return (radius, radius)


# --- kernel configuration documents -------------------------------------

_BUILTIN_NAMES = {
    "difference": KIND_DIFFERENCE,
    "jagannathan-srinivasa": KIND_JS,
    "q": KIND_Q,
}


def spec_from_dict(doc: dict) -> KernelSpec:
    """Parse the kernel configuration mapping used by files and the CLI.

    Expected shape::

        {"p": 1.0, "q": 0.5, "kernel": {"builtin": "difference"}}
        {"p": 0.8, "q": 0.5, "kernel": {"laurent": [{"s": -1, "t": 0, "c": 1.0}, ...]}}
    """
    if not isinstance(doc, dict):
        raise InvalidKernel("kernel config must be a JSON object")
    try:
        p = float(doc["p"])
        q = float(doc["q"])
        kdoc = doc["kernel"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidKernel(f"kernel config missing/invalid field: {exc}") from exc
    if not isinstance(kdoc, dict):
        raise InvalidKernel("'kernel' must be an object")
    if "builtin" in kdoc:
        name = kdoc["builtin"]
        if not isinstance(name, str) or name not in _BUILTIN_NAMES:
            raise InvalidKernel(f"unknown builtin kernel {name!r}")
        return KernelSpec(p=p, q=q, kind=_BUILTIN_NAMES[name])
    if "laurent" in kdoc:
        raw = kdoc["laurent"]
        if not isinstance(raw, list):
            raise InvalidKernel("'laurent' must be a list of term objects")
        try:
            terms = tuple((t["s"], t["t"], t["c"]) for t in raw)
        except (KeyError, TypeError) as exc:
            raise InvalidKernel(f"bad laurent term: {exc}") from exc
        return KernelSpec(p=p, q=q, kind=KIND_CUSTOM, laurent_terms=terms)
    raise InvalidKernel("'kernel' needs either 'builtin' or 'laurent'")


def spec_to_dict(spec: KernelSpec) -> dict:
    """Inverse of :func:`spec_from_dict`."""
    if spec.is_builtin:
        name = {v: k for k, v in _BUILTIN_NAMES.items()}[spec.kind]
        kdoc: dict = {"builtin": name}
    else:
        kdoc = {
            "laurent": [
                {"s": s, "t": t, "c": c} for (s, t, c) in spec.laurent_terms
            ]
        }
    return {"p": spec.p, "q": spec.q, "kernel": kdoc}

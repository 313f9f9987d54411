"""Deformed discs, sectors, and growth-gated boundedness checks.

The deformed pseudo-norm of a point z is the finite-data surrogate

    ||z|| = max( max_{1<=n<=cap} (|z| / R(p^n, q^n))^(1/n),  exp(-beta_hat) )

where beta_hat is the fitted log-growth slope of the lattice values over the
upper half of the cache — the second term is the n -> infinity limit the
truncated max cannot see.  A deformed disc of radius R is {||z|| < R}; since
the pseudo-norm depends only on |z| and is nondecreasing in it, such a disc
is an ordinary round disc whose Euclidean radius the module computes in the
log domain.

Sectors are angular regions |arg z| < theta * rho(k) with the per-index rate
rho(k) = log R(p^k, q^k) / k, its sup over the cache, or a fixed opening
pi / (2 * omega).  The boundedness checks here sample polar grids and return
the shared :class:`~rpqcalc.norms.BoundCheckReport`; inequality failures
inside the sampling slack of their hypotheses are reported as inconclusive
rather than failed.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .asymptotics import fit_log_growth
from .errors import (
    DomainError,
    EmptyDisc,
    EmptyList,
    GateUnevaluable,
    NonPositiveLogRate,
    NonRealConstantTerm,
    OutOfRange,
    PreconditionViolated,
)
from .kernel import DeformedContext
from .norms import BoundCheckReport
from .series import TruncatedSeries

MODE_PER_INDEX = "per-index"
MODE_SUP = "sup"
MODE_FIXED_OMEGA = "fixed-omega"
SECTOR_MODES = (MODE_PER_INDEX, MODE_SUP, MODE_FIXED_OMEGA)

#: imaginary parts at or below this magnitude count as real
REAL_TOL = 1e-14

#: conclusive-violation tolerances for the sampled checks
BC_ABS_TOL = 1e-9
BC_INCONCLUSIVE_FRACTION = 0.01
PL_REL_TOL = 1e-6


@dataclass(frozen=True)
class SectorSpec:
    """Sector description: mode plus the angular parameters it needs."""

    mode: str
    theta: float = 1.0
    omega: float | None = None

    def __post_init__(self):
        if self.mode not in SECTOR_MODES:
            raise DomainError(f"mode must be one of {SECTOR_MODES}, got {self.mode!r}")
        if not (self.theta > 0.0 and math.isfinite(self.theta)):
            raise DomainError(f"theta must be positive, got {self.theta!r}")
        if self.mode == MODE_FIXED_OMEGA:
            if self.omega is None or not (self.omega > 0.0 and math.isfinite(self.omega)):
                raise DomainError(
                    f"fixed-omega mode needs omega > 0, got {self.omega!r}"
                )


@dataclass(frozen=True)
class GrowthEnvelope:
    """Envelope |f(z)| <= scale * exp(rate * |z|^exponent)."""

    scale: float
    rate: float
    exponent: float

    def __post_init__(self):
        for name in ("scale", "rate", "exponent"):
            val = getattr(self, name)
            if not (val > 0.0 and math.isfinite(val)):
                raise DomainError(f"envelope {name} must be positive, got {val!r}")


def _default_tail_window(ctx: DeformedContext) -> tuple[int, int]:
    lo = max(1, ctx.order_cap // 2)
    hi = ctx.order_cap
    if hi - lo + 1 < 3:
        raise OutOfRange(
            f"order_cap={ctx.order_cap} too small for the tail-rate window"
        )
    return (lo, hi)


def tail_log_rate(ctx: DeformedContext) -> float:
    """Fitted slope beta_hat of the log lattice values over the upper half cache.

    The fit runs on the first call for a context and is kept on it; a fit
    that raises keeps nothing, so the error repeats on every call.
    """
    try:
        return ctx._memo["tail_log_rate"]
    except KeyError:
        beta = fit_log_growth(ctx, _default_tail_window(ctx)).beta_hat
        ctx._memo["tail_log_rate"] = beta
        return beta


def deformed_pseudonorm(ctx: DeformedContext, z: complex) -> float:
    """||z|| as defined in the module docstring; exactly 0.0 at z = 0."""
    tail = math.exp(-tail_log_rate(ctx))
    mag = abs(z)
    if mag == 0.0:
        return 0.0
    ns = np.arange(1, ctx.order_cap + 1, dtype=float)
    return max(float(np.max(np.exp((math.log(mag) - ctx.log_numbers) / ns))), tail)


def in_deformed_disc(ctx: DeformedContext, z: complex, radius: float) -> bool:
    """Strict membership ||z|| < radius."""
    if not (radius > 0.0 and math.isfinite(radius)):
        raise DomainError(f"disc radius must be positive, got {radius!r}")
    return deformed_pseudonorm(ctx, z) < radius


def _euclidean_disc_radius(ctx: DeformedContext, radius: float) -> float:
    """|z| bound of the deformed disc: min_n (radius^n * R(p^n, q^n))."""
    ns = np.arange(1, ctx.order_cap + 1, dtype=float)
    return math.exp(float(np.min(ns * math.log(radius) + ctx.log_numbers)))


def borel_caratheodory_check(
    ctx: DeformedContext,
    f: TruncatedSeries,
    outer_radius: float,
    inner_radius: float,
    samples: int = 64,
) -> BoundCheckReport:
    """Sampled two-radius bound on deformed discs (f(0) must be real):

        |f(z)| <= 2r/(R - r) * max Re f  +  (R + r)/(R - r) * |f(0)|

    for ||z|| < r, with max Re f sampled over ||z|| < R on a ``samples`` x
    ``samples`` polar grid.  Each disc's grid stops half a radial step inside
    the disc's Euclidean reach, so every finite grid point lies in the disc
    and no pseudo-norm is evaluated per point.  Because the sampled max Re f
    is an under-estimate, a violation within 1% of it is reported
    inconclusive; conclusive failure needs an excess above the absolute
    tolerance 1e-9.

    Raises:
        PreconditionViolated: unless 0 < inner_radius < outer_radius.
        NonRealConstantTerm: Im f(0) exceeds ``REAL_TOL``.
        EmptyDisc: either disc contains no point besides the origin.
    """
    if not (0.0 < inner_radius < outer_radius):
        raise PreconditionViolated(
            f"need 0 < r < R, got r={inner_radius!r}, R={outer_radius!r}"
        )
    if samples < 2:
        raise OutOfRange(f"need a polar grid of at least 2x2, got {samples}")
    a0 = complex(f.coeffs[0])
    if abs(a0.imag) > REAL_TOL:
        raise NonRealConstantTerm(f"Im f(0) = {a0.imag!r}")

    tail = math.exp(-tail_log_rate(ctx))
    for name, radius in (("R", outer_radius), ("r", inner_radius)):
        if radius <= tail:
            raise EmptyDisc(
                f"deformed disc of radius {name}={radius!r} contains only 0 "
                f"(pseudo-norm tail limit {tail!r})"
            )

    def polar_points(disc_radius: float) -> np.ndarray:
        reach = _euclidean_disc_radius(ctx, disc_radius)
        radii = reach * (np.arange(samples) + 0.5) / samples
        angles = 2.0 * np.pi * np.arange(samples) / samples
        flat = (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()
        # No pseudo-norm mask needed: |z| < reach = min_n radius^n R(p^n, q^n)
        # puts every lattice term below radius, and tail < radius by the
        # EmptyDisc check.  Only points whose radius overflowed lie outside.
        return np.concatenate([[0.0 + 0.0j], flat[np.isfinite(flat)]])

    outer_pts = polar_points(outer_radius)
    outer_vals = np.polynomial.polynomial.polyval(outer_pts, f.coeffs)
    max_re = float(np.max(outer_vals.real))

    ratio = 1.0 / (outer_radius - inner_radius)
    bound = (
        2.0 * inner_radius * ratio * max_re
        + (outer_radius + inner_radius) * ratio * abs(a0)
    )

    inner_pts = polar_points(inner_radius)
    inner_vals = np.abs(np.polynomial.polynomial.polyval(inner_pts, f.coeffs))
    worst = int(np.argmax(inner_vals))
    observed = float(inner_vals[worst])
    excess = observed - bound

    passed = excess <= BC_ABS_TOL
    inconclusive = (not passed) and excess <= BC_INCONCLUSIVE_FRACTION * abs(max_re)
    return BoundCheckReport(
        passed=passed,
        worst_margin=bound - observed,
        witness=f"z={complex(inner_pts[worst])!r}",
        trials=int(inner_pts.size),
        inconclusive=inconclusive,
        details={"max_re": max_re, "bound": bound},
    )


def _sup_rho(ctx: DeformedContext) -> float:
    return float(np.max(ctx.log_numbers / np.arange(1, ctx.order_cap + 1, dtype=float)))


def sector_membership(ctx: DeformedContext, spec: SectorSpec, z: complex) -> bool:
    """Is z inside the sector |arg z| < opening for the spec's opening rule?

    per-index uses rho at k = max(1, ceil(|z|)) (so the first lattice rate
    governs everything inside the unit disc); sup uses the cache-wide
    maximum rate; fixed-omega uses the kernel-free opening pi / (2 omega).

    Raises:
        OutOfRange: per-index with ceil(|z|) beyond the cache.
        NonPositiveLogRate: the governing rate is <= 0, so the sector is
            empty at that radius (reported, not treated as a failed check).
    """
    if spec.mode == MODE_FIXED_OMEGA:
        opening = math.pi / (2.0 * spec.omega)
    else:
        if spec.mode == MODE_PER_INDEX:
            k = max(1, math.ceil(abs(z)))
            if k > ctx.order_cap:
                raise OutOfRange(
                    f"per-index sector needs lattice index {k} > order_cap {ctx.order_cap}"
                )
            rate = ctx.log_number(k) / k
        else:
            rate = _sup_rho(ctx)
        if rate <= 0.0:
            raise NonPositiveLogRate(
                f"log-growth rate {rate!r} is not positive; sector is empty"
            )
        opening = spec.theta * rate
    return abs(cmath.phase(z)) < opening


def pl_interior_check(
    ctx: DeformedContext,
    spec: SectorSpec,
    f: TruncatedSeries,
    env: GrowthEnvelope,
    radius_grid,
    angle_grid,
    boundary_max: float | None = None,
) -> BoundCheckReport:
    """Phragmen-Lindelof-style interior boundedness check on a sector.

    Gate: the envelope exponent must sit below the sector's admissible
    growth order — pi / (2 * theta * sup_k rho(k)) in sup mode, omega in
    fixed-omega mode.  A failed gate means the hypotheses are unmet and the
    report is flagged inconclusive (nothing is asserted).  With the gate
    passed, the boundary premise |f| <= boundary_max is sampled on the two
    rays; if it fails the report is again inconclusive.  Finally interior
    grid points must satisfy |f(z)| <= boundary_max * (1 + 1e-6).

    ``radius_grid`` is a sequence of radii > 0; ``angle_grid`` is a sequence
    of fractions in (-1, 1) mapped onto (-opening, +opening).  When
    ``boundary_max`` is None it is taken as the sampled maximum of |f| over
    the full boundary of the truncated sector: both rays at the grid radii
    plus the outer arc at the angle grid.

    Raises:
        PreconditionViolated: per-index mode (no single opening to check).
        GateUnevaluable: sup mode with no positive cached rate.
    """
    if spec.mode == MODE_PER_INDEX:
        raise PreconditionViolated(
            "interior check needs a fixed opening; use sup or fixed-omega mode"
        )
    radii = np.asarray(radius_grid, dtype=float)
    fracs = np.asarray(angle_grid, dtype=float)
    if radii.ndim != 1 or radii.size == 0 or np.any(radii <= 0.0):
        raise DomainError("radius_grid must be a non-empty sequence of positive radii")
    if fracs.ndim != 1 or fracs.size == 0 or np.any(np.abs(fracs) >= 1.0):
        raise DomainError("angle_grid must be non-empty fractions strictly inside (-1, 1)")

    if spec.mode == MODE_SUP:
        sup_rho = _sup_rho(ctx)
        if sup_rho <= 0.0:
            raise GateUnevaluable(
                f"no positive log-growth rate in cache (sup rho = {sup_rho!r})"
            )
        opening = spec.theta * sup_rho
        gate_rhs = math.pi / (2.0 * spec.theta * sup_rho)
    else:
        opening = math.pi / (2.0 * spec.omega)
        gate_rhs = spec.omega
    gate_lhs = env.exponent
    gate_passed = gate_lhs < gate_rhs
    gate_details = {
        "gate_lhs": gate_lhs,
        "gate_rhs": gate_rhs,
        "gate_passed": gate_passed,
        "opening": opening,
    }

    if not gate_passed:
        return BoundCheckReport(
            passed=False,
            worst_margin=0.0,
            witness="growth gate failed: envelope exponent not below sector order",
            trials=0,
            inconclusive=True,
            details=gate_details,
        )

    poly = np.polynomial.polynomial
    ray = np.exp(1j * opening)
    ray_vals = np.abs(poly.polyval(radii[None, :] * np.array([[ray], [np.conj(ray)]]), f.coeffs))

    if boundary_max is None:
        arc_pts = float(np.max(radii)) * np.exp(1j * fracs * opening)
        arc_vals = np.abs(poly.polyval(arc_pts, f.coeffs))
        m_used = max(float(np.max(ray_vals)), float(np.max(arc_vals)))
    else:
        m_used = float(boundary_max)
        if float(np.max(ray_vals)) > m_used:
            i = int(np.argmax(np.max(ray_vals, axis=0)))
            return BoundCheckReport(
                passed=False,
                worst_margin=m_used - float(np.max(ray_vals)),
                witness=f"boundary premise failed at radius={float(radii[i])!r}",
                trials=0,
                inconclusive=True,
                details={**gate_details, "m_used": m_used},
            )
    gate_details["m_used"] = m_used

    interior_pts = (radii[:, None] * np.exp(1j * fracs * opening)[None, :]).ravel()
    interior_vals = np.abs(poly.polyval(interior_pts, f.coeffs))
    allowance = m_used * (1.0 + PL_REL_TOL)
    worst = int(np.argmax(interior_vals))
    worst_margin = allowance - float(interior_vals[worst])
    return BoundCheckReport(
        passed=bool(np.all(interior_vals <= allowance)),
        worst_margin=worst_margin,
        witness=f"z={complex(interior_pts[worst])!r}",
        trials=int(interior_pts.size),
        details=gate_details,
    )


def anisotropic_order(alphas, rate: float) -> float:
    """max_i (1 / alphas[i] + rate) over a non-empty list of positive weights."""
    vals = list(alphas)
    if not vals:
        raise EmptyList("anisotropic order needs at least one weight")
    if any(not (a > 0.0 and math.isfinite(a)) for a in vals):
        raise DomainError(f"weights must be positive and finite, got {vals!r}")
    if not (math.isfinite(rate) and rate >= 0.0):
        raise DomainError(f"rate must be nonnegative and finite, got {rate!r}")
    return max(1.0 / a + rate for a in vals)

"""Deformed discs, sector membership, and the sampled boundedness checks."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from rpqcalc import (
    GrowthEnvelope,
    SectorSpec,
    TruncatedSeries,
    anisotropic_order,
    borel_caratheodory_check,
    build_context,
    deformed_exponential,
    deformed_pseudonorm,
    difference_kernel,
    in_deformed_disc,
    jagannathan_srinivasa_kernel,
    laurent_kernel,
    pl_interior_check,
    sector_membership,
)
from rpqcalc.errors import (
    DomainError,
    EmptyDisc,
    EmptyList,
    GateUnevaluable,
    NonPositiveLogRate,
    NonRealConstantTerm,
    OutOfRange,
    PreconditionViolated,
)
from rpqcalc import sectors
from rpqcalc.sectors import (
    BC_ABS_TOL,
    BC_INCONCLUSIVE_FRACTION,
    MODE_FIXED_OMEGA,
    MODE_PER_INDEX,
    MODE_SUP,
    tail_log_rate,
)

INVERSE_TERMS = [(-1, 0, 1.0), (0, 1, -1.0)]


def diff_ctx(cap=64):
    return build_context(difference_kernel(1.0, 0.5), cap)


def inv_ctx(cap=64):
    return build_context(laurent_kernel(0.8, 0.5, INVERSE_TERMS), cap)


def js_ctx(cap=64):
    return build_context(jagannathan_srinivasa_kernel(0.9, 0.4), cap)


def midpoint_fracs(count):
    return (2.0 * (np.arange(count) + 0.5) / count) - 1.0


def test_tail_log_rate_values():
    assert abs(tail_log_rate(diff_ctx())) <= 1e-6  # bounded lattice
    assert tail_log_rate(inv_ctx()) == pytest.approx(math.log(1.25), abs=1e-6)
    with pytest.raises(OutOfRange):
        tail_log_rate(diff_ctx(cap=2))


def test_pseudonorm_basics():
    ctx = diff_ctx()
    assert deformed_pseudonorm(ctx, 0.0) == 0.0
    # |z| = 1: the n = 1 term 1 / R(p, q) = 2 dominates the whole max
    assert deformed_pseudonorm(ctx, 1.0) == pytest.approx(2.0, rel=1e-9)
    assert deformed_pseudonorm(ctx, 1j) == deformed_pseudonorm(ctx, 1.0)


def test_pseudonorm_tail_floor_for_expanding_kernel():
    # for tiny |z| every truncated term is small, so the fitted tail
    # limit exp(-beta_hat) = q... = 1/1.25 takes over
    assert deformed_pseudonorm(inv_ctx(), 1e-9) == pytest.approx(0.8, abs=1e-3)


def test_pseudonorm_is_monotone_in_magnitude():
    ctx = inv_ctx()
    mags = np.linspace(0.01, 10.0, 40)
    vals = [deformed_pseudonorm(ctx, m) for m in mags]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_pseudonorm_matches_scalar_definition():
    rng = np.random.default_rng(4)
    zs = np.exp(rng.uniform(-30.0, 30.0, 200)) * np.exp(1j * rng.uniform(-4.0, 4.0, 200))
    # add |z| >= 1, where the lattice part dominates, whose array logarithm
    # is an ulp off math.log (if this numpy build has any)
    mags = np.exp(rng.uniform(0.0, 30.0, 400_000))
    off = mags[np.log(mags) != np.array([math.log(m) for m in mags])]
    zs = np.concatenate([zs, off, -1j * off])
    for ctx in (diff_ctx(), js_ctx(), inv_ctx(), diff_ctx(cap=4096)):
        ns = np.arange(1, ctx.order_cap + 1, dtype=float)
        tail = math.exp(-tail_log_rate(ctx))
        for z in zs:
            lattice = float(np.max(np.exp((math.log(abs(z)) - ctx.log_numbers) / ns)))
            assert deformed_pseudonorm(ctx, z) == max(lattice, tail)


def test_tail_fit_runs_once_per_context(monkeypatch):
    calls = []
    fit = sectors.fit_log_growth
    monkeypatch.setattr(
        sectors, "fit_log_growth", lambda ctx, window: calls.append(ctx) or fit(ctx, window)
    )
    ctxs = [diff_ctx(), js_ctx(), inv_ctx(), diff_ctx(cap=2)]
    assert calls == []  # build_context never fits the tail
    f = TruncatedSeries([0.5, 1.0])
    for ctx in ctxs[:3]:
        for _ in range(3):
            deformed_pseudonorm(ctx, 0.3 + 0.4j)
            in_deformed_disc(ctx, 0.3, 2.0)
            borel_caratheodory_check(ctx, f, 4.0, 3.0, 4)
    assert calls == ctxs[:3]
    for _ in range(3):  # failures are not kept: each call raises afresh
        with pytest.raises(OutOfRange):
            deformed_pseudonorm(ctxs[3], 0.5)
        with pytest.raises(OutOfRange):
            tail_log_rate(ctxs[3])


def test_disc_membership_examples():
    ctx = diff_ctx()
    assert in_deformed_disc(ctx, 0.6, 1.5)
    assert not in_deformed_disc(ctx, 0.6, 1.1)
    assert in_deformed_disc(ctx, 0.0, 0.5)
    # pseudonorm of a unit-modulus point is 2, so it misses the 1.5-disc
    assert not in_deformed_disc(ctx, 1.0, 1.5)
    with pytest.raises(DomainError):
        in_deformed_disc(ctx, 0.1, 0.0)


def test_disc_nesting():
    ctx = inv_ctx()
    rng = np.random.default_rng(12)
    for _ in range(40):
        z = complex(rng.standard_normal(), rng.standard_normal())
        if in_deformed_disc(ctx, z, 0.9):
            assert in_deformed_disc(ctx, z, 1.4)


def test_borel_caratheodory_identity_function():
    report = borel_caratheodory_check(diff_ctx(), TruncatedSeries([0.0, 1.0]), 3.0, 2.0)
    assert report.passed
    assert not report.inconclusive
    # outer reach is 1.5 (attained at n = 1), inner reach 1.0: bound
    # 2*2/(3-2) * ~1.5 ~ 6 versus |f| <= ~1 inside
    assert report.details["max_re"] == pytest.approx(1.488, abs=0.02)
    assert report.worst_margin > 4.0


def test_borel_caratheodory_deformed_exponential():
    ctx = diff_ctx()
    f = deformed_exponential(ctx, 32)
    report = borel_caratheodory_check(ctx, f, 3.0, 2.0)
    assert report.passed
    assert not report.inconclusive
    assert report.worst_margin > 0.0


def test_borel_caratheodory_negative_constant_term():
    # |f(0)| enters the bound through its modulus, so a negative real
    # constant is fine
    report = borel_caratheodory_check(
        diff_ctx(), TruncatedSeries([-2.0, 0.5]), 3.0, 2.0
    )
    assert report.passed


def test_borel_caratheodory_preconditions():
    ctx = diff_ctx()
    f = TruncatedSeries([0.0, 1.0])
    with pytest.raises(PreconditionViolated):
        borel_caratheodory_check(ctx, f, 2.0, 2.0)
    with pytest.raises(PreconditionViolated):
        borel_caratheodory_check(ctx, f, 2.0, -1.0)
    with pytest.raises(NonRealConstantTerm):
        borel_caratheodory_check(ctx, TruncatedSeries([1e-3j, 1.0]), 3.0, 2.0)
    with pytest.raises(OutOfRange):
        borel_caratheodory_check(ctx, f, 3.0, 2.0, samples=1)
    # expanding kernel: pseudo-norms never drop below ~0.8, so a disc of
    # radius 0.5 holds nothing but the origin
    with pytest.raises(EmptyDisc):
        borel_caratheodory_check(inv_ctx(), f, 0.7, 0.5)


def per_point_bc_report(ctx, f, outer, inner, samples):
    """Reference BC: each grid point is kept by deformed_pseudonorm alone."""
    ns = np.arange(1, ctx.order_cap + 1, dtype=float)
    polyval = np.polynomial.polynomial.polyval

    def polar_points(disc_radius):
        reach = math.exp(float(np.min(ns * math.log(disc_radius) + ctx.log_numbers)))
        radii = reach * (np.arange(samples) + 0.5) / samples
        angles = 2.0 * np.pi * np.arange(samples) / samples
        flat = (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()
        keep = np.array([deformed_pseudonorm(ctx, z) < disc_radius for z in flat], dtype=bool)
        return np.concatenate([[0.0 + 0.0j], flat[keep]])

    max_re = float(np.max(polyval(polar_points(outer), f.coeffs).real))
    ratio = 1.0 / (outer - inner)
    bound = 2.0 * inner * ratio * max_re + (outer + inner) * ratio * abs(complex(f.coeffs[0]))
    inner_pts = polar_points(inner)
    inner_vals = np.abs(polyval(inner_pts, f.coeffs))
    worst = int(np.argmax(inner_vals))
    excess = float(inner_vals[worst]) - bound
    passed = excess <= BC_ABS_TOL
    return {
        "passed": passed,
        "worst_margin": bound - float(inner_vals[worst]),
        "witness": f"z={complex(inner_pts[worst])!r}",
        "trials": int(inner_pts.size),
        "inconclusive": (not passed) and excess <= BC_INCONCLUSIVE_FRACTION * abs(max_re),
        "details": {"max_re": max_re, "bound": bound},
    }


@pytest.mark.parametrize("make_ctx", [diff_ctx, js_ctx, inv_ctx])
@pytest.mark.parametrize("side", [2, 17, 64])
def test_borel_caratheodory_matches_per_point_mask(make_ctx, side):
    ctx = make_ctx()
    tail = math.exp(-tail_log_rate(ctx))
    rng = np.random.default_rng(side)
    coeffs = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    coeffs[0] = coeffs[0].real
    for f in (deformed_exponential(ctx, 24), TruncatedSeries(coeffs)):
        for outer, inner in ((3.0 * tail, 2.0 * tail), (1.3 * tail, 1.1 * tail)):
            got = borel_caratheodory_check(ctx, f, outer, inner, side)
            assert got.to_dict() == per_point_bc_report(ctx, f, outer, inner, side)


def test_borel_caratheodory_drops_overflowed_points():
    # grid radii past double range give inf/nan points, which lie outside the disc
    ctx = diff_ctx()
    f = TruncatedSeries([0.5, 1.0, 0.25j])
    for outer, inner in ((1e307, 1e306), (1e308, 3.0), (math.inf, 3.0)):
        with np.errstate(over="ignore", invalid="ignore"):
            got = borel_caratheodory_check(ctx, f, outer, inner, 64)
            want = per_point_bc_report(ctx, f, outer, inner, 64)
        assert repr(got.to_dict()) == repr(want)  # repr: nan != nan


def test_sector_membership_fixed_omega():
    ctx = diff_ctx(cap=8)
    spec = SectorSpec(MODE_FIXED_OMEGA, omega=1.0)  # opening pi/2
    assert sector_membership(ctx, spec, cmath.exp(1j * math.pi / 3))
    assert not sector_membership(ctx, spec, cmath.exp(1.6j))
    assert not sector_membership(ctx, spec, -1.0 + 0.0j)


def test_sector_membership_per_index():
    ctx = inv_ctx()
    spec = SectorSpec(MODE_PER_INDEX, theta=1.0)
    # |z| = 5 -> k = 5: rho(5) = log(1.25^5 - 0.5^5)/5 ~ 0.221
    assert sector_membership(ctx, spec, 5.0 * cmath.exp(0.1j))
    assert not sector_membership(ctx, spec, 5.0 * cmath.exp(0.5j))
    # inside the unit disc the k = 1 rate governs, and R(p^-1... ) = 0.75 < 1
    with pytest.raises(NonPositiveLogRate):
        sector_membership(ctx, spec, 0.5)
    with pytest.raises(OutOfRange):
        sector_membership(ctx, spec, 70.0)


def test_sector_membership_sup_mode():
    ctx = inv_ctx()
    spec = SectorSpec(MODE_SUP, theta=1.0)  # opening ~ 0.223
    assert sector_membership(ctx, spec, 1.0 + 0.0j)
    assert not sector_membership(ctx, spec, cmath.exp(0.3j))
    # bounded lattice: every rate is negative, so the sector is empty
    with pytest.raises(NonPositiveLogRate):
        sector_membership(diff_ctx(), SectorSpec(MODE_SUP), 1.0)


def test_sector_spec_validation():
    with pytest.raises(DomainError):
        SectorSpec("bad-mode")
    with pytest.raises(DomainError):
        SectorSpec(MODE_SUP, theta=0.0)
    with pytest.raises(DomainError):
        SectorSpec(MODE_FIXED_OMEGA)  # omega missing
    with pytest.raises(DomainError):
        SectorSpec(MODE_FIXED_OMEGA, omega=-2.0)


def test_growth_envelope_validation():
    GrowthEnvelope(1.0, 1.0, 0.5)
    for bad in [(0.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1.0, float("inf"))]:
        with pytest.raises(DomainError):
            GrowthEnvelope(*bad)


def pl_setup(order=32):
    ctx = build_context(jagannathan_srinivasa_kernel(1.0, 0.5), 64)
    f = deformed_exponential(ctx, order)
    radii = np.linspace(1.0 / 32, 1.0, 32)
    fracs = midpoint_fracs(32)
    return ctx, f, radii, fracs


def test_pl_interior_check_passes_with_auto_boundary():
    ctx, f, radii, fracs = pl_setup()
    spec = SectorSpec(MODE_FIXED_OMEGA, omega=2.0)
    env = GrowthEnvelope(scale=1.0, rate=1.0, exponent=1.0)
    report = pl_interior_check(ctx, spec, f, env, radii, fracs)
    assert report.passed
    assert not report.inconclusive
    assert report.details["gate_passed"]
    assert report.details["gate_rhs"] == 2.0
    assert report.details["opening"] == pytest.approx(math.pi / 4, rel=1e-15)
    assert report.trials == radii.size * fracs.size


def test_pl_gate_failure_is_inconclusive():
    ctx, f, radii, fracs = pl_setup()
    spec = SectorSpec(MODE_FIXED_OMEGA, omega=2.0)
    env = GrowthEnvelope(scale=1.0, rate=1.0, exponent=2.0)  # 2 !< 2
    report = pl_interior_check(ctx, spec, f, env, radii, fracs)
    assert not report.passed
    assert report.inconclusive
    assert not report.details["gate_passed"]
    assert report.trials == 0


def test_pl_boundary_premise_failure_is_inconclusive():
    ctx, f, radii, fracs = pl_setup()
    spec = SectorSpec(MODE_FIXED_OMEGA, omega=2.0)
    env = GrowthEnvelope(scale=1.0, rate=1.0, exponent=1.0)
    report = pl_interior_check(ctx, spec, f, env, radii, fracs, boundary_max=1e-6)
    assert not report.passed
    assert report.inconclusive
    assert report.witness.startswith("boundary premise failed")


def test_pl_conclusive_interior_violation():
    # an explicit boundary_max that the rays respect but the sector
    # interior does not: the check must fail conclusively, not hide
    # behind the inconclusive flag
    ctx, _, radii, fracs = pl_setup()
    f = TruncatedSeries(np.ones(17))
    spec = SectorSpec(MODE_FIXED_OMEGA, omega=2.0)
    env = GrowthEnvelope(scale=1.0, rate=1.0, exponent=1.0)
    opening = math.pi / 4
    ray = cmath.exp(1j * opening)
    ray_max = max(
        abs(np.polynomial.polynomial.polyval(r * u, f.coeffs))
        for r in radii
        for u in (ray, ray.conjugate())
    )
    report = pl_interior_check(
        ctx, spec, f, env, radii, fracs, boundary_max=ray_max * 1.0001
    )
    assert not report.passed
    assert not report.inconclusive
    assert report.worst_margin < 0.0


def test_pl_sup_mode_on_expanding_kernel():
    ctx = inv_ctx()
    f = TruncatedSeries(np.ones(17))
    spec = SectorSpec(MODE_SUP, theta=1.0)
    env = GrowthEnvelope(scale=1.0, rate=1.0, exponent=1.0)
    radii = np.linspace(0.1, 2.0, 16)
    report = pl_interior_check(ctx, spec, f, env, radii, midpoint_fracs(16))
    assert report.passed
    assert report.details["gate_rhs"] == pytest.approx(
        math.pi / (2.0 * math.log(1.25)), rel=1e-4
    )


def test_pl_mode_and_grid_validation():
    ctx, f, radii, fracs = pl_setup()
    env = GrowthEnvelope(1.0, 1.0, 1.0)
    with pytest.raises(PreconditionViolated):
        pl_interior_check(ctx, SectorSpec(MODE_PER_INDEX), f, env, radii, fracs)
    with pytest.raises(GateUnevaluable):
        pl_interior_check(diff_ctx(), SectorSpec(MODE_SUP), f, env, radii, fracs)
    spec = SectorSpec(MODE_FIXED_OMEGA, omega=2.0)
    with pytest.raises(DomainError):
        pl_interior_check(ctx, spec, f, env, [], fracs)
    with pytest.raises(DomainError):
        pl_interior_check(ctx, spec, f, env, [-0.5, 1.0], fracs)
    with pytest.raises(DomainError):
        pl_interior_check(ctx, spec, f, env, radii, [0.5, 1.0])


def test_max_modulus_harness_property():
    # sampled interior never beats the sampled boundary when the interior
    # grid's outermost ring coincides with the arc samples
    ctx = build_context(jagannathan_srinivasa_kernel(1.0, 0.5), 64)
    spec = SectorSpec(MODE_FIXED_OMEGA, omega=4.0)
    env = GrowthEnvelope(scale=1.0, rate=1.0, exponent=1.0)
    radii = np.linspace(1.0 / 12, 1.0, 12)
    fracs = midpoint_fracs(24)
    rng = np.random.default_rng(0)
    for _ in range(100):
        deg = int(rng.integers(1, 9))
        coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        report = pl_interior_check(
            ctx, spec, TruncatedSeries(coeffs), env, radii, fracs
        )
        assert report.passed


def test_anisotropic_order():
    assert anisotropic_order([0.5, 2.0], 0.1) == 2.1
    assert anisotropic_order([1.0], 0.0) == 1.0
    with pytest.raises(EmptyList):
        anisotropic_order([], 0.1)
    with pytest.raises(DomainError):
        anisotropic_order([0.5, -1.0], 0.1)
    with pytest.raises(DomainError):
        anisotropic_order([0.5], -0.1)

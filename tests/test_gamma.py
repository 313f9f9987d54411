"""Deformed Gamma: integer pins, recurrence residuals, Stirling diagnostic."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from rpqcalc import (
    DeformedContext,
    GammaConfig,
    build_context,
    difference_kernel,
    gamma_log,
    jagannathan_srinivasa_kernel,
    kernel_value,
    laurent_kernel,
    q_kernel,
    recurrence_check,
    stirling_diagnostic,
)
from rpqcalc import gamma as gamma_module
from rpqcalc.errors import (
    DomainError,
    NonIntegerUnsupported,
    NonPositiveShiftedLattice,
    OutOfRange,
)
from rpqcalc.gamma import BASE_INTEGER_ONLY, STABILIZATION_FRACTION

KERNELS = [
    difference_kernel(1.0, 0.5),
    jagannathan_srinivasa_kernel(0.9, 0.4),
    q_kernel(0.3),
]

#: KERNELS plus u^-1 - v and (u - v)^2: the kernels whose shared
#: shifted-lattice terms are checked bit for bit against per-point evaluation
SHARING_KERNELS = KERNELS + [
    laurent_kernel(0.95, 0.5, [(-1, 0, 1.0), (0, 1, -1.0)]),
    laurent_kernel(1.0, 0.5, [(2, 0, 1.0), (1, 1, -2.0), (0, 2, 1.0)]),
]


def _log_shifted_ref(spec, x):
    return math.log(kernel_value(spec, spec.p**x, spec.q**x))


def _gamma_log_ref(cfg, x):
    """The module docstring's formula, one point at a time, terms unshared."""
    n = math.floor(x)
    if x == n:
        return cfg.context.log_factorial(n - 1)
    spec = cfg.context.spec
    delta = x - n
    base = delta * cfg.context.log_number(1)
    if n == 0:
        return base - _log_shifted_ref(spec, delta)
    return math.fsum([base] + [_log_shifted_ref(spec, delta + j) for j in range(1, n)])


@pytest.mark.parametrize("spec", KERNELS)
def test_integer_points_reproduce_factorials_bit_identically(spec):
    ctx = build_context(spec, 64)
    cfg = GammaConfig(ctx)
    for n in range(1, 64):
        assert gamma_log(cfg, float(n + 1)) == ctx.log_factorial(n)
    assert gamma_log(cfg, 1.0) == 0.0


def test_half_integer_value_matches_hand_formula():
    ctx = build_context(difference_kernel(1.0, 0.5), 8)
    cfg = GammaConfig(ctx)
    # downward recurrence from the log-linear base on [1, 2)
    expected = 0.5 * math.log(0.5) - math.log(1.0 - 0.5**0.5)
    assert gamma_log(cfg, 0.5) == expected


def test_value_inside_base_interval_is_log_linear():
    ctx = build_context(jagannathan_srinivasa_kernel(0.9, 0.4), 8)
    cfg = GammaConfig(ctx)
    for d in (0.25, 0.5, 0.75):
        assert gamma_log(cfg, 1.0 + d) == d * ctx.log_number(1)


@pytest.mark.parametrize("spec", KERNELS)
def test_recurrence_residual_at_sampled_points(spec):
    ctx = build_context(spec, 64)
    cfg = GammaConfig(ctx)
    rng = np.random.default_rng(161803)
    for _ in range(50):
        x = float(rng.uniform(1e-3, 60.0))
        assert recurrence_check(cfg, x) <= 1e-12


@pytest.mark.parametrize("spec", SHARING_KERNELS)
def test_recurrence_check_is_bitwise_the_per_point_formula(spec):
    # terms shared between x and x + 1 must give what three separate
    # evaluations give, also where x + 1.0 rounds (just below a power of two)
    ctx = build_context(spec, 64)
    cfg = GammaConfig(ctx)
    rng = np.random.default_rng(271828)
    below_binade = [1.9999999999999998, 3.9999999999999996, 7.999999999999999]
    in_unit = [1e-3, 0.25, 0.5, 0.9999999999999999] + list(rng.uniform(0.0, 1.0, 4))
    integers = [1.0, 2.0, 7.0, 33.0]
    points = below_binade + in_unit + integers + list(rng.uniform(1.0, 60.0, 12))
    for x in map(float, points):
        assert gamma_log(cfg, x) == _gamma_log_ref(cfg, x)
        expected = abs(
            gamma_log(cfg, x + 1.0) - gamma_log(cfg, x) - _log_shifted_ref(spec, x)
        )
        assert recurrence_check(cfg, x) == expected


def test_recurrence_residual_at_integer_points():
    ctx = build_context(difference_kernel(0.9, 0.4), 64)
    cfg = GammaConfig(ctx)
    for n in range(1, 60):
        assert recurrence_check(cfg, float(n)) <= 1e-12


def test_integer_only_mode():
    ctx = build_context(difference_kernel(1.0, 0.5), 16)
    cfg = GammaConfig(ctx, base_mode=BASE_INTEGER_ONLY)
    assert gamma_log(cfg, 5.0) == ctx.log_factorial(4)
    with pytest.raises(NonIntegerUnsupported):
        gamma_log(cfg, 5.5)


def test_domain_and_cache_errors():
    ctx = build_context(difference_kernel(1.0, 0.5), 8)
    cfg = GammaConfig(ctx)
    for bad in (0.0, -1.0, float("nan"), float("inf"), "abc", None, 1j, 10**400):
        with pytest.raises(DomainError):
            gamma_log(cfg, bad)
    for bad in ("abc", None, 1j):
        with pytest.raises(DomainError):
            recurrence_check(cfg, bad)
    with pytest.raises(OutOfRange):
        gamma_log(cfg, 10.0)  # needs [9]! beyond the cap-8 cache
    with pytest.raises(DomainError):
        GammaConfig(ctx, base_mode="nope")


def test_shifted_lattice_positivity_is_enforced():
    # R(u,v) = u - v - 0.6(u^2 - v^2): positive at every integer lattice
    # point for p=1, q=0.5, but negative for real x < ~0.585
    spec = laurent_kernel(
        1.0, 0.5, [(1, 0, 1.0), (0, 1, -1.0), (2, 0, -0.6), (0, 2, 0.6)]
    )
    ctx = build_context(spec, 16)
    cfg = GammaConfig(ctx)
    assert gamma_log(cfg, 3.0) == ctx.log_factorial(2)
    with pytest.raises(NonPositiveShiftedLattice):
        gamma_log(cfg, 0.1)


def test_stirling_difference_kernel_drifts():
    # bounded-lattice kernels have log Gamma ~ O(1) while the comparator
    # contains a -z_k term, so D_k grows linearly: never stabilises
    ctx = build_context(difference_kernel(1.0, 0.5), 64)
    cfg = GammaConfig(ctx)
    diag = stirling_diagnostic(cfg, 1.0, 1.0, (10, 40))
    assert not diag.stabilized
    assert diag.residuals.shape == (31,)
    assert diag.c_estimate > 0.0
    # the flatness rule is reproducible from the reported residuals
    upper = diag.residuals[diag.residuals.size // 2 :]
    spread = upper.max() - upper.min()
    assert (spread <= STABILIZATION_FRACTION * (np.abs(upper).max() + 1.0)) == (
        diag.stabilized
    )
    assert diag.c_estimate == pytest.approx(float(np.exp(upper.mean())), rel=1e-13)
    assert diag.log_c_estimate == pytest.approx(float(upper.mean()), rel=1e-13)


#: (slope, offset, k_window): slopes 1, 2 and 0.5 share fractional parts
#: across a window, 1.25 shares few, pi/3 none; the z ranges cross the
#: binades at 64 and 128
DRIFTS = [
    (1.25, 0.3, (3, 40)),
    (1.0, 0.7, (1, 70)),
    (1.0, 0.3, (50, 140)),
    (2.0, 0.1, (20, 70)),
    (0.5, 0.3, (100, 280)),
    (math.pi / 3, 0.2, (50, 140)),
]


@pytest.mark.parametrize("spec", SHARING_KERNELS)
def test_stirling_carries_its_gamma_logs(spec):
    # every field is bitwise what per-point gamma_log calls give
    ctx = build_context(spec, 300)
    cfg = GammaConfig(ctx)
    for slope, offset, (k_lo, k_hi) in DRIFTS:
        diag = stirling_diagnostic(cfg, slope, offset, (k_lo, k_hi))
        k = np.arange(k_lo, k_hi + 1)
        z = slope * k.astype(float) + offset
        gamma_logs = np.array([gamma_log(cfg, z_k) for z_k in z])
        comparator = (z - 0.5) * np.array([ctx.log_number(int(n)) for n in k]) - z
        residuals = gamma_logs - comparator
        upper = residuals[residuals.size // 2 :]
        assert diag.gamma_logs.shape == diag.residuals.shape == k.shape
        assert diag.gamma_logs.tobytes() == gamma_logs.tobytes()
        assert diag.residuals.tobytes() == residuals.tobytes()
        assert diag.stabilized == (
            np.max(upper) - np.min(upper)
            <= STABILIZATION_FRACTION * (np.max(np.abs(upper)) + 1.0)
        )
        assert diag.log_c_estimate == float(np.mean(upper))
        with np.errstate(over="ignore"):
            assert diag.c_estimate == float(np.exp(np.mean(upper)))


def test_stirling_evaluates_each_shifted_term_once_per_fractional_part(monkeypatch):
    cfg = GammaConfig(build_context(difference_kernel(1.0, 0.5), 512))
    calls = 0
    log_shifted = gamma_module._log_shifted

    def counting(cfg, x):
        nonlocal calls
        calls += 1
        return log_shifted(cfg, x)

    monkeypatch.setattr(gamma_module, "_log_shifted", counting)
    slope, offset = 1.0, 0.3
    stirling_diagnostic(cfg, slope, offset, (1, 512))
    z = slope * np.arange(1, 513, dtype=float) + offset
    parts = len(set((z - np.floor(z)).tolist()))
    assert 1 < parts <= 10
    # per-point evaluation would make sum(floor z_k - 1), about 131 k
    assert calls <= parts * 512


def test_stirling_overflowing_c_estimate_warns_nothing():
    # mean D over the upper half is about 7e2, past log(DBL_MAX): c_estimate
    # is inf, its log is reported finite, and numpy prints no warning
    cfg = GammaConfig(build_context(jagannathan_srinivasa_kernel(0.9, 0.4), 512))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        diag = stirling_diagnostic(cfg, 1.0, 0.5, (1, 512))
    assert diag.c_estimate == math.inf
    assert math.isfinite(diag.log_c_estimate)
    assert diag.log_c_estimate > math.log(np.finfo(float).max)


def test_stirling_stabilises_on_injected_classical_factorials():
    # inject log [n] = log n: then log Gamma(k+1) = log k! and
    # D_k = log k! - (k + 1/2) log k + (k + 1) -> log sqrt(2 pi) + 1
    logs = [math.log(n) for n in range(1, 65)]
    ctx = DeformedContext.from_log_values(difference_kernel(1.0, 0.5), logs)
    diag = stirling_diagnostic(GammaConfig(ctx), 1.0, 1.0, (8, 63))
    assert diag.stabilized
    expected_c = math.e * math.sqrt(2.0 * math.pi)
    assert diag.c_estimate == pytest.approx(expected_c, rel=1e-2)


def test_stirling_window_of_one_is_trivially_stable():
    ctx = build_context(difference_kernel(1.0, 0.5), 16)
    diag = stirling_diagnostic(GammaConfig(ctx), 1.0, 1.0, (5, 5))
    assert diag.stabilized
    assert diag.residuals.shape == (1,)


def test_stirling_argument_validation():
    ctx = build_context(difference_kernel(1.0, 0.5), 16)
    cfg = GammaConfig(ctx)
    with pytest.raises(DomainError):
        stirling_diagnostic(cfg, 0.0, 1.0, (2, 8))
    with pytest.raises(DomainError):
        stirling_diagnostic(cfg, 1.0, -0.5, (2, 8))
    for bad in ("abc", None, 1j):
        with pytest.raises(DomainError):
            stirling_diagnostic(cfg, bad, 1.0, (2, 8))
        with pytest.raises(DomainError):
            stirling_diagnostic(cfg, 1.0, bad, (2, 8))
    with pytest.raises(OutOfRange):
        stirling_diagnostic(cfg, 1.0, 1.0, (0, 8))
    with pytest.raises(OutOfRange):
        stirling_diagnostic(cfg, 1.0, 1.0, (2, 17))
    with pytest.raises(OutOfRange):
        stirling_diagnostic(cfg, 1.0, 1.0, (9, 8))

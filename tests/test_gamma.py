"""Deformed Gamma: integer pins, recurrence residuals, Stirling diagnostic."""

from __future__ import annotations

import math

import numpy as np
import pytest

from rpqcalc import (
    DeformedContext,
    GammaConfig,
    build_context,
    difference_kernel,
    gamma_log,
    jagannathan_srinivasa_kernel,
    laurent_kernel,
    q_kernel,
    recurrence_check,
    stirling_diagnostic,
)
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
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(DomainError):
            gamma_log(cfg, bad)
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


@pytest.mark.parametrize("spec", KERNELS)
def test_stirling_carries_its_gamma_logs(spec):
    cfg = GammaConfig(build_context(spec, 64))
    slope, offset = 1.25, 0.3
    diag = stirling_diagnostic(cfg, slope, offset, (3, 40))
    assert diag.gamma_logs.shape == diag.residuals.shape == (38,)
    for i, k in enumerate(range(3, 41)):
        z_k = slope * k + offset
        assert diag.gamma_logs[i] == gamma_log(cfg, z_k)
        comparator = (z_k - 0.5) * cfg.context.log_number(k) - z_k
        assert diag.residuals[i] == gamma_log(cfg, z_k) - comparator


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
    with pytest.raises(OutOfRange):
        stirling_diagnostic(cfg, 1.0, 1.0, (0, 8))
    with pytest.raises(OutOfRange):
        stirling_diagnostic(cfg, 1.0, 1.0, (2, 17))
    with pytest.raises(OutOfRange):
        stirling_diagnostic(cfg, 1.0, 1.0, (9, 8))

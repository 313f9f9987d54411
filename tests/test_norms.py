"""Weighted seminorms, radius surrogates, and sampled bound checks."""

from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

import oracles as O
from rpqcalc import (
    SeminormFamily,
    TruncatedSeries,
    build_context,
    cauchy_hadamard_radius,
    coefficient_bound_check,
    difference_kernel,
    jagannathan_srinivasa_kernel,
    operator_norm_inequality_check,
    seminorm,
    sup_disk_bound_check,
    weighted_norm,
)
from rpqcalc.errors import (
    DomainError,
    OutOfRange,
    PreconditionViolated,
    WindowTooSmall,
)
from rpqcalc.norms import (
    LOG_ZERO,
    MODE_CLASSICAL,
    MODE_DEFORMED,
    OPNORM_REL_TOL,
    BoundCheckReport,
    _trial_block,
    log_weighted_norm,
)
from rpqcalc.series import MODE_COMPOSITE, eval_on_circle, r_derivative


def diff_ctx(cap=64):
    return build_context(difference_kernel(1.0, 0.5), cap)


def random_poly(rng, order):
    return TruncatedSeries(
        rng.standard_normal(order + 1) + 1j * rng.standard_normal(order + 1)
    )


def test_weighted_norm_examples():
    ctx = diff_ctx()
    f = TruncatedSeries([0.0, 1.0])  # z
    assert weighted_norm(ctx, f, 2.0) == pytest.approx(1.0, rel=1e-12)
    g = TruncatedSeries([0.0, 1.0, 1.0])  # z + z^2
    assert weighted_norm(ctx, g, 1.0) == pytest.approx(1.25, rel=1e-12)


def test_weighted_norm_kills_constants():
    ctx = diff_ctx()
    assert weighted_norm(ctx, TruncatedSeries([5.0 + 2j]), 1.0) == 0.0
    assert log_weighted_norm(ctx, TruncatedSeries([5.0]), 1.0) == LOG_ZERO
    assert weighted_norm(ctx, TruncatedSeries([0.0]), 3.0) == 0.0


def test_weighted_norm_axioms():
    ctx = diff_ctx()
    rng = np.random.default_rng(808)
    for _ in range(30):
        order = int(rng.integers(1, 33))
        f, g = random_poly(rng, order), random_poly(rng, order)
        a = float(rng.standard_normal())
        r = float(rng.uniform(0.2, 2.5))
        nf = weighted_norm(ctx, f, r)
        ng = weighted_norm(ctx, g, r)
        assert weighted_norm(ctx, f * a, r) == pytest.approx(abs(a) * nf, rel=1e-12)
        assert weighted_norm(ctx, f + g, r) <= nf + ng + 1e-12 * (nf + ng)


def test_weighted_norm_validation():
    ctx = diff_ctx(cap=4)
    with pytest.raises(DomainError):
        weighted_norm(ctx, TruncatedSeries([0.0, 1.0]), 0.0)
    with pytest.raises(DomainError):
        weighted_norm(ctx, TruncatedSeries([0.0, 1.0]), -2.0)
    with pytest.raises(OutOfRange):
        weighted_norm(ctx, TruncatedSeries(np.ones(6)), 1.0)


def test_weighted_norm_beyond_double_range_reads_inf():
    ctx = diff_ctx()
    f = TruncatedSeries([0.0, 1.0, 0.5, 0.25])
    log_norm = log_weighted_norm(ctx, f, 1e200)
    assert math.isfinite(log_norm) and log_norm > math.log(1.7976931348623157e308)
    assert weighted_norm(ctx, f, 1e200) == math.inf
    # just inside double range the linear value is still exact
    assert weighted_norm(ctx, f, 1e100) == pytest.approx(
        math.exp(log_weighted_norm(ctx, f, 1e100)), rel=1e-15
    )


def test_coefficient_bound_single_monomial_is_tight():
    ctx = diff_ctx()
    coeffs = np.zeros(8)
    coeffs[7] = 3.5
    report = coefficient_bound_check(ctx, TruncatedSeries(coeffs), 0.7)
    assert report.passed
    assert report.witness == "n=7"
    assert abs(report.worst_margin) <= 1e-12 * 3.5


def test_coefficient_bound_random_polynomials():
    ctx = diff_ctx()
    rng = np.random.default_rng(2024)
    for _ in range(100):
        order = int(rng.integers(1, 33))
        f = random_poly(rng, order)
        r = float(rng.uniform(0.3, 2.0))
        report = coefficient_bound_check(ctx, f, r)
        assert report.passed
        assert report.trials == order


def test_coefficient_bound_constant_is_vacuous():
    report = coefficient_bound_check(diff_ctx(), TruncatedSeries([2.0]), 1.0)
    assert report.passed
    assert report.worst_margin == 0.0
    assert report.trials == 0


def test_sup_disk_bound_identity_function():
    # f(z) = z on |z| = 0.5 has sup exactly 0.5; the bound is
    # ||f||_{R,1} * sum_n (1/2)^n / [n] with [n] = 1 - 2^-n (exact rationals).
    cap = 32
    ctx = diff_ctx(cap=cap)
    report = sup_disk_bound_check(
        ctx, TruncatedSeries([0.0, 1.0]), r=1.0, rho_eval=0.5, samples=64
    )
    norm = F(1, 2)  # [1] * r^1
    bound = norm * sum(
        F(1, 2**n) / O.frac_lattice(O.difference_terms(), F(1), F(1, 2), n)
        for n in range(1, cap + 1)
    )
    assert report.passed
    assert report.worst_margin >= 0.0
    assert report.worst_margin == pytest.approx(float(bound) - 0.5, rel=1e-9)


def test_sup_disk_bound_zero_function():
    report = sup_disk_bound_check(
        diff_ctx(cap=8), TruncatedSeries([0.0]), r=1.0, rho_eval=0.5, samples=32
    )
    assert report.passed
    assert report.worst_margin == 0.0
    assert report.trials == 32


def test_sup_disk_bound_random_polynomials():
    ctx = diff_ctx(cap=32)
    rng = np.random.default_rng(5150)
    for _ in range(60):
        order = int(rng.integers(1, 33))
        f = random_poly(rng, order)
        report = sup_disk_bound_check(ctx, f, r=1.0, rho_eval=0.5, samples=128)
        assert report.passed
        assert report.worst_margin >= -1e-10


def test_sup_disk_bound_preconditions():
    ctx = diff_ctx(cap=8)
    f = TruncatedSeries([0.0, 1.0])
    with pytest.raises(PreconditionViolated):
        sup_disk_bound_check(ctx, f, r=0.5, rho_eval=0.5)
    with pytest.raises(PreconditionViolated):
        sup_disk_bound_check(ctx, f, r=0.5, rho_eval=0.9)
    with pytest.raises(OutOfRange):
        sup_disk_bound_check(ctx, f, r=1.0, rho_eval=0.5, samples=0)


def test_radius_all_ones_deformed_matches_oracle():
    ctx = build_context(jagannathan_srinivasa_kernel(1.0, 0.5), 200)
    f = TruncatedSeries(np.ones(201))
    got = cauchy_hadamard_radius(ctx, f, MODE_DEFORMED, tail_window=32)
    want = O.oracle_tail_radius(
        O.js_terms(F(1), F(1, 2)), F(1), F(1, 2),
        lambda k: F(1), 200, 32, deformed=True,
    )
    assert got == pytest.approx(want, rel=1e-9)
    assert 1.9 <= got <= 2.1


def test_radius_all_ones_classical_is_exactly_one():
    ctx = build_context(jagannathan_srinivasa_kernel(1.0, 0.5), 200)
    f = TruncatedSeries(np.ones(201))
    assert cauchy_hadamard_radius(ctx, f, MODE_CLASSICAL, tail_window=32) == 1.0


def test_radius_classical_exponential_tail():
    # 1/k! coefficients: the surrogate grows with the window's position,
    # well past any fixed disc
    coeffs = [float(F(1, math.factorial(k))) for k in range(201)]
    ctx = diff_ctx(cap=4)  # classical mode never touches the cache
    got = cauchy_hadamard_radius(ctx, TruncatedSeries(coeffs), MODE_CLASSICAL, 32)
    assert got >= 20.0


def test_radius_zero_tail_is_infinite():
    ctx = diff_ctx(cap=64)
    coeffs = np.zeros(41)
    coeffs[0] = 1.0
    coeffs[2] = -3.0
    f = TruncatedSeries(coeffs)
    assert cauchy_hadamard_radius(ctx, f, MODE_DEFORMED, 32) == math.inf
    assert cauchy_hadamard_radius(ctx, f, MODE_CLASSICAL, 32) == math.inf


def test_radius_window_validation():
    ctx = diff_ctx(cap=64)
    f = TruncatedSeries(np.ones(41))
    with pytest.raises(WindowTooSmall):
        cauchy_hadamard_radius(ctx, f, MODE_DEFORMED, 3)
    with pytest.raises(WindowTooSmall):
        cauchy_hadamard_radius(ctx, f, MODE_DEFORMED, 60)
    with pytest.raises(DomainError):
        cauchy_hadamard_radius(ctx, f, "nope", 32)
    with pytest.raises(OutOfRange):
        cauchy_hadamard_radius(
            build_context(difference_kernel(1.0, 0.5), 8),
            TruncatedSeries(np.ones(41)),
            MODE_DEFORMED,
            32,
        )


def test_seminorm_examples_and_monotonicity():
    fam = SeminormFamily(scales=(1.0, 1.0), rates=(0.5, 1.0))
    one = TruncatedSeries([1.0])
    assert seminorm(fam, 1, one) == pytest.approx(1.0, rel=1e-15)
    zsq = TruncatedSeries([0.0, 0.0, 1.0])
    assert seminorm(fam, 1, zsq) == pytest.approx(math.exp(-2.0), rel=1e-12)
    # a stronger weight (larger rate) can only shrink the seminorm
    rng = np.random.default_rng(31415)
    for _ in range(20):
        f = random_poly(rng, int(rng.integers(1, 9)))
        assert seminorm(fam, 2, f) <= seminorm(fam, 1, f) * (1 + 1e-12)
    assert seminorm(fam, 1, TruncatedSeries([0.0])) == 0.0


def test_seminorm_family_validation():
    with pytest.raises(DomainError):
        SeminormFamily(scales=(), rates=())
    with pytest.raises(DomainError):
        SeminormFamily(scales=(1.0,), rates=(1.0, 2.0))
    with pytest.raises(DomainError):
        SeminormFamily(scales=(0.0,), rates=(1.0,))
    with pytest.raises(DomainError):
        SeminormFamily(scales=(1.0,), rates=(-1.0,))
    fam = SeminormFamily(scales=(1.0,), rates=(1.0,))
    with pytest.raises(OutOfRange):
        seminorm(fam, 2, TruncatedSeries([1.0]))


def test_operator_norm_inequality_holds_on_random_sample():
    ctx = diff_ctx(cap=16)
    report = operator_norm_inequality_check(
        ctx, r=0.4, rho=0.8, trials=100, order=8, seed=7, samples=128
    )
    assert report.passed
    assert report.worst_margin > 0.0
    assert report.details["constant"] == pytest.approx(2.5, rel=1e-12)
    assert report.trials == 100


def test_operator_norm_check_is_deterministic():
    ctx = diff_ctx(cap=16)
    a = operator_norm_inequality_check(ctx, 0.4, 0.8, 25, 8, seed=3, samples=64)
    b = operator_norm_inequality_check(ctx, 0.4, 0.8, 25, 8, seed=3, samples=64)
    assert a == b


def test_operator_norm_check_preconditions():
    js_ctx = build_context(jagannathan_srinivasa_kernel(1.0, 0.5), 16)
    with pytest.raises(PreconditionViolated):
        operator_norm_inequality_check(js_ctx, 0.4, 0.8, 10, 8)
    ctx = diff_ctx(cap=16)
    with pytest.raises(PreconditionViolated):
        operator_norm_inequality_check(ctx, 0.8, 0.8, 10, 8)  # p*r/rho = 1
    with pytest.raises(PreconditionViolated):
        operator_norm_inequality_check(ctx, -0.1, 0.8, 10, 8)
    with pytest.raises(OutOfRange):
        operator_norm_inequality_check(ctx, 0.4, 0.8, 0, 8)
    with pytest.raises(OutOfRange):
        operator_norm_inequality_check(ctx, 0.4, 0.8, 10, 17)


def sequential_opnorm_report(ctx, r, rho, trials, order, seed, samples):
    """Reference: one trial at a time, two draws each, a running minimum."""
    constant = 1.0 / (rho * (1.0 - ctx.spec.p * r / rho))
    rng = np.random.default_rng(seed)
    passed, worst_margin, witness = True, math.inf, ""
    for trial in range(trials):
        coeffs = rng.standard_normal(order + 1) + 1j * rng.standard_normal(order + 1)
        f = TruncatedSeries(coeffs)
        df = r_derivative(ctx, f, MODE_COMPOSITE)
        sup_f = float(np.max(np.abs(eval_on_circle(f, rho, samples))))
        sup_df = float(np.max(np.abs(eval_on_circle(df, r, samples))))
        bound = constant * sup_f
        margin = bound - sup_df
        if margin < worst_margin:
            worst_margin, witness = margin, f"trial={trial}"
        if sup_df > bound * (1.0 + OPNORM_REL_TOL):
            passed = False
    report = BoundCheckReport(passed, worst_margin, witness, trials, details={"constant": constant})
    return report.to_dict()


@pytest.mark.parametrize(
    "order, samples, seed, r, rho",
    [(1, 256, 0, 0.4, 0.8), (16, 100, 1, 0.3, 0.5), (32, 128, 2, 0.9, 1.0), (16, 256, 3, 1.5, 2.0)],
)
def test_operator_norm_batches_match_sequential_trials(order, samples, seed, r, rho):
    ctx = diff_ctx(cap=64)
    block = _trial_block(order, samples)
    for trials in (1, block - 1, block, block + 1, 1000):
        got = operator_norm_inequality_check(ctx, r, rho, trials, order, seed, samples)
        assert got.to_dict() == sequential_opnorm_report(ctx, r, rho, trials, order, seed, samples)


def test_operator_norm_failures_match_sequential_trials():
    # one or two points per circle under-estimate sup |f|, so some trials fail
    ctx = build_context(difference_kernel(0.9, 0.5), 64)
    for r, rho, order, samples in ((0.01, 3.0, 2, 1), (0.1, 2.0, 3, 1), (0.2, 1.0, 1, 1)):
        args = (ctx, r, rho, 300, order, 5, samples)
        got = operator_norm_inequality_check(*args)
        assert not got.passed
        assert got.to_dict() == sequential_opnorm_report(*args)


def test_operator_norm_memory_is_bounded():
    ctx = diff_ctx(cap=64)
    tracemalloc.start()
    try:
        report = operator_norm_inequality_check(ctx, 0.4, 0.8, 20_000, 16, seed=0, samples=256)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.trials == 20_000
    assert peak < 64 * 2**20  # one trial-by-sample array would be 80 MB


def test_report_to_dict_shape():
    report = coefficient_bound_check(diff_ctx(), TruncatedSeries([0.0, 1.0]), 1.0)
    doc = report.to_dict()
    assert set(doc) == {
        "passed", "worst_margin", "witness", "trials", "inconclusive", "details",
    }
    assert doc["passed"] is True
    assert doc["inconclusive"] is False

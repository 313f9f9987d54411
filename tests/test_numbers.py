"""Deformed numbers, factorials, binomials, and the log-domain wrapper."""

from __future__ import annotations

import math
from fractions import Fraction as F

import numpy as np
import pytest

import oracles as O
from rpqcalc import (
    LogQuantity,
    build_context,
    deformed_binomial,
    deformed_factorial,
    deformed_number,
    difference_kernel,
    jagannathan_srinivasa_kernel,
    laurent_kernel,
    q_kernel,
)
from rpqcalc.errors import DomainError, OutOfRange


def make_ctx(kind="difference", p=1.0, q=0.5, cap=64):
    spec = {
        "difference": difference_kernel,
        "js": jagannathan_srinivasa_kernel,
    }[kind](p, q)
    return build_context(spec, cap)


class TestLogQuantity:
    def test_zero_has_flag_and_value(self):
        z = LogQuantity.zero()
        assert z.zero_flag
        assert z.value() == 0.0

    def test_from_value_roundtrip(self):
        q = LogQuantity.from_value(0.875)
        assert not q.zero_flag
        assert q.value() == pytest.approx(0.875, rel=1e-15)
        assert LogQuantity.from_value(0.0).zero_flag

    def test_from_value_rejects_negative(self):
        with pytest.raises(DomainError):
            LogQuantity.from_value(-1.0)

    def test_multiplication_respects_zero_flag(self):
        a = LogQuantity.from_value(2.0)
        z = LogQuantity.zero()
        assert (a * z).zero_flag
        assert (z * a).zero_flag
        prod = a * LogQuantity.from_value(3.0)
        assert prod.value() == pytest.approx(6.0, rel=1e-15)

    def test_value_beyond_double_range_reads_inf(self):
        assert LogQuantity.from_log(710.0).value() == math.inf
        assert LogQuantity.from_log(709.0).value() == math.exp(709.0)

    def test_invalid_logs_are_domain_errors(self):
        for log_value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(DomainError):
                LogQuantity(log_value)
        with pytest.raises(DomainError):
            LogQuantity(0.0, zero_flag=True)

    def test_division_by_zero_raises(self):
        a = LogQuantity.from_value(2.0)
        with pytest.raises(DomainError):
            a / LogQuantity.zero()
        assert (LogQuantity.zero() / a).zero_flag


def test_number_zero_is_exact():
    ctx = make_ctx()
    n0 = deformed_number(ctx, 0)
    assert n0.zero_flag
    assert n0.value() == 0.0


def test_factorial_example_value():
    # [3]! for the difference kernel at (1, 0.5): oracle 21/64
    ctx = make_ctx()
    fact = deformed_factorial(ctx, 3)
    assert fact.value() == pytest.approx(0.328125, rel=1e-12)
    assert deformed_factorial(ctx, 0).value() == 1.0


def test_binomial_example_value():
    # C(2,1) = [2]!/([1]![1]!) = (3/8)/(1/4) = 3/2
    ctx = make_ctx()
    assert deformed_binomial(ctx, 2, 1).value() == pytest.approx(1.5, rel=1e-12)


def test_binomial_edges_are_exact_unity():
    ctx = make_ctx()
    for m in range(0, 33):
        assert deformed_binomial(ctx, m, 0).log_value == 0.0
        assert deformed_binomial(ctx, m, m).log_value == 0.0


@pytest.mark.parametrize("p,q", [(1.0, 0.5), (0.9, 0.3), (0.7, 0.2)])
@pytest.mark.parametrize("kind", ["difference", "js"])
def test_binomial_symmetry_is_bit_identical(kind, p, q):
    ctx = make_ctx(kind, p, q, cap=32)
    for m in range(0, 33):
        for n in range(0, m + 1):
            a = deformed_binomial(ctx, m, n)
            b = deformed_binomial(ctx, m, m - n)
            assert a.log_value == b.log_value
            assert a.zero_flag == b.zero_flag


def test_values_against_fraction_oracle():
    # exact-rational cross-check, independent of the log-domain caches
    terms = [(1, 0, F(1)), (0, 1, F(-1))]
    ctx = make_ctx("difference", 1.0, 0.5, cap=16)
    for n in range(1, 17):
        want = float(O.frac_factorial(terms, F(1), F(1, 2), n))
        assert deformed_factorial(ctx, n).value() == pytest.approx(want, rel=1e-12)
    rng = np.random.default_rng(20240816)
    for _ in range(50):
        m = int(rng.integers(1, 17))
        n = int(rng.integers(0, m + 1))
        want = float(O.frac_binomial(terms, F(1), F(1, 2), m, n))
        got = deformed_binomial(ctx, m, n).value()
        assert got == pytest.approx(want, rel=1e-12)


def test_js_oracle_cross_check():
    ctx = make_ctx("js", 0.9, 0.3, cap=16)
    terms = O.js_terms(F(9, 10), F(3, 10))
    rng = np.random.default_rng(7)
    for _ in range(40):
        m = int(rng.integers(1, 17))
        n = int(rng.integers(0, m + 1))
        want = float(O.frac_binomial(terms, F(9, 10), F(3, 10), m, n))
        got = deformed_binomial(ctx, m, n).value()
        assert got == pytest.approx(want, rel=5e-12)


def test_q_kernel_factorial_matches_classical_q_product():
    q = 0.5
    ctx = build_context(q_kernel(q), 16)
    acc = 1.0
    for n in range(1, 17):
        acc *= (1.0 - q**n) / (1.0 - q)
        assert deformed_factorial(ctx, n).value() == pytest.approx(acc, rel=1e-12)


def test_binomial_recurrence_property():
    # deformed Pascal-type consistency: C(m,n) = [m]/[n] * C(m-1, n-1)
    ctx = make_ctx("js", 0.9, 0.5, cap=32)
    rng = np.random.default_rng(99)
    for _ in range(60):
        m = int(rng.integers(2, 33))
        n = int(rng.integers(1, m + 1))
        lhs = deformed_binomial(ctx, m, n)
        rhs = (
            deformed_number(ctx, m)
            / deformed_number(ctx, n)
            * deformed_binomial(ctx, m - 1, n - 1)
        )
        assert lhs.value() == pytest.approx(rhs.value(), rel=1e-12)


def test_domain_and_range_errors():
    ctx = make_ctx(cap=8)
    with pytest.raises(DomainError):
        deformed_number(ctx, -1)
    with pytest.raises(OutOfRange):
        deformed_number(ctx, 9)
    with pytest.raises(DomainError):
        deformed_factorial(ctx, -2)
    with pytest.raises(OutOfRange):
        deformed_factorial(ctx, 9)
    with pytest.raises(DomainError):
        deformed_binomial(ctx, 4, 5)
    with pytest.raises(DomainError):
        deformed_binomial(ctx, 4, -1)
    with pytest.raises(OutOfRange):
        deformed_binomial(ctx, 9, 2)


def test_factorial_beyond_double_range_reads_inf():
    inv = laurent_kernel(0.8, 0.5, [(-1, 0, 1.0), (0, 1, -1.0)])
    ctx = build_context(inv, 256)
    fact = deformed_factorial(ctx, 200)
    assert fact.log_value > 710.0
    assert fact.value() == math.inf

"""Kernel validation, lattice caches, and the bidisk surrogate."""

from __future__ import annotations

import math
from fractions import Fraction as F

import numpy as np
import pytest

import oracles as O
from rpqcalc import (
    DeformedContext,
    bidisk_radius_estimate,
    build_context,
    difference_kernel,
    jagannathan_srinivasa_kernel,
    kernel_value,
    laurent_kernel,
    q_kernel,
    spec_from_dict,
    spec_to_dict,
)
from rpqcalc.errors import (
    EmptyKernel,
    InvalidKernel,
    NonPositiveLattice,
    OutOfRange,
    ParameterDomain,
)

STANDARD_PAIRS = [(1.0, 0.5), (0.9, 0.3), (0.7, 0.2)]


def test_difference_lattice_values_match_exact_oracle():
    ctx = build_context(difference_kernel(1.0, 0.5), 4)
    # 1 - 2^-n is a dyadic rational, so the float path is exact before the log
    expected = [F(1, 2), F(3, 4), F(7, 8), F(15, 16)]
    for n, frac in enumerate(expected, start=1):
        assert ctx.log_number(n) == math.log(float(frac))


def test_custom_inverse_kernel_example_value():
    spec = laurent_kernel(0.8, 0.5, [(-1, 0, 1.0), (0, 1, -1.0)])
    ctx = build_context(spec, 8)
    # oracle: 21/16 at n = 2
    assert math.exp(ctx.log_number(2)) == pytest.approx(21 / 16, rel=1e-12)


def test_js_kernel_examples():
    ctx = build_context(jagannathan_srinivasa_kernel(1.0, 0.5), 8)
    assert math.exp(ctx.log_number(3)) == pytest.approx(1.75, rel=1e-12)
    ctx2 = build_context(jagannathan_srinivasa_kernel(0.9, 0.5), 8)
    assert math.exp(ctx2.log_number(2)) == pytest.approx(1.4, rel=1e-12)


@pytest.mark.parametrize("q", [0.5, 0.3, 0.2])
def test_js_at_p_one_specialises_to_q_numbers(q):
    ctx = build_context(jagannathan_srinivasa_kernel(1.0, q), 64)
    for n in range(1, 65):
        expected = (1.0 - q**n) / (1.0 - q)
        assert math.exp(ctx.log_number(n)) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("q", [0.5, 0.3, 0.2])
def test_builtin_q_matches_js_at_p_one(q):
    a = build_context(q_kernel(q), 32)
    b = build_context(jagannathan_srinivasa_kernel(1.0, q), 32)
    assert np.array_equal(a.log_numbers, b.log_numbers)


def test_classical_limit_recovers_integers():
    ctx = build_context(jagannathan_srinivasa_kernel(1.0, 1.0 - 1e-6), 32)
    for n in range(1, 33):
        assert math.exp(ctx.log_number(n)) == pytest.approx(float(n), rel=1e-4)


@pytest.mark.parametrize("p,q", STANDARD_PAIRS)
def test_factorial_cache_recurrence_is_exact_as_stored(p, q):
    for spec in (difference_kernel(p, q), jagannathan_srinivasa_kernel(p, q)):
        ctx = build_context(spec, 64)
        assert ctx.log_factorials[0] == 0.0
        for n in range(1, 65):
            assert (
                ctx.log_factorials[n]
                == ctx.log_factorials[n - 1] + ctx.log_numbers[n - 1]
            )


@pytest.mark.parametrize("cap", [1, 2, 4096])
@pytest.mark.parametrize(
    "spec",
    [
        difference_kernel(1.0, 0.5),
        jagannathan_srinivasa_kernel(0.9, 0.4),
        q_kernel(0.3),
        laurent_kernel(1.0, 0.5, [(2, 0, 1.0), (1, 1, -2.0), (0, 2, 1.0)]),
    ],
)
def test_factorial_cache_equals_ascending_loop(spec, cap):
    ctx = build_context(spec, cap)
    facts = [0.0]
    for log_n in ctx.log_numbers:
        facts.append(facts[-1] + float(log_n))
    assert np.array_equal(ctx.log_factorials, np.array(facts))


def test_vanishing_at_one_tolerance_boundary():
    terms = [(1, 0, 1.0), (0, 1, -1.0), (0, 0, 5e-13)]
    build_context(laurent_kernel(0.9, 0.5, terms), 4)  # within 1e-12: accepted
    bad = [(1, 0, 1.0), (0, 1, -1.0), (0, 0, 5e-12)]
    with pytest.raises(InvalidKernel):
        build_context(laurent_kernel(0.9, 0.5, bad), 4)


def test_nonpositive_lattice_reports_first_offending_index():
    # u*v - 1 vanishes at (1,1) but is negative on the whole lattice
    with pytest.raises(NonPositiveLattice) as err:
        build_context(laurent_kernel(0.9, 0.5, [(1, 1, 1.0), (0, 0, -1.0)]), 8)
    assert err.value.n == 1

    # positive at n=1, negative from n=2 on: u - v - c*(u^2 - v^2) flips
    # once (1 - q^n) stops compensating; pick c so the flip lands inside
    terms = [(1, 0, 1.0), (0, 1, -1.0), (2, 0, -2.0), (0, 2, 2.0)]
    # R(p^n, q^n) = (p^n - q^n)(1 - 2(p^n + q^n)); with p=0.6,q=0.3:
    # n=1: (0.3)(1 - 1.8) < 0 -> first offence already at 1
    with pytest.raises(NonPositiveLattice) as err2:
        build_context(laurent_kernel(0.6, 0.3, terms), 8)
    assert err2.value.n == 1


@pytest.mark.parametrize(
    "p,q",
    [(1.2, 0.5), (1.0, 0.0), (0.5, 0.5), (0.3, 0.5), (1.0, -0.1), (float("nan"), 0.5)],
)
def test_parameter_domain_rejections(p, q):
    with pytest.raises(ParameterDomain):
        build_context(difference_kernel(p, q), 4)


def test_builtin_q_requires_p_equal_one():
    from rpqcalc.kernel import KIND_Q, KernelSpec

    with pytest.raises(ParameterDomain):
        build_context(KernelSpec(p=0.9, q=0.5, kind=KIND_Q), 4)


def test_order_cap_and_index_bounds():
    with pytest.raises(OutOfRange):
        build_context(difference_kernel(1.0, 0.5), 0)
    ctx = build_context(difference_kernel(1.0, 0.5), 4)
    with pytest.raises(OutOfRange):
        ctx.log_number(0)
    with pytest.raises(OutOfRange):
        ctx.log_number(5)


def test_caches_are_immutable():
    ctx = build_context(difference_kernel(1.0, 0.5), 4)
    with pytest.raises(ValueError):
        ctx.log_numbers[0] = 0.0
    with pytest.raises(ValueError):
        ctx.log_factorials[0] = 1.0


def test_from_log_values_matches_build_recurrence():
    logs = [0.5 * n**2 - 0.2 * n for n in range(1, 11)]
    ctx = DeformedContext.from_log_values(difference_kernel(1.0, 0.5), logs)
    assert ctx.order_cap == 10
    for n in range(1, 11):
        assert (
            ctx.log_factorials[n]
            == ctx.log_factorials[n - 1] + ctx.log_numbers[n - 1]
        )


def test_from_log_values_leaves_caller_array_writable():
    logs = np.array([0.1, 0.2, 0.3])
    ctx = DeformedContext.from_log_values(difference_kernel(1.0, 0.5), logs)
    assert logs.flags.writeable
    assert np.array_equal(logs, [0.1, 0.2, 0.3])
    logs[0] = 1.0
    assert ctx.log_numbers[0] == 0.1


def test_bidisk_estimate_builtins_are_entire():
    assert bidisk_radius_estimate(difference_kernel(1.0, 0.5)) == (
        math.inf,
        math.inf,
    )
    assert bidisk_radius_estimate(jagannathan_srinivasa_kernel(0.9, 0.5)) == (
        math.inf,
        math.inf,
    )


def test_bidisk_estimate_single_term_and_scaling():
    # r_{1,0} = 1: constraint R <= 1 exactly
    spec = laurent_kernel(0.9, 0.5, [(1, 0, 1.0), (0, 1, -1.0)])
    r1, r2 = bidisk_radius_estimate(spec)
    assert r1 == r2
    assert r1 == pytest.approx(1.0, rel=1e-9)

    # coefficient 4 at total degree 1 pushes the radius to 1/4
    spec4 = laurent_kernel(0.9, 0.5, [(1, 0, 4.0), (0, 1, -4.0)])
    assert bidisk_radius_estimate(spec4)[0] == pytest.approx(0.25, rel=1e-9)

    # negative total degree: (|c| R^K)^(1/K) = |c|^(1/K) R with K = -1
    inv = laurent_kernel(0.8, 0.5, [(-1, 0, 1.0), (0, 1, -1.0)])
    assert bidisk_radius_estimate(inv)[0] == pytest.approx(1.0, rel=1e-9)

    # |c|^(1/K) is beyond double range here, but the radius |c| is not
    tiny = laurent_kernel(0.8, 0.5, [(-1, 0, 5e-324), (0, 1, -1.0)])
    assert bidisk_radius_estimate(tiny) == (5e-324, 5e-324)


def test_bidisk_estimate_matches_mpmath_closed_form():
    import mpmath

    rng = np.random.default_rng(2026)
    for _ in range(300):
        count = int(rng.integers(1, 6))
        terms = [
            (int(rng.integers(-4, 5)), int(rng.integers(-4, 5)),
             float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 3.0)))
            for _ in range(count)
        ]
        if all(s + t == 0 for s, t, _ in terms):
            terms.append((1, 0, 1.0))
        r1, r2 = bidisk_radius_estimate(laurent_kernel(0.9, 0.5, terms))
        with mpmath.workdps(40):
            exact = 1 / max(
                mpmath.power(abs(mpmath.mpf(c)), mpmath.mpf(1) / (s + t))
                for s, t, c in terms
                if s + t != 0
            )
        assert r1 == r2
        assert abs(r1 - exact) <= 1e-15 * exact


def test_bidisk_estimate_degree_zero_terms_only():
    spec = laurent_kernel(0.9, 0.5, [(1, -1, 2.0), (0, 0, -1.0)])
    assert bidisk_radius_estimate(spec) == (math.inf, math.inf)


def test_bidisk_estimate_empty_kernel():
    with pytest.raises(EmptyKernel):
        bidisk_radius_estimate(laurent_kernel(0.9, 0.5, [(1, 0, 0.0)]))


def test_kernel_value_against_fraction_oracle():
    terms = [(-1, 0, 1.0), (0, 1, -1.0)]
    spec = laurent_kernel(0.8, 0.5, terms)
    fterms = [(-1, 0, F(1)), (0, 1, F(-1))]
    for n in range(1, 9):
        got = kernel_value(spec, 0.8**n, 0.5**n)
        want = O.frac_lattice(fterms, F(4, 5), F(1, 2), n)
        assert got == pytest.approx(float(want), rel=1e-12)


def test_config_document_roundtrip():
    for spec in (
        difference_kernel(1.0, 0.5),
        jagannathan_srinivasa_kernel(0.9, 0.3),
        q_kernel(0.4),
        laurent_kernel(0.8, 0.5, [(-1, 0, 1.0), (0, 1, -1.0)]),
    ):
        doc = spec_to_dict(spec)
        again = spec_from_dict(doc)
        assert again == spec


@pytest.mark.parametrize(
    "doc",
    [
        {},
        {"p": 1.0, "q": 0.5},
        {"p": 1.0, "q": 0.5, "kernel": {}},
        {"p": 1.0, "q": 0.5, "kernel": {"builtin": "unknown"}},
        {"p": 1.0, "q": 0.5, "kernel": {"builtin": []}},
        {"p": 10**400, "q": 0.5, "kernel": {"builtin": "difference"}},
        {"p": 0.8, "q": 0.5, "kernel": {"laurent": [{"s": 1, "t": 0, "c": [1.0]}]}},
        {"p": 1.0, "q": 0.5, "kernel": {"laurent": [{"s": 1}]}},
        {"p": 0.8, "q": 0.5, "kernel": {"laurent": [{"s": -1.5, "t": 0, "c": 1.0}]}},
        "not a mapping",
    ],
)
def test_config_document_rejects_malformed(doc):
    with pytest.raises(InvalidKernel):
        spec_from_dict(doc)


def test_laurent_exponents_must_be_integers():
    doc = {"p": 0.8, "q": 0.5, "kernel": {"laurent": [
        {"s": -1.0, "t": 0, "c": 1.0}, {"s": 0, "t": 1, "c": -1.0}]}}
    assert spec_from_dict(doc).laurent_terms == ((-1, 0, 1.0), (0, 1, -1.0))
    for bad in (0.5, float("nan"), float("inf"), "x", None):
        with pytest.raises(InvalidKernel):
            laurent_kernel(0.8, 0.5, [(1, bad, 1.0)])
    for bad_terms in ([(1, 0)], [(1, 0, "x")], [(1, 0, 10**400)], 5):
        with pytest.raises(InvalidKernel):
            laurent_kernel(0.8, 0.5, bad_terms)

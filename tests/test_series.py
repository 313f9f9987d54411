"""Truncated series, scaling operators, and the deformed derivative."""

from __future__ import annotations

import math
from fractions import Fraction as F

import numpy as np
import pytest

import oracles as O
from rpqcalc import (
    MODE_CANONICAL,
    MODE_COMPOSITE,
    DeformedContext,
    TruncatedSeries,
    algebra_diagnostic,
    build_context,
    deformed_exponential,
    difference_kernel,
    eval_on_circle,
    eval_series,
    invert_P_minus_Q,
    jagannathan_srinivasa_kernel,
    laurent_kernel,
    pq_derivative,
    r_derivative,
    r_multiplier_op,
    scale_op,
    series_from_pairs,
    series_to_pairs,
)
from rpqcalc.errors import (
    DegenerateParameters,
    DomainError,
    NotInSubspace,
    OutOfRange,
    ParameterDomain,
)


def random_series(rng, order):
    re = rng.standard_normal(order + 1)
    im = rng.standard_normal(order + 1)
    return TruncatedSeries(re + 1j * im)


def test_series_basics_and_arithmetic():
    f = TruncatedSeries([1.0, 2.0, 3.0])
    assert f.order == 2
    assert f.coefficient(1) == 2.0 + 0.0j
    assert f.coefficient(7) == 0.0 + 0.0j
    g = TruncatedSeries([0.5, -1.0])
    h = f + g
    assert np.array_equal(h.coeffs, np.array([1.5, 1.0, 3.0], dtype=complex))
    d = f - g
    assert np.array_equal(d.coeffs, np.array([0.5, 3.0, 3.0], dtype=complex))
    s = f * 2.0
    assert np.array_equal(s.coeffs, np.array([2.0, 4.0, 6.0], dtype=complex))
    for bad in ([float("nan"), 1.0], np.ones((2, 2)), [], ["x"]):
        with pytest.raises(DomainError):
            TruncatedSeries(bad)


def test_pairs_roundtrip():
    f = TruncatedSeries([1 + 2j, 0.0, -0.5j])
    pairs = series_to_pairs(f)
    assert pairs == [[1.0, 2.0], [0.0, 0.0], [0.0, -0.5]]
    assert np.array_equal(series_from_pairs(pairs).coeffs, f.coeffs)


@pytest.mark.parametrize("doc", [[], [[1, None]], [1, 2], 5, [[1, 2, 3]], [[1e400, 0]]])
def test_pairs_reject_malformed_documents(doc):
    with pytest.raises(DomainError):
        series_from_pairs(doc)


def test_r_derivative_rejects_unknown_mode():
    ctx = build_context(difference_kernel(1.0, 0.5), 8)
    with pytest.raises(DomainError):
        r_derivative(ctx, TruncatedSeries([1.0, 2.0]), "nope")


def test_eval_series_matches_direct_sum():
    f = TruncatedSeries([1.0, -2.0, 0.5, 3.0])
    z = 0.3 + 0.4j
    direct = sum(f.coeffs[n] * z**n for n in range(4))
    assert eval_series(f, z) == pytest.approx(direct, rel=1e-14)
    ring = eval_on_circle(f, 0.5, 8)
    assert ring.shape == (8,)
    assert ring[0] == pytest.approx(eval_series(f, 0.5 + 0j), rel=1e-14)


def test_scale_op_example():
    f = TruncatedSeries([1.0, 2.0, 3.0])
    g = scale_op(f, 0.5)
    # dyadic scaling is exact in floats
    assert np.array_equal(g.coeffs, np.array([1.0, 1.0, 0.75], dtype=complex))
    with pytest.raises(ParameterDomain):
        scale_op(f, 0.0)
    with pytest.raises(ParameterDomain):
        scale_op(f, 1.5)


def test_scale_ops_commute_bitwise_when_p_is_one():
    rng = np.random.default_rng(4242)
    for _ in range(20):
        f = random_series(rng, int(rng.integers(1, 40)))
        ab = scale_op(scale_op(f, 1.0), 0.5)
        ba = scale_op(scale_op(f, 0.5), 1.0)
        assert np.array_equal(ab.coeffs, ba.coeffs)


def test_scale_ops_commute_to_rounding_for_p_below_one():
    # a*b vs b*a per coefficient differs by at most one rounding step each
    # way, so the two orders agree to ~2 ulp relative
    rng = np.random.default_rng(515)
    for p, q in [(0.9, 0.3), (0.8, 0.5), (0.7, 0.2)]:
        for _ in range(10):
            f = random_series(rng, 64)
            ab = scale_op(scale_op(f, p), q).coeffs
            ba = scale_op(scale_op(f, q), p).coeffs
            scale = np.abs(ab)
            assert np.all(np.abs(ab - ba) <= 4e-16 * scale)


def test_joint_scale_diagonal_action():
    # (P - Q) z^n = (p^n - q^n) z^n
    p, q = 0.9, 0.4
    for n in range(1, 65):
        coeffs = np.zeros(n + 1, dtype=complex)
        coeffs[n] = 1.0
        f = TruncatedSeries(coeffs)
        diff = scale_op(f, p) - scale_op(f, q)
        assert diff.coeffs[n].real == pytest.approx(p**n - q**n, rel=1e-12)


def test_pq_derivative_example():
    f = TruncatedSeries([0.0, 0.0, 1.0])  # z^2
    g = pq_derivative(f, 1.0, 0.5)
    assert np.array_equal(g.coeffs, np.array([0.0, 1.5], dtype=complex))


def test_pq_derivative_constant_and_degenerate():
    c = TruncatedSeries([4.0])
    out = pq_derivative(c, 1.0, 0.5)
    assert out.order == 0 and out.coeffs[0] == 0.0
    with pytest.raises(DegenerateParameters):
        pq_derivative(c, 0.5, 0.5)


def test_pq_derivative_linearity():
    rng = np.random.default_rng(33)
    for _ in range(25):
        order = int(rng.integers(1, 33))
        f, g = random_series(rng, order), random_series(rng, order)
        a, b = rng.standard_normal(2)
        lhs = pq_derivative(f * a + g * b, 0.9, 0.4)
        rhs = pq_derivative(f, 0.9, 0.4) * a + pq_derivative(g, 0.9, 0.4) * b
        scale = np.max(np.abs(lhs.coeffs)) + 1.0
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) <= 1e-12 * scale


def test_r_derivative_monomial_rule():
    # composite derivative of z^n has coefficient [n] at z^{n-1}
    ctx = build_context(difference_kernel(1.0, 0.5), 64)
    for n in (1, 2, 5, 33, 64):
        coeffs = np.zeros(n + 1, dtype=complex)
        coeffs[n] = 1.0
        out = r_derivative(ctx, TruncatedSeries(coeffs))
        expected = 1.0 - 0.5**n
        assert out.coeffs[n - 1].real == pytest.approx(expected, rel=1e-12)
        assert np.all(out.coeffs[: n - 1] == 0.0)


@pytest.mark.parametrize(
    "spec",
    [difference_kernel(1.0, 0.5), difference_kernel(0.9, 0.3),
     jagannathan_srinivasa_kernel(1.0, 0.5), jagannathan_srinivasa_kernel(0.8, 0.3)],
)
def test_composite_equals_canonical_for_product_form_kernels(spec):
    ctx = build_context(spec, 64)
    rng = np.random.default_rng(2718)
    for _ in range(10):
        f = random_series(rng, 64)
        comp = r_derivative(ctx, f, mode=MODE_COMPOSITE)
        canon = r_derivative(ctx, f, mode=MODE_CANONICAL)
        scale = np.abs(canon.coeffs) + 1e-300
        assert np.max(np.abs(comp.coeffs - canon.coeffs) / scale) <= 1e-12


def test_squared_difference_kernel_separates_the_modes():
    spec = laurent_kernel(
        1.0, 0.5, [(2, 0, 1.0), (1, 1, -2.0), (0, 2, 1.0)]
    )  # (u - v)^2
    ctx = build_context(spec, 8)
    comp, canon = algebra_diagnostic(ctx, 2)
    # oracle by direct substitution: m_2 = R(p,q)*(p^2-q^2)/(p-q) = 3/8,
    # canonical [2] = R(p^2,q^2) = 9/16
    assert comp == pytest.approx(0.375, rel=1e-12)
    assert canon == pytest.approx(0.5625, rel=1e-12)
    assert abs(comp - canon) > 0.1


def test_invert_p_minus_q_example_and_errors():
    f = TruncatedSeries([0.0, 1.0])  # z
    g = invert_P_minus_Q(f, 1.0, 0.5)
    assert g.coeffs[1].real == pytest.approx(2.0, rel=1e-14)
    assert g.coeffs[0] == 0.0
    with pytest.raises(NotInSubspace):
        invert_P_minus_Q(TruncatedSeries([1e-13, 1.0]), 1.0, 0.5)
    # exact zero constant term is inside the subspace
    invert_P_minus_Q(TruncatedSeries([0.0, 1.0, 2.0]), 0.8, 0.3)


def test_invert_is_right_inverse_of_joint_scale_difference():
    rng = np.random.default_rng(777)
    for p, q in [(1.0, 0.5), (0.8, 0.3)]:
        for _ in range(20):
            f = random_series(rng, 64)
            coeffs = f.coeffs.copy()
            coeffs[0] = 0.0
            f = TruncatedSeries(coeffs)
            forward = scale_op(f, p) - scale_op(f, q)
            back = invert_P_minus_Q(forward, p, q)
            err = np.max(np.abs(back.coeffs - f.coeffs))
            assert err <= 1e-12 * (1.0 + np.max(np.abs(f.coeffs)))


def test_r_multiplier_example_and_constant_annihilation():
    ctx = build_context(jagannathan_srinivasa_kernel(1.0, 0.5), 8)
    f = TruncatedSeries([0.0, 1.0, 1.0])  # z + z^2
    out = r_multiplier_op(ctx, f)
    assert out.coeffs[1].real == pytest.approx(1.0, rel=1e-12)
    assert out.coeffs[2].real == pytest.approx(1.5, rel=1e-12)
    const = r_multiplier_op(ctx, TruncatedSeries([3.0 + 1j]))
    assert const.coeffs[0] == 0.0


def test_composite_derivative_factorisation():
    # composite derivative == (p - q) * invert(P - Q) applied to the
    # multiplier image of the two-point quotient derivative, on degrees >= 1
    ctx = build_context(difference_kernel(0.9, 0.4), 48)
    rng = np.random.default_rng(1234)
    for _ in range(25):
        f = random_series(rng, 32)
        direct = r_derivative(ctx, f, mode=MODE_COMPOSITE)
        staged = invert_P_minus_Q(
            r_multiplier_op(ctx, pq_derivative(f, 0.9, 0.4)), 0.9, 0.4
        ) * (0.9 - 0.4)
        assert staged.coeffs[0] == 0.0  # the pipeline annihilates degree 0
        scale = 1.0 + np.max(np.abs(direct.coeffs))
        assert np.max(np.abs(direct.coeffs[1:] - staged.coeffs[1:])) <= 1e-12 * scale


def test_deformed_exponential_coefficients():
    ctx = build_context(jagannathan_srinivasa_kernel(1.0, 0.5), 8)
    e = deformed_exponential(ctx, 4)
    assert e.coeffs[0] == 1.0
    assert e.coeffs[1].real == pytest.approx(1.0, rel=1e-12)
    assert e.coeffs[2].real == pytest.approx(2.0 / 3.0, rel=1e-12)
    ctx_diff = build_context(difference_kernel(1.0, 0.5), 8)
    e2 = deformed_exponential(ctx_diff, 4)
    assert e2.coeffs[3].real == pytest.approx(1.0 / 0.328125, rel=1e-12)


def test_deformed_exponential_is_derivative_fixed_point():
    # composite derivative maps the truncated exponential onto itself,
    # shifted down one order
    ctx = build_context(jagannathan_srinivasa_kernel(0.9, 0.5), 32)
    e = deformed_exponential(ctx, 32)
    de = r_derivative(ctx, e)
    scale = np.abs(e.coeffs[:32]) + 1e-300
    assert np.max(np.abs(de.coeffs - e.coeffs[:32]) / scale) <= 1e-10


def test_order_cap_enforcement():
    ctx = build_context(difference_kernel(1.0, 0.5), 4)
    f = TruncatedSeries(np.ones(6))
    with pytest.raises(OutOfRange):
        r_derivative(ctx, f)
    with pytest.raises(OutOfRange):
        r_multiplier_op(ctx, f)
    with pytest.raises(OutOfRange):
        deformed_exponential(ctx, 5)


SQUARE_TERMS = [(2, 0, 1.0), (1, 1, -2.0), (0, 2, 1.0)]  # (u - v)^2


@pytest.mark.parametrize(
    "spec, terms",
    [
        (difference_kernel(0.9, 0.4), O.difference_terms()),
        (jagannathan_srinivasa_kernel(0.9, 0.4), O.js_terms(F(0.9), F(0.4))),
        (laurent_kernel(1.0, 0.5, SQUARE_TERMS), [(s, t, F(c)) for s, t, c in SQUARE_TERMS]),
    ],
)
def test_multipliers_match_exact_oracle_at_every_degree(spec, terms):
    # the derivative of sum_n z^n carries the degree-n multiplier at z^(n-1)
    cap = 64
    ctx = build_context(spec, cap)
    p, q = F(spec.p), F(spec.q)
    ones = TruncatedSeries(np.ones(cap + 1))
    comp = r_derivative(ctx, ones, MODE_COMPOSITE).coeffs
    canon = r_derivative(ctx, ones, MODE_CANONICAL).coeffs
    lattice = r_multiplier_op(ctx, ones).coeffs
    assert np.array_equal(lattice[1:], canon)
    for n in range(1, cap + 1):
        want_comp = float(O.frac_composite_multiplier(terms, p, q, n))
        want_canon = float(O.frac_lattice(terms, p, q, n))
        assert comp[n - 1].real == pytest.approx(want_comp, rel=1e-12)
        assert canon[n - 1].real == pytest.approx(want_canon, rel=1e-12)
        assert algebra_diagnostic(ctx, n) == (comp[n - 1].real, canon[n - 1].real)


def test_multiplier_beyond_double_range_is_out_of_range():
    # exact logs of the difference lattice at (0.9, 0.5): p^n and q^n
    # underflow near n = 7073, so the composite ratio there is 0/0
    n = np.arange(1, 8001, dtype=float)
    logs = n * np.log(0.9) + np.log1p(-((0.5 / 0.9) ** n))
    ctx = DeformedContext.from_log_values(difference_kernel(0.9, 0.5), logs)
    f = TruncatedSeries(np.ones(7501))
    with pytest.raises(OutOfRange, match="composite multiplier of degree"):
        r_derivative(ctx, f, MODE_COMPOSITE)
    assert np.all(np.isfinite(r_derivative(ctx, f, MODE_CANONICAL).coeffs))

    huge = DeformedContext.from_log_values(difference_kernel(1.0, 0.5), [1.0, 800.0])
    with pytest.raises(OutOfRange, match="degree 2"):
        r_multiplier_op(huge, TruncatedSeries([0.0, 1.0, 1.0]))
    with pytest.raises(OutOfRange):
        algebra_diagnostic(huge, 2)


def test_deformed_exponential_beyond_double_range_names_largest_order():
    ctx = build_context(jagannathan_srinivasa_kernel(0.9, 0.4), 256)
    with pytest.raises(OutOfRange, match="largest representable order is") as err:
        deformed_exponential(ctx, 256)
    largest = int(str(err.value).rsplit(" ", 1)[1])
    assert 0 < largest < 256
    e = deformed_exponential(ctx, largest)
    assert np.all(np.isfinite(e.coeffs))
    with pytest.raises(OutOfRange):
        deformed_exponential(ctx, largest + 1)

"""Verification of every item against references that do not come from the
code being timed.

References:

* ``mpmath`` at 40 digits for sampled lattice logs (to 1e-12, i.e. the
  lattice value to 1e-12 relative), and the exact rationals of
  ``tests/oracles.py`` for a sampled small index and factorial;
* bitwise invariants: the stored factorial recurrence, binomial symmetry
  and the integer Gamma pins;
* ``recurrence_check`` at most 1e-10, widened by two ulps of ``log Gamma``
  where 1e-10 is below the resolution of a double of that size;
* the benchmark's own array implementations of the checks (below, named
  ``ref_*``), which give the expected verdict of each sampled check;
* for the CLI, the stdout of ``main(argv)`` run in this process, byte for
  byte, and the exit code the verdict calls for.

Verification runs between items, outside the timed spans.  A wrong result
raises :class:`Mismatch`; a run that ends with the wrong CLI exit code raises
:class:`Failure`.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
from fractions import Fraction

import mpmath
import numpy as np

import rpqcalc as R
from rpqcalc.kernel import KIND_CUSTOM, KIND_DIFFERENCE
from workloads import ROOT

sys.path.insert(0, os.path.join(ROOT, "tests"))
import oracles  # noqa: E402  (exact-rational references shipped with the tests)

LOG_DBL_MAX = math.log(sys.float_info.max)
LATTICE_TOL = 1e-12
RECURRENCE_TOL = 1e-10


class Mismatch(Exception):
    """The program returned a wrong result."""


class Failure(Exception):
    """The program failed without raising in this process (a CLI exit code)."""


def _require(cond, msg):
    if not cond:
        raise Mismatch(msg)


def _close(a, b, tol, what):
    _require(abs(a - b) <= tol, f"{what}: {a!r} vs reference {b!r} (tol {tol:.3g})")


def _array_close(a, b, rtol, what):
    a = np.asarray(a)
    b = np.asarray(b)
    _require(a.shape == b.shape, f"{what}: shape {a.shape} vs {b.shape}")
    err = np.abs(a - b)
    # relative per entry, with a floor at 1e-3 of the largest entry so that
    # entries that cancel to near zero are not held to a relative bound
    tol = rtol * np.maximum(np.abs(b), np.max(np.abs(b), initial=0.0) * 1e-3)
    bad = np.flatnonzero(err > tol)
    _require(bad.size == 0, f"{what}: index {bad[:1]} differs beyond rtol {rtol}")


# --- lattice references ----------------------------------------------------


def mp_log_lattice(spec, n):
    with mpmath.workdps(40):
        p, q = mpmath.mpf(spec.p), mpmath.mpf(spec.q)
        u, v = p**n, q**n
        if spec.kind == KIND_DIFFERENCE:
            val = u - v
        elif spec.kind == KIND_CUSTOM:
            val = mpmath.fsum(mpmath.mpf(c) * u**s * v**t for s, t, c in spec.laurent_terms)
        else:
            val = (u - v) / (mpmath.mpf(spec.p) - mpmath.mpf(spec.q))
        return float(mpmath.log(val))


def oracle_terms(spec):
    if spec.kind == KIND_DIFFERENCE:
        return oracles.difference_terms()
    if spec.kind == KIND_CUSTOM:
        return [(s, t, Fraction(c)) for s, t, c in spec.laurent_terms]
    return oracles.js_terms(Fraction(spec.p), Fraction(spec.q))


def check_context(ctx, spec, cap, rng):
    """Sampled lattice logs against mpmath and oracles; the stored recurrence."""
    logs, facts = ctx.log_numbers, ctx.log_factorials
    _require(ctx.order_cap == cap and logs.size == cap and facts.size == cap + 1, "cache size")
    _require(facts[0] == 0.0, "log [0]! must be 0")
    _require(np.array_equal(facts[1:], facts[:-1] + logs), "stored factorial recurrence")
    for n in {cap, int(rng.integers(1, cap + 1))}:
        ref = mp_log_lattice(spec, n)
        _close(float(logs[n - 1]), ref, LATTICE_TOL * max(1.0, abs(ref)), f"log [{n}] vs mpmath")
    terms = oracle_terms(spec)
    p, q = Fraction(spec.p), Fraction(spec.q)
    n = int(rng.integers(1, min(cap, 12) + 1))
    exact = oracles.frac_lattice(terms, p, q, n)
    ref = math.log(exact.numerator) - math.log(exact.denominator)
    _close(float(logs[n - 1]), ref, LATTICE_TOL * max(1.0, abs(ref)), f"log [{n}] vs exact")
    n = int(rng.integers(1, min(cap, 8) + 1))
    ref = oracles.log_factorial_float(terms, p, q, n)
    _close(float(facts[n]), ref, LATTICE_TOL * max(1.0, abs(ref)), f"log [{n}]! vs exact")


def _kernel_np(spec, u, v):
    if spec.kind == KIND_DIFFERENCE:
        return u - v
    if spec.kind == KIND_CUSTOM:
        return sum(c * u**s * v**t for s, t, c in spec.laurent_terms)
    return (u - v) / (spec.p - spec.q)


def ref_gamma_log(ctx, x):
    """d log R(p, q) + sum_j log R(p^(d+j), q^(d+j)), summed exactly; and the
    sum of |terms| that sets the tolerance."""
    spec = ctx.spec
    n = math.floor(x)
    d = x - n
    base = d * float(ctx.log_numbers[0])
    if n == 0:
        raise Mismatch("x < 1 is not drawn by the benchmark")
    e = d + np.arange(1, n)
    terms = np.log(_kernel_np(spec, np.power(spec.p, e), np.power(spec.q, e)))
    return math.fsum([base, *terms.tolist()]), abs(base) + float(np.sum(np.abs(terms)))


# --- check references ------------------------------------------------------


def ref_tail(ctx):
    """exp(-slope) of a quadratic fit to the log lattice over the upper half."""
    cap = ctx.order_cap
    lo = max(1, cap // 2)
    ns = np.arange(lo, cap + 1, dtype=float)
    beta = np.polyfit(ns, ctx.log_numbers[lo - 1 : cap], 2)[1]
    return math.exp(-beta)


def ref_pseudonorm(ctx, mags, tail):
    mags = np.asarray(mags, dtype=float)
    out = np.zeros(mags.shape)
    nz = mags > 0.0
    ns = np.arange(1, ctx.order_cap + 1, dtype=float)
    expo = (np.log(mags[nz])[:, None] - ctx.log_numbers[None, :]) / ns[None, :]
    out[nz] = np.maximum(np.exp(expo.max(axis=1)), tail)
    return out


def _polyval(coeffs, pts):
    return np.polynomial.polynomial.polyval(pts, coeffs)


def ref_bc(ctx, f, outer, inner, side):
    tail = ref_tail(ctx)
    ns = np.arange(1, ctx.order_cap + 1, dtype=float)
    kept_total = 0

    def grid(disc_radius):
        nonlocal kept_total
        reach = math.exp(float(np.min(ns * math.log(disc_radius) + ctx.log_numbers)))
        radii = reach * (np.arange(side) + 0.5) / side
        angles = 2.0 * np.pi * np.arange(side) / side
        pts = (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()
        keep = ref_pseudonorm(ctx, np.abs(pts), tail) < disc_radius
        kept_total += int(np.count_nonzero(keep))
        return np.concatenate([[0.0 + 0.0j], pts[keep]])

    outer_pts = grid(outer)
    max_re = float(np.max(_polyval(f.coeffs, outer_pts).real))
    ratio = 1.0 / (outer - inner)
    a0 = abs(complex(f.coeffs[0]))
    bound = 2.0 * inner * ratio * max_re + (outer + inner) * ratio * a0
    inner_pts = grid(inner)
    observed = float(np.max(np.abs(_polyval(f.coeffs, inner_pts))))
    excess = observed - bound
    passed = excess <= 1e-9
    inconclusive = (not passed) and excess <= 0.01 * abs(max_re)
    return {
        "passed": passed,
        "inconclusive": inconclusive,
        "max_re": max_re,
        "bound": bound,
        "trials": int(inner_pts.size),
        "kept": kept_total,
        "excess": excess,
    }


def ref_opnorm(ctx, r, rho, trials, order, seed, samples):
    rng = np.random.default_rng(seed)
    coeffs = np.empty((trials, order + 1), dtype=complex)
    for t in range(trials):
        re = rng.standard_normal(order + 1)
        coeffs[t] = re + 1j * rng.standard_normal(order + 1)
    p, q = ctx.spec.p, ctx.spec.q
    n = np.arange(1, order + 1, dtype=float)
    prev = np.exp(ctx.log_numbers[: order - 1])
    mult = np.empty(order)
    mult[0] = math.exp(ctx.log_numbers[0])
    mult[1:] = prev * (p ** n[1:] - q ** n[1:]) / (p ** n[:-1] - q ** n[:-1])
    angles = 2.0 * np.pi * np.arange(samples) / samples
    sup_f = np.abs(_polyval(coeffs.T, rho * np.exp(1j * angles))).max(axis=1)
    sup_df = np.abs(_polyval((coeffs[:, 1:] * mult).T, r * np.exp(1j * angles))).max(axis=1)
    constant = 1.0 / (rho * (1.0 - p * r / rho))
    bound = constant * sup_f
    return {
        "passed": bool(np.all(sup_df <= bound * (1.0 + 1e-9))),
        "inconclusive": False,
        "worst_margin": float(np.min(bound - sup_df)),
        "scale": float(np.max(bound)),
    }


def ref_pl(ctx, spec, f, env, radii, fracs):
    ns = np.arange(1, ctx.order_cap + 1, dtype=float)
    if spec.mode == "sup":
        sup_rho = float(np.max(ctx.log_numbers / ns))
        opening = spec.theta * sup_rho
        gate_rhs = math.pi / (2.0 * spec.theta * sup_rho)
    else:
        opening = math.pi / (2.0 * spec.omega)
        gate_rhs = spec.omega
    if not env.exponent < gate_rhs:
        return {"passed": False, "inconclusive": True, "worst_margin": 0.0, "trials": 0}
    ray = np.exp(1j * opening)
    rays = np.concatenate([radii * ray, radii * np.conj(ray)])
    arc = float(np.max(radii)) * np.exp(1j * fracs * opening)
    m_used = max(
        float(np.max(np.abs(_polyval(f.coeffs, rays)))),
        float(np.max(np.abs(_polyval(f.coeffs, arc)))),
    )
    interior = (radii[:, None] * np.exp(1j * fracs * opening)[None, :]).ravel()
    vals = np.abs(_polyval(f.coeffs, interior))
    allowance = m_used * (1.0 + 1e-6)
    return {
        "passed": bool(np.all(vals <= allowance)),
        "inconclusive": False,
        "worst_margin": allowance - float(np.max(vals)),
        "trials": int(interior.size),
        "scale": m_used,
    }


def _check_verdict(rep, ref, what):
    _require(rep.passed == ref["passed"], f"{what}: passed={rep.passed}, expected {ref['passed']}")
    _require(
        rep.inconclusive == ref["inconclusive"],
        f"{what}: inconclusive={rep.inconclusive}, expected {ref['inconclusive']}",
    )


def _check_report(rep, ref, what):
    _check_verdict(rep, ref, what)
    scale = max(1.0, abs(ref.get("scale", 1.0)))
    _close(rep.worst_margin, ref["worst_margin"], 1e-9 * scale, f"{what} worst_margin")


class Verifier:
    """Per-run verifier; caches references of the contexts built at set-up."""

    def __init__(self, workload, state):
        self.state = state
        self._tails = {}
        self._cli_expected = {}
        self.verify = getattr(self, f"_verify_{workload}")

    def tail(self, ctx):
        key = id(ctx)
        if key not in self._tails:
            self._tails[key] = ref_tail(ctx)
        return self._tails[key]

    # checks ------------------------------------------------------------

    def _verify_checks(self, it, result, tr):
        st = self.state
        P = it.params
        kind = it.kind
        if kind == "norm_huge_r":
            ctx = st.norm_ctx[P["ctx"]]
            log_ref = self._log_norm(ctx, P["f"], P["r"])
            if log_ref > LOG_DBL_MAX:
                _require(result == math.inf, "norm beyond double range must read inf")
            else:
                _close(result, math.exp(log_ref), 1e-11 * math.exp(log_ref), "weighted_norm")
        elif kind == "coef_sup":
            ctx = st.norm_ctx[P["ctx"]]
            coef, sup = result
            f = P["f"]
            # |a_n| R(p^n,q^n) r^n is one term of the norm, so the check holds
            _require(coef.passed and not coef.inconclusive, "coefficient bound must hold")
            _require(coef.trials == f.order, "coefficient check trials")
            log_norm = self._log_norm(ctx, f, P["r"])
            ns = np.arange(1, ctx.order_cap + 1, dtype=float)
            terms = ns * (math.log(P["rho"]) - math.log(P["r"])) - ctx.log_numbers
            top = float(np.max(terms))
            log_sum = top + math.log(float(np.sum(np.exp(terms - top))))
            bound = math.exp(log_norm + log_sum) + abs(complex(f.coeffs[0]))
            angles = 2.0 * np.pi * np.arange(256) / 256
            circle = P["rho"] * np.exp(1j * angles)
            observed = float(np.max(np.abs(np.polyval(f.coeffs[::-1], circle))))
            # Cauchy: |f| on |z| = rho is at most sum |a_n| rho^n <= bound
            _require(sup.passed and not sup.inconclusive, "sup-on-disc bound must hold")
            _close(sup.worst_margin, bound - observed, 1e-9 * max(1.0, bound), "sup worst_margin")
        elif kind == "opnorm":
            ctx = st.opnorm_ctx[P["ctx"]]
            ref = ref_opnorm(
                ctx, P["r"], P["rho"], P["trials"], P["order"], P["seed"], P["samples"]
            )
            _require(result.trials == P["trials"], "opnorm trials")
            _check_report(result, ref, "opnorm")
        elif kind == "bc":
            ctx = st.sector_ctx[P["ctx"]]
            ref = ref_bc(ctx, P["f"], P["outer"], P["inner"], P["side"])
            if P.get("span_counts") is not None:
                P["span_counts"]["kept"] = ref["kept"]
            _require(result.trials == ref["trials"], f"bc kept {result.trials} vs {ref['trials']}")
            scale = max(1.0, abs(ref["bound"]))
            if abs(ref["excess"]) > 1e-9 * scale:
                _check_verdict(result, ref, "bc")
            _close(result.details["max_re"], ref["max_re"], 1e-9 * scale, "bc max_re")
            _close(result.details["bound"], ref["bound"], 1e-9 * scale, "bc bound")
        elif kind == "pl":
            ctx = st.sector_ctx[P["ctx"]]
            ref = ref_pl(ctx, P["spec"], P["f"], P["env"], P["radii"], P["fracs"])
            _require(result.trials == ref["trials"], "pl trials")
            _check_report(result, ref, "pl")
        else:
            self._verify_points(st.sector_ctx[P["ctx"]], P, result)

    def _log_norm(self, ctx, f, r):
        mags = np.abs(f.coeffs[1:])
        nz = mags > 0
        ns = np.arange(1, f.order + 1, dtype=float)
        t = np.log(mags[nz]) + ctx.log_numbers[: f.order][nz] + ns[nz] * math.log(r)
        top = float(np.max(t))
        return top + math.log(float(np.sum(np.exp(t - top))))

    def _verify_points(self, ctx, P, result):
        tail = self.tail(ctx)
        zs = np.array(P["z"])
        ref = ref_pseudonorm(ctx, np.abs(zs), tail)
        ns = np.arange(1, ctx.order_cap + 1, dtype=float)
        sup_rate = float(np.max(ctx.log_numbers / ns))
        _require(len(result) == len(zs), "one result per point")
        for (norm, inside, member), z, pn, radius, spec in zip(
            result, P["z"], ref, P["radius"], P["sector"]
        ):
            _close(norm, pn, 1e-11 * max(pn, 1e-300), f"pseudonorm at {z}")
            if abs(pn - radius) > 1e-9 * radius:
                _require(inside == (pn < radius), f"disc membership at {z}")
            if spec.mode == "fixed-omega":
                rate, opening = None, math.pi / (2.0 * spec.omega)
            else:
                if spec.mode == "per-index":
                    k = max(1, math.ceil(abs(z)))
                    rate = float(ctx.log_numbers[k - 1]) / k
                else:
                    rate = sup_rate
                opening = spec.theta * rate
            if rate is not None and rate <= 0.0:
                _require(member is None, f"sector at {z} must be empty (rate {rate})")
            elif abs(abs(np.angle(z)) - opening) > 1e-12:
                _require(member == (abs(np.angle(z)) < opening), f"sector membership at {z}")

    # lattice -------------------------------------------------------------

    def _verify_lattice(self, it, result, tr):
        P = it.params
        rng = np.random.default_rng([self.state.seed, it.index, 0xF00D])
        if it.kind == "probe_dexp_overflow":
            facts = self.state.dexp_ctx.log_factorials
            with np.errstate(over="ignore"):
                ref = np.exp(-facts[: P["order"] + 1])
            _require(np.all(np.isfinite(ref)), "a finite result where 1/[n]! overflows")
            _array_close(result.coeffs.real, ref, 1e-12, "deformed_exponential")
            return
        ctx, out = result
        check_context(ctx, P["spec"], P["cap"], rng)
        if it.probe:
            return
        getattr(self, f"_lattice_{it.kind}")(ctx, P, out)

    def _lattice_numbers(self, ctx, P, row):
        m = P["m"]
        logs, facts = ctx.log_numbers, ctx.log_factorials
        _require(len(row) == m + 1, "row length")
        _require(row[0][0].zero_flag, "[0] is an exact zero")
        for n, (num, fact, binom) in enumerate(row):
            if n:
                _require(num.log_value == logs[n - 1], f"[{n}] equals the cache")
            _require(fact.log_value == facts[n], f"[{n}]! equals the cache")
            _require(binom.log_value == row[m - n][2].log_value, f"binomial symmetry at {m},{n}")
            ks, kl = sorted((n, m - n))
            ref = facts[m] - facts[ks] - facts[kl]
            _close(binom.log_value, ref, 1e-12 * max(1.0, abs(facts[m])), f"binomial {m},{n}")

    def _lattice_fit(self, ctx, P, out):
        fit, resid = out
        lo, hi = P["window"]
        ns = np.arange(lo, hi + 1, dtype=float)
        ys = ctx.log_numbers[lo - 1 : hi]
        a, b, c = np.polyfit(ns, ys, 2)
        scale = 1e-6 * (float(np.max(np.abs(ys))) + 1.0)
        got = fit.alpha_hat * ns**2 + fit.beta_hat * ns + fit.intercept_hat
        _require(float(np.max(np.abs(got - (a * ns**2 + b * ns + c)))) <= scale, "fitted curve")
        if abs(a) > 2e-6 or abs(a) < 0.5e-6:
            _require((fit.alpha_hat > 1e-6) == (a > 1e-6), "curvature regime")
        nf = float(P["n"])
        log_fact = float(ctx.log_factorials[P["n"]])
        ref = log_fact - (fit.alpha_hat / 3.0 * nf**3 + fit.beta_hat / 2.0 * nf**2)
        _close(resid, ref, 1e-12 * max(1.0, abs(ref), abs(log_fact)), "sum residual")

    def _lattice_gamma(self, ctx, P, out):
        g, resid = out
        x = P["x"]
        ref, size = ref_gamma_log(ctx, x)
        _close(g, ref, 1e-12 * max(1.0, size), f"gamma_log({x})")
        cfg = R.GammaConfig(context=ctx)
        n = math.floor(x)
        _require(R.gamma_log(cfg, float(n + 1)) == ctx.log_factorials[n], f"integer pin at {n + 1}")
        tol = RECURRENCE_TOL + 2.0 * math.ulp(max(abs(g), abs(ref)))
        _require(resid <= tol, f"recurrence residual {resid!r} at {x} exceeds {tol:.3g}")

    def _lattice_stirling(self, ctx, P, diag):
        lo, hi = P["k_window"]
        res = diag.residuals
        _require(res.size == hi - lo + 1 and diag.k_window == (lo, hi), "stirling window")
        for k in sorted({lo, (lo + hi) // 2, hi}):
            z = P["slope"] * k + P["offset"]
            g, size = ref_gamma_log(ctx, z)
            lk = float(ctx.log_numbers[k - 1])
            ref = g - ((z - 0.5) * lk - z)
            _close(float(res[k - lo]), ref, 1e-12 * max(1.0, size + abs(z * lk)), f"D_{k}")
        upper = res[res.size // 2 :]
        spread = float(np.max(upper) - np.min(upper))
        scale = float(np.max(np.abs(upper))) + 1.0
        _require(diag.stabilized == (spread <= 0.05 * scale), "stabilized flag")

    def _lattice_series(self, ctx, P, out):
        comp, canon, mult, dexp, inv, norm, radius = out
        f = P["f"]
        a = f.coeffs
        m = f.order
        p, q = ctx.spec.p, ctx.spec.q
        logs, facts = ctx.log_numbers, ctx.log_factorials
        n = np.arange(1, m + 1, dtype=float)
        lattice = np.exp(logs[:m])
        _array_close(canon.coeffs, a[1:] * lattice, 1e-12, "canonical derivative")
        cm = np.empty(m)
        cm[0] = lattice[0]
        cm[1:] = lattice[:-1] * (p ** n[1:] - q ** n[1:]) / (p ** n[:-1] - q ** n[:-1])
        _array_close(comp.coeffs, a[1:] * cm, 1e-11, "composite derivative")
        _require(mult.coeffs[0] == 0.0, "multiplier annihilates constants")
        _array_close(mult.coeffs[1:], a[1:] * lattice, 1e-12, "multiplier op")
        dexp_ref = np.exp(-facts[: P["exp_order"] + 1])
        _array_close(dexp.coeffs, dexp_ref, 1e-12, "deformed exponential")
        _array_close(inv.coeffs[1:], a[1:] / (p**n - q**n), 1e-12, "(P - Q)^-1")
        log_ref = self._log_norm(ctx, f, P["r"])
        _close(norm, math.exp(log_ref), 1e-11 * math.exp(log_ref), "weighted_norm")
        ks = np.arange(m - 31, m + 1)
        la = np.log(np.abs(a[ks])) - facts[ks]
        ref = math.exp(-float(np.max(la / ks)))
        _close(radius, ref, 1e-11 * ref, "cauchy_hadamard_radius")

    # cli -----------------------------------------------------------------

    def _verify_cli(self, it, result, tr):
        from rpqcalc.cli import main

        code, stdout = result
        argv = it.params["argv"]
        out, err = io.StringIO(), io.StringIO()
        exc_name = None
        with tr.span("cli.main"), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                inproc_code = main(argv)
            except Exception as exc:  # the in-process reference of a crash
                inproc_code, exc_name = None, type(exc).__name__
        _require(stdout == out.getvalue().encode(), f"{it.kind}: stdout differs from main(argv)")
        if inproc_code is not None:
            _require(code == inproc_code, f"{it.kind}: exit {code} vs main() {inproc_code}")
        expected = self._cli_expected.get(it.kind)
        if expected is None:
            expected = self._cli_expected[it.kind] = self._expected_exit(argv)
        if code != expected:
            raise Failure(f"exit {code}" + (f" ({exc_name})" if exc_name else ""))

    def _expected_exit(self, argv):
        command = argv[0]
        if command not in ("check-opnorm", "check-bc", "check-pl"):
            return 0  # tables, and checks that hold for every input (coef, sup)
        opts = dict(zip(argv[1::2], argv[2::2]))
        with open(opts["--kernel"], encoding="utf-8") as fh:
            spec = R.spec_from_dict(json.load(fh))
        ctx = R.build_context(spec, int(opts.get("--order-cap", 64)))
        if command == "check-opnorm":
            ref = ref_opnorm(ctx, float(opts["--r"]), float(opts["--rho"]), int(opts["--trials"]),
                             int(opts["--order"]), int(opts.get("--seed", 0)), 256)
        else:
            with open(opts["--series"], encoding="utf-8") as fh:
                f = R.series_from_pairs(json.load(fh))
            if command == "check-bc":
                ref = ref_bc(ctx, f, float(opts["--outer"]), float(opts["--inner"]),
                             int(opts["--samples"]))
            else:
                mr = float(opts["--max-radius"])
                radial, angular = int(opts.get("--radial", 64)), int(opts.get("--angular", 64))
                spec_s = R.SectorSpec(mode=opts["--mode"], omega=float(opts["--omega"]))
                env = R.GrowthEnvelope(float(opts["--env-scale"]), float(opts["--env-rate"]),
                                       float(opts["--env-exponent"]))
                radii = np.linspace(mr / radial, mr, radial)
                fracs = (2.0 * (np.arange(angular) + 0.5) / angular) - 1.0
                ref = ref_pl(ctx, spec_s, f, env, radii, fracs)
        if ref.get("inconclusive"):
            return 3
        return 0 if ref["passed"] else 1

"""Command-line interface.

Every subcommand reads the kernel from a JSON config file::

    {"p": 1.0, "q": 0.5, "kernel": {"builtin": "difference"}}
    {"p": 0.8, "q": 0.5, "kernel": {"laurent": [{"s": -1, "t": 0, "c": 1.0},
                                                 {"s": 0, "t": 1, "c": -1.0}]}}

Series files are JSON arrays of [re, im] pairs indexed by degree.  Tables
are CSV with 17-significant-digit floats; structured results are JSON with
sorted keys.  All output is deterministic for fixed inputs and seed.

Exit codes: 0 success, 1 check failed, 2 usage/config error,
3 check inconclusive (hypotheses could not be certified).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import asymptotics, gamma, norms, sectors, series
from .errors import NonPositiveLogRate, RpqError
from .kernel import build_context, spec_from_dict

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3


def _fmt(x: float) -> str:
    """CSV float format: 17 significant digits."""
    return format(float(x), ".17g")


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}j"


def _print_json(doc) -> None:
    print(json.dumps(doc, sort_keys=True))


def _parse_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("..")
    if not _:
        raise argparse.ArgumentTypeError(f"expected A..B, got {text!r}")
    try:
        return (int(lo), int(hi))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad range {text!r}: {exc}") from exc


def _parse_complex(text: str) -> complex:
    try:
        return complex(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad complex literal {text!r}") from exc


def _load_context(args):
    with open(args.kernel, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return build_context(spec_from_dict(doc), args.order_cap)


def _load_series(path: str) -> series.TruncatedSeries:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return series.series_from_pairs(doc)


def _report_exit(report: norms.BoundCheckReport) -> int:
    _print_json(report.to_dict())
    if report.inconclusive:
        return EXIT_INCONCLUSIVE
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


# --- subcommand handlers --------------------------------------------------


def _cmd_numbers(args) -> int:
    ctx = _load_context(args)
    from . import numbers as numbers_mod

    lo, hi = args.n
    if lo < 0 or hi < lo:
        raise RpqError(f"bad index range {lo}..{hi}")
    print("n,number,factorial,binomial_top")
    for n in range(lo, hi + 1):
        num = numbers_mod.deformed_number(ctx, n)
        fact = numbers_mod.deformed_factorial(ctx, n)
        binom = numbers_mod.deformed_binomial(ctx, hi, n)
        print(f"{n},{_fmt(num.value())},{_fmt(fact.value())},{_fmt(binom.value())}")
    return EXIT_OK


def _cmd_gamma(args) -> int:
    ctx = _load_context(args)
    cfg = gamma.GammaConfig(context=ctx, base_mode=args.base_mode)
    print("x,gamma_log")
    for x in args.x:
        print(f"{_fmt(x)},{_fmt(gamma.gamma_log(cfg, x))}")
    return EXIT_OK


def _cmd_stirling(args) -> int:
    ctx = _load_context(args)
    cfg = gamma.GammaConfig(context=ctx)
    diag = gamma.stirling_diagnostic(cfg, args.slope, args.offset, args.k_window)
    print("k,z_k,gamma_log,log_lattice_k,D_k")
    for i, k in enumerate(range(diag.k_window[0], diag.k_window[1] + 1)):
        z_k = args.slope * k + args.offset
        print(
            f"{k},{_fmt(z_k)},{_fmt(diag.gamma_logs[i])},{_fmt(ctx.log_number(k))},"
            f"{_fmt(diag.residuals[i])}"
        )
    print(f"# stabilized={str(diag.stabilized).lower()} c_estimate={_fmt(diag.c_estimate)}")
    return EXIT_OK


def _cmd_fit(args) -> int:
    ctx = _load_context(args)
    fit = asymptotics.fit_log_growth(ctx, args.window)
    _print_json(
        {
            "alpha": fit.alpha_hat,
            "beta": fit.beta_hat,
            "intercept": fit.intercept_hat,
            "max_abs_residual": fit.max_abs_residual,
            "regime": fit.regime,
            "lambda": fit.lambda_hat,
        }
    )
    return EXIT_OK


def _cmd_derive(args) -> int:
    ctx = _load_context(args)
    f = _load_series(args.series)
    df = series.r_derivative(ctx, f, args.mode)
    print(json.dumps(series.series_to_pairs(df)))
    return EXIT_OK


def _cmd_radius(args) -> int:
    ctx = _load_context(args)
    f = _load_series(args.series)
    value = norms.cauchy_hadamard_radius(ctx, f, args.mode, args.window)
    print(_fmt(value) if math.isfinite(value) else "inf")
    return EXIT_OK


def _cmd_norm(args) -> int:
    ctx = _load_context(args)
    f = _load_series(args.series)
    print(_fmt(norms.weighted_norm(ctx, f, args.r)))
    return EXIT_OK


def _cmd_check_coef(args) -> int:
    ctx = _load_context(args)
    f = _load_series(args.series)
    return _report_exit(norms.coefficient_bound_check(ctx, f, args.r))


def _cmd_check_sup(args) -> int:
    ctx = _load_context(args)
    f = _load_series(args.series)
    return _report_exit(
        norms.sup_disk_bound_check(ctx, f, args.r, args.rho, args.samples)
    )


def _cmd_check_opnorm(args) -> int:
    ctx = _load_context(args)
    report = norms.operator_norm_inequality_check(
        ctx,
        r=args.r,
        rho=args.rho,
        trials=args.trials,
        order=args.order,
        seed=args.seed,
        samples=args.samples,
    )
    return _report_exit(report)


def _cmd_check_bc(args) -> int:
    ctx = _load_context(args)
    f = _load_series(args.series)
    report = sectors.borel_caratheodory_check(
        ctx, f, outer_radius=args.outer, inner_radius=args.inner, samples=args.samples
    )
    return _report_exit(report)


def _sector_spec(args) -> sectors.SectorSpec:
    return sectors.SectorSpec(mode=args.mode, theta=args.theta, omega=args.omega)


def _cmd_check_pl(args) -> int:
    ctx = _load_context(args)
    f = _load_series(args.series)
    spec = _sector_spec(args)
    env = sectors.GrowthEnvelope(
        scale=args.env_scale, rate=args.env_rate, exponent=args.env_exponent
    )
    radius_grid = np.linspace(
        args.max_radius / args.radial, args.max_radius, args.radial
    )
    angle_grid = (2.0 * (np.arange(args.angular) + 0.5) / args.angular) - 1.0
    report = sectors.pl_interior_check(
        ctx, spec, f, env, radius_grid, angle_grid, boundary_max=args.boundary_max
    )
    return _report_exit(report)


def _cmd_sector(args) -> int:
    ctx = _load_context(args)
    spec = _sector_spec(args)
    print("z,member,note")
    for z in args.z:
        try:
            member = sectors.sector_membership(ctx, spec, z)
            note = ""
        except NonPositiveLogRate:
            member = False
            note = "empty-at-radius"
        print(f"{_fmt_complex(z)},{str(member).lower()},{note}")
    return EXIT_OK


def _cmd_pseudonorm(args) -> int:
    ctx = _load_context(args)
    print("z,pseudonorm")
    for z in args.z:
        print(f"{_fmt_complex(z)},{_fmt(sectors.deformed_pseudonorm(ctx, z))}")
    return EXIT_OK


# --- parser ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--kernel", required=True, help="kernel config JSON file")
    common.add_argument(
        "--order-cap", type=int, default=64, help="lattice cache size (default 64)"
    )
    common.add_argument(
        "--seed", type=int, default=0, help="RNG seed for randomized checks"
    )

    parser = argparse.ArgumentParser(
        prog="rpqcalc", description="two-parameter deformed calculus toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("numbers", parents=[common], help="deformed numbers table")
    p.add_argument("--n", type=_parse_range, required=True, metavar="A..B")
    p.set_defaults(handler=_cmd_numbers)

    p = sub.add_parser("gamma", parents=[common], help="log deformed Gamma values")
    p.add_argument("--x", type=float, nargs="+", required=True)
    p.add_argument(
        "--base-mode",
        choices=[gamma.BASE_INTERPOLATED, gamma.BASE_INTEGER_ONLY],
        default=gamma.BASE_INTERPOLATED,
    )
    p.set_defaults(handler=_cmd_gamma)

    p = sub.add_parser("stirling", parents=[common], help="Stirling-type residual table")
    p.add_argument("--slope", type=float, required=True)
    p.add_argument("--offset", type=float, required=True)
    p.add_argument("--k-window", type=_parse_range, required=True, metavar="A..B")
    p.set_defaults(handler=_cmd_stirling)

    p = sub.add_parser("fit", parents=[common], help="quadratic log-growth fit")
    p.add_argument("--window", type=_parse_range, required=True, metavar="A..B")
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("derive", parents=[common], help="kernel derivative of a series")
    p.add_argument("--series", required=True, help="series JSON file")
    p.add_argument(
        "--mode",
        choices=list(series.DERIVATIVE_MODES),
        default=series.MODE_COMPOSITE,
    )
    p.set_defaults(handler=_cmd_derive)

    p = sub.add_parser("radius", parents=[common], help="radius-of-convergence surrogate")
    p.add_argument("--series", required=True)
    p.add_argument(
        "--mode", choices=list(norms.RADIUS_MODES), default=norms.MODE_DEFORMED
    )
    p.add_argument("--window", type=int, default=norms.DEFAULT_TAIL_WINDOW)
    p.set_defaults(handler=_cmd_radius)

    p = sub.add_parser("norm", parents=[common], help="weighted seminorm of a series")
    p.add_argument("--series", required=True)
    p.add_argument("--r", type=float, required=True)
    p.set_defaults(handler=_cmd_norm)

    p = sub.add_parser("check-coef", parents=[common], help="coefficient bound check")
    p.add_argument("--series", required=True)
    p.add_argument("--r", type=float, required=True)
    p.set_defaults(handler=_cmd_check_coef)

    p = sub.add_parser("check-sup", parents=[common], help="sup-on-disc bound check")
    p.add_argument("--series", required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--rho", type=float, required=True, help="evaluation radius < r")
    p.add_argument("--samples", type=int, default=norms.DEFAULT_CIRCLE_SAMPLES)
    p.set_defaults(handler=_cmd_check_sup)

    p = sub.add_parser(
        "check-opnorm", parents=[common], help="derivative operator bound check"
    )
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--order", type=int, default=16)
    p.add_argument("--samples", type=int, default=norms.DEFAULT_CIRCLE_SAMPLES)
    p.set_defaults(handler=_cmd_check_opnorm)

    p = sub.add_parser(
        "check-bc", parents=[common], help="two-radius real-part bound check"
    )
    p.add_argument("--series", required=True)
    p.add_argument("--outer", type=float, required=True, help="outer deformed radius R")
    p.add_argument("--inner", type=float, required=True, help="inner deformed radius r")
    p.add_argument("--samples", type=int, default=64, help="polar grid side")
    p.set_defaults(handler=_cmd_check_bc)

    sector_common = argparse.ArgumentParser(add_help=False)
    sector_common.add_argument(
        "--mode", choices=list(sectors.SECTOR_MODES), default=sectors.MODE_SUP
    )
    sector_common.add_argument("--theta", type=float, default=1.0)
    sector_common.add_argument("--omega", type=float, default=None)

    p = sub.add_parser(
        "check-pl", parents=[common, sector_common], help="sector interior bound check"
    )
    p.add_argument("--series", required=True)
    p.add_argument("--env-scale", type=float, required=True)
    p.add_argument("--env-rate", type=float, required=True)
    p.add_argument("--env-exponent", type=float, required=True)
    p.add_argument("--boundary-max", type=float, default=None)
    p.add_argument("--radial", type=int, default=64)
    p.add_argument("--angular", type=int, default=64)
    p.add_argument("--max-radius", type=float, required=True)
    p.set_defaults(handler=_cmd_check_pl)

    p = sub.add_parser(
        "sector", parents=[common, sector_common], help="sector membership of points"
    )
    p.add_argument("--z", type=_parse_complex, nargs="+", required=True)
    p.set_defaults(handler=_cmd_sector)

    p = sub.add_parser("pseudonorm", parents=[common], help="deformed pseudo-norm of points")
    p.add_argument("--z", type=_parse_complex, nargs="+", required=True)
    p.set_defaults(handler=_cmd_pseudonorm)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        return args.handler(args)
    except (RpqError, OSError, ValueError) as exc:
        # ValueError: a file that is not JSON (JSONDecodeError) or not UTF-8
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

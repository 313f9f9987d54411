"""The benchmark's three workloads: set-up, item inputs and the timed items.

Each workload is a :class:`Workload` with three functions:

``setup(seed, workdir)``
    Everything a user pays once: importing the library, building the
    contexts that are reused, writing input files.  Timed as ``setup_s``.
``prepare(state, i)``
    The inputs of item ``i``, a pure function of the seed and ``i``.  Runs
    on the client side, outside the timed item.
``execute(state, item, tracer)``
    The timed item: only calls into ``rpqcalc`` (or one ``python -m
    rpqcalc`` process), each wrapped in a span named after the module and
    function it calls.

Items follow a fixed cycle of kinds (``state.period`` items long) and runs
stop only at the end of a cycle, so every run has the same mix.  The
continuous parameters that set an item's cost (order cap, grid side, trial
count, Stirling window) are stratified with an additive-recurrence sequence
``frac(u0 + j * alpha)`` per kind, where ``u0`` comes from the seed; the
other choices come from a generator seeded with ``(seed, i)``.  That keeps
the mean cost of a run close to the mean of the input distribution, which
is what keeps the run-to-run spread small across seeds.

Probe items make exactly one call that fails at this commit (see
``README.md``).  They are a fixed share of the cycle.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field

import numpy as np

import rpqcalc as R
from rpqcalc.errors import NonPositiveLogRate

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Additive-recurrence step sizes, one per stratified dimension.
_ALPHA = (0.6180339887498949, 0.4142135623730951, 0.7320508075688772, 0.2360679774997897)

INV_TERMS = ((-1, 0, 1.0), (0, 1, -1.0))  # R(u, v) = u^-1 - v
SQUARE_TERMS = ((2, 0, 1.0), (1, 1, -2.0), (0, 2, 1.0))  # R(u, v) = (u - v)^2


@dataclass
class Item:
    index: int
    kind: str
    probe: bool
    params: dict = field(default_factory=dict)


@dataclass
class Workload:
    setup: object
    prepare: object
    execute: object
    #: items per second at the commit that defined the benchmark, used only
    #: to size the fixed-work traced run (``items = rate * seconds / 2``)
    traced_rate: float


class _Cycle:
    """A fixed sequence of item kinds; probes spread evenly through it.

    Each of ``rounds`` rounds runs every kind once, except that a kind listed
    in ``every`` runs only in every ``every[kind]``-th round.
    """

    def __init__(self, kinds, rounds, probes, every=None):
        every = every or {}
        body = [k for r in range(rounds) for k in kinds if r % every.get(k, 1) == 0]
        step = len(body) // max(len(probes), 1)
        slots = []
        for n, kind in enumerate(body):
            slots.append((kind, False))
            if probes and (n + 1) % step == 0 and (n + 1) // step <= len(probes):
                slots.append((probes[(n + 1) // step - 1], True))
        self.slots = slots
        seen = {}
        self.ordinal = []
        for kind, _ in slots:
            self.ordinal.append(seen.get(kind, 0))
            seen[kind] = seen.get(kind, 0) + 1
        self.per_cycle = seen

    def at(self, i):
        """(kind, is_probe, j): j counts earlier items of the same kind."""
        pos = i % len(self.slots)
        kind, probe = self.slots[pos]
        j = (i // len(self.slots)) * self.per_cycle[kind] + self.ordinal[pos]
        return kind, probe, j


def _offsets(seed, n=len(_ALPHA)):
    return np.random.default_rng([seed, 0x5EED]).random(n)


def _strat(u0, j, dim, shift=0.0):
    return (u0[dim] + shift + j * _ALPHA[dim]) % 1.0


def _loguniform(u, lo, hi):
    return lo * (hi / lo) ** u


def _item_rng(seed, i):
    return np.random.default_rng([seed, i])


def _random_series(rng, order, zero_constant=False, decay=0.0):
    """Complex normal coefficients scaled by (1 + n)^-decay, with a real (or
    zero) constant term."""
    n = np.arange(order + 1)
    scale = 1.0 / (1.0 + n) ** decay
    coeffs = (rng.standard_normal(order + 1) + 1j * rng.standard_normal(order + 1)) * scale
    coeffs[0] = 0.0 if zero_constant else coeffs[0].real
    return coeffs


# --- checks: sampled bound checks on contexts built once -----------------

CHECK_KINDS = ("coef_sup", "opnorm", "bc", "pl", "points")


@dataclass
class ChecksState:
    seed: int
    u0: np.ndarray
    cycle: _Cycle
    norm_ctx: dict
    opnorm_ctx: dict
    sector_ctx: dict
    bc_exp: dict

    @property
    def period(self):
        return len(self.cycle.slots)


def setup_checks(seed, workdir):
    norm_ctx = {
        "diff-1.0-0.5": R.build_context(R.difference_kernel(1.0, 0.5), 2048),
        "js-0.9-0.4": R.build_context(R.jagannathan_srinivasa_kernel(0.9, 0.4), 1024),
        "inv-0.8-0.5": R.build_context(R.laurent_kernel(0.8, 0.5, INV_TERMS), 2048),
    }
    opnorm_ctx = {
        "diff-1.0-0.5": norm_ctx["diff-1.0-0.5"],
        "diff-0.9-0.5": R.build_context(R.difference_kernel(0.9, 0.5), 1024),
    }
    sector_ctx = {
        "diff-1.0-0.5": R.build_context(R.difference_kernel(1.0, 0.5), 64),
        "js-1.0-0.5": R.build_context(R.jagannathan_srinivasa_kernel(1.0, 0.5), 64),
        "inv-0.8-0.5": R.build_context(R.laurent_kernel(0.8, 0.5, INV_TERMS), 64),
    }
    bc_exp = {name: R.deformed_exponential(ctx, 24) for name, ctx in sector_ctx.items()}
    cycle = _Cycle(CHECK_KINDS, 8, ["norm_huge_r"])
    return ChecksState(seed, _offsets(seed), cycle, norm_ctx, opnorm_ctx, sector_ctx, bc_exp)


def prepare_checks(st, i):
    kind, probe, j = st.cycle.at(i)
    rng = _item_rng(st.seed, i)
    P = {}
    if kind == "norm_huge_r":
        # weighted_norm overflows for huge r (a raw OverflowError at this commit)
        P["ctx"] = "diff-1.0-0.5"
        P["f"] = R.TruncatedSeries(_random_series(rng, 8))
        P["r"] = 1e200
    elif kind == "coef_sup":
        P["ctx"] = list(st.norm_ctx)[j % len(st.norm_ctx)]
        order = 1 + int(_strat(st.u0, j, 0) * 64)
        P["f"] = R.TruncatedSeries(_random_series(rng, order, decay=1.0))
        P["r"] = float(rng.uniform(0.5, 1.0))
        P["rho"] = P["r"] * float(rng.uniform(0.3, 0.9))
    elif kind == "opnorm":
        P["ctx"] = list(st.opnorm_ctx)[j % len(st.opnorm_ctx)]
        P["trials"] = 50 + int(_strat(st.u0, j, 1) * 151)
        P["order"] = int(rng.integers(8, 33))
        P["r"] = float(rng.uniform(0.3, 0.6))
        p = st.opnorm_ctx[P["ctx"]].spec.p
        P["rho"] = P["r"] * p / float(rng.uniform(0.5, 0.9))
        P["seed"] = int(rng.integers(0, 2**31))
        P["samples"] = 256
    elif kind == "bc":
        P["ctx"] = list(st.sector_ctx)[j % len(st.sector_ctx)]
        P["side"] = 16 + int(_strat(st.u0, j, 2) * 49)
        P["inner"] = float(rng.uniform(1.5, 2.5))
        P["outer"] = P["inner"] + float(rng.uniform(0.5, 1.5))
        if rng.random() < 0.5:
            P["f"] = st.bc_exp[P["ctx"]]
        else:
            order = int(rng.integers(4, 25))
            P["f"] = R.TruncatedSeries(_random_series(rng, order, decay=2.0))
    elif kind == "pl":
        names = list(st.sector_ctx)
        P["ctx"] = names[j % len(names)]
        # sup mode needs a positive cached log-rate, which u - v at p = 1 lacks
        sup_ok = P["ctx"] != "diff-1.0-0.5"
        if sup_ok and (j // len(names)) % 2 == 0:
            P["spec"] = R.SectorSpec(mode="sup", theta=float(rng.uniform(0.5, 1.5)))
        else:
            P["spec"] = R.SectorSpec(mode="fixed-omega", omega=float(rng.uniform(1.0, 3.0)))
        P["env"] = R.GrowthEnvelope(scale=1.0, rate=1.0, exponent=float(rng.uniform(0.5, 3.0)))
        radial = 16 + int(_strat(st.u0, j, 3) * 49)
        angular = 16 + int(rng.integers(0, 49))
        max_radius = float(rng.uniform(0.5, 2.0))
        P["radii"] = np.linspace(max_radius / radial, max_radius, radial)
        P["fracs"] = (2.0 * (np.arange(angular) + 0.5) / angular) - 1.0
        P["f"] = R.TruncatedSeries(_random_series(rng, int(rng.integers(4, 17)), decay=1.0))
    else:  # points
        P["ctx"] = list(st.sector_ctx)[j % len(st.sector_ctx)]
        count = 16 + int(_strat(st.u0, j, 0) * 17)
        mags = np.exp(rng.uniform(math.log(0.05), math.log(4.0), count))
        angles = rng.uniform(-math.pi, math.pi, count)
        P["z"] = [complex(z) for z in mags * np.exp(1j * angles)]
        P["radius"] = [float(x) for x in rng.uniform(1.2, 3.0, count)]
        specs = (
            R.SectorSpec(mode="per-index"),
            R.SectorSpec(mode="sup"),
            R.SectorSpec(mode="fixed-omega", omega=2.0),
        )
        P["sector"] = [specs[k % 3] for k in range(count)]
    return Item(i, kind, probe, P)


def execute_checks(st, it, tr):
    P = it.params
    kind = it.kind
    if kind == "norm_huge_r":
        ctx = st.norm_ctx[P["ctx"]]
        with tr.span("norms.weighted_norm"):
            return R.weighted_norm(ctx, P["f"], P["r"])
    if kind == "coef_sup":
        ctx = st.norm_ctx[P["ctx"]]
        with tr.span("norms.coefficient_bound_check"):
            coef = R.coefficient_bound_check(ctx, P["f"], P["r"])
        with tr.span("norms.sup_disk_bound_check"):
            sup = R.sup_disk_bound_check(ctx, P["f"], P["r"], P["rho"])
        return coef, sup
    if kind == "opnorm":
        ctx = st.opnorm_ctx[P["ctx"]]
        with tr.span("norms.operator_norm_inequality_check", trials=P["trials"]):
            return R.operator_norm_inequality_check(
                ctx, P["r"], P["rho"], P["trials"], P["order"], P["seed"], P["samples"]
            )
    if kind == "bc":
        ctx = st.sector_ctx[P["ctx"]]
        grid = 2 * P["side"] ** 2
        with tr.span("sectors.borel_caratheodory_check", grid_points=grid, kept=0) as sp:
            # the verifier fills in "kept" from its own pseudo-norm mask
            P["span_counts"] = getattr(sp, "counts", None)
            return R.borel_caratheodory_check(ctx, P["f"], P["outer"], P["inner"], P["side"])
    if kind == "pl":
        ctx = st.sector_ctx[P["ctx"]]
        with tr.span("sectors.pl_interior_check"):
            return R.pl_interior_check(ctx, P["spec"], P["f"], P["env"], P["radii"], P["fracs"])
    ctx = st.sector_ctx[P["ctx"]]
    out = []
    for z, radius, spec in zip(P["z"], P["radius"], P["sector"]):
        with tr.span("sectors.deformed_pseudonorm"):
            norm = R.deformed_pseudonorm(ctx, z)
        with tr.span("sectors.in_deformed_disc"):
            inside = R.in_deformed_disc(ctx, z, radius)
        with tr.span("sectors.sector_membership"):
            try:
                member = R.sector_membership(ctx, spec, z)
            except NonPositiveLogRate:
                member = None  # documented outcome: the sector is empty there
        out.append((norm, inside, member))
    return out


# --- lattice: a fresh context per item, then one analysis -----------------

LATTICE_KINDS = ("numbers", "fit", "gamma", "stirling", "series")

#: (name, spec) of the kernels drawn by non-probe lattice items
LATTICE_KERNELS = (
    ("diff-1.0-0.5", R.difference_kernel(1.0, 0.5)),
    ("diff-0.95-0.6", R.difference_kernel(0.95, 0.6)),
    ("diff-0.9-0.3", R.difference_kernel(0.9, 0.3)),
    ("js-1.0-0.5", R.jagannathan_srinivasa_kernel(1.0, 0.5)),
    ("js-0.9-0.4", R.jagannathan_srinivasa_kernel(0.9, 0.4)),
    ("js-0.99-0.7", R.jagannathan_srinivasa_kernel(0.99, 0.7)),
    ("q-0.5", R.q_kernel(0.5)),
    ("q-0.8", R.q_kernel(0.8)),
    ("inv-0.95-0.5", R.laurent_kernel(0.95, 0.5, INV_TERMS)),
    ("inv-0.9-0.6", R.laurent_kernel(0.9, 0.6, INV_TERMS)),
    ("square-1.0-0.5", R.laurent_kernel(1.0, 0.5, SQUARE_TERMS)),
    ("square-1.0-0.8", R.laurent_kernel(1.0, 0.8, SQUARE_TERMS)),
)

#: deformed_exponential order in the series chain: every kernel above keeps
#: 1/[n]! inside double range up to here; the overflow past it is a probe
SERIES_EXP_ORDER = 96

LATTICE_PROBES = {
    # true value positive; p^n and q^n underflow, NonPositiveLattice at n = 7073
    "probe_diff_underflow": (R.difference_kernel(0.9, 0.5), 8192),
    # p^-n overflows: raw OverflowError
    "probe_inv_overflow": (R.laurent_kernel(0.8, 0.5, INV_TERMS), 4096),
}
DEXP_PROBE = (R.jagannathan_srinivasa_kernel(0.9, 0.4), 256)


@dataclass
class LatticeState:
    seed: int
    u0: np.ndarray
    cycle: _Cycle
    dexp_ctx: object

    @property
    def period(self):
        return len(self.cycle.slots)


def setup_lattice(seed, workdir):
    probes = ["probe_diff_underflow", "probe_inv_overflow", "probe_dexp_overflow"]
    # Stirling items run half as often as the others, which keeps the gamma
    # module near half of the traced busy time.
    cycle = _Cycle(LATTICE_KINDS, 12, probes, every={"stirling": 2})
    spec, cap = DEXP_PROBE
    return LatticeState(seed, _offsets(seed), cycle, R.build_context(spec, cap))


def prepare_lattice(st, i):
    kind, probe, j = st.cycle.at(i)
    rng = _item_rng(st.seed, i)
    P = {}
    if kind == "probe_dexp_overflow":
        P["order"] = DEXP_PROBE[1]
        return Item(i, kind, probe, P)
    if probe:
        P["kernel"] = kind
        P["spec"], P["cap"] = LATTICE_PROBES[kind]
        return Item(i, kind, probe, P)
    # Each kernel has its own stratified sequence of caps (and of Stirling
    # windows), so that no seed pairs the slower kernels with the larger caps.
    kk, m = j % len(LATTICE_KERNELS), j // len(LATTICE_KERNELS)
    shift = kk / len(LATTICE_KERNELS)
    name, spec = LATTICE_KERNELS[kk]
    cap = int(round(_loguniform(_strat(st.u0, m, 0, shift), 64, 4096)))
    P.update(kernel=name, spec=spec, cap=cap)
    if kind == "numbers":
        P["m"] = max(1, int(min(cap, 512) * rng.uniform(0.25, 1.0)))
    elif kind == "fit":
        lo = 1 + int(rng.uniform(0.0, 0.5) * cap)
        P["window"] = (lo, cap)
        P["n"] = cap
    elif kind == "gamma":
        x = cap * rng.uniform(0.5, 1.0)
        if x == math.floor(x):
            x += 0.5
        P["x"] = float(x)
    elif kind == "stirling":
        k_hi = int(round(_loguniform(_strat(st.u0, m, 2, shift), 16, 512)))
        # the window must lie in the cache; raising the cap rather than
        # clipping the window keeps the costliest items, which set the
        # tail, stratified
        P["cap"] = max(cap, k_hi)
        P["k_window"] = (1, k_hi)
        P["slope"] = 1.0
        P["offset"] = float(rng.uniform(0.1, 0.9))
    else:  # series
        P["f"] = R.TruncatedSeries(_random_series(rng, cap, zero_constant=True))
        P["r"] = float(rng.uniform(0.3, 0.7))
        P["exp_order"] = min(cap, SERIES_EXP_ORDER)
    return Item(i, kind, probe, P)


def execute_lattice(st, it, tr):
    P = it.params
    if it.kind == "probe_dexp_overflow":
        with tr.span("series.deformed_exponential", coeffs=P["order"] + 1):
            return R.deformed_exponential(st.dexp_ctx, P["order"])
    cap = P["cap"]
    with tr.span("kernel.build_context", indices=cap):
        ctx = R.build_context(P["spec"], cap)
    if it.probe:
        return ctx, None
    kind = it.kind
    if kind == "numbers":
        m = P["m"]
        with tr.span("numbers.row", calls=3 * (m + 1)):
            out = [
                (
                    R.deformed_number(ctx, n),
                    R.deformed_factorial(ctx, n),
                    R.deformed_binomial(ctx, m, n),
                )
                for n in range(m + 1)
            ]
    elif kind == "fit":
        with tr.span("asymptotics.fit_log_growth"):
            fit = R.fit_log_growth(ctx, P["window"])
        with tr.span("asymptotics.sum_asymptotics_check"):
            resid = R.sum_asymptotics_check(ctx, fit, P["n"])
        out = (fit, resid)
    elif kind == "gamma":
        cfg = R.GammaConfig(context=ctx)
        x = P["x"]
        with tr.span("gamma.gamma_log", terms=max(math.floor(x) - 1, 0)):
            g = R.gamma_log(cfg, x)
        with tr.span("gamma.recurrence_check"):
            resid = R.recurrence_check(cfg, x)
        out = (g, resid)
    elif kind == "stirling":
        cfg = R.GammaConfig(context=ctx)
        lo, hi = P["k_window"]
        with tr.span("gamma.stirling_diagnostic", ks=hi - lo + 1):
            out = R.stirling_diagnostic(cfg, P["slope"], P["offset"], P["k_window"])
    else:
        f = P["f"]
        m = f.order
        spec = ctx.spec
        with tr.span("series.r_derivative", coeffs=m):
            comp = R.r_derivative(ctx, f, R.MODE_COMPOSITE)
        with tr.span("series.r_derivative", coeffs=m):
            canon = R.r_derivative(ctx, f, R.MODE_CANONICAL)
        with tr.span("series.r_multiplier_op", coeffs=m + 1):
            mult = R.r_multiplier_op(ctx, f)
        with tr.span("series.deformed_exponential", coeffs=P["exp_order"] + 1):
            dexp = R.deformed_exponential(ctx, P["exp_order"])
        with tr.span("series.invert_P_minus_Q", coeffs=m + 1):
            inv = R.invert_P_minus_Q(f, spec.p, spec.q)
        with tr.span("norms.weighted_norm"):
            norm = R.weighted_norm(ctx, f, P["r"])
        with tr.span("norms.cauchy_hadamard_radius"):
            radius = R.cauchy_hadamard_radius(ctx, f)
        out = (comp, canon, mult, dexp, inv, norm, radius)
    return ctx, out


# --- cli: one `python -m rpqcalc` process per item -------------------------

CLI_TIMEOUT_S = 60.0

_DIFF = {"p": 1.0, "q": 0.5, "kernel": {"builtin": "difference"}}
_JS = {"p": 1.0, "q": 0.5, "kernel": {"builtin": "jagannathan-srinivasa"}}
_INV = {
    "p": 0.8,
    "q": 0.5,
    "kernel": {"laurent": [{"s": -1, "t": 0, "c": 1.0}, {"s": 0, "t": 1, "c": -1.0}]},
}


@dataclass
class CliState:
    seed: int
    workdir: str
    commands: list  # (kind, argv, is_probe)
    env: dict
    #: largest peak RSS of the item processes so far
    peak_rss_kb: int = 0

    @property
    def period(self):
        return len(self.commands)


def _pairs(coeffs):
    return [[float(c.real), float(c.imag)] for c in coeffs]


def setup_cli(seed, workdir):
    import rpqcalc.cli  # noqa: F401  (the in-process reference runs main())

    d = tempfile.mkdtemp(prefix=f"cli-{seed}-", dir=workdir)
    rng = np.random.default_rng([seed, 0xC11])
    files = {}
    for name, doc in (("diff", _DIFF), ("js", _JS), ("inv", _INV)):
        files[name] = os.path.join(d, f"{name}.json")
        with open(files[name], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    series_docs = {
        "f": _pairs(_random_series(rng, 3, zero_constant=True)),
        "g": _pairs(_random_series(rng, 6, decay=1.0)),
        "tail": _pairs(_random_series(rng, 40, decay=0.5)),
    }
    for name, doc in series_docs.items():
        files[name] = os.path.join(d, f"{name}.json")
        with open(files[name], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    xs = [f"{x:.2f}" for x in rng.uniform(0.5, 60.0, 3)]
    # a leading "-" would read as an option to argparse, so Re z >= 0
    zs = [f"{z.real:.3f}{z.imag:+.3f}j" for z in rng.uniform(0, 2, 2) + 1j * rng.uniform(-2, 2, 2)]
    opseed = str(int(rng.integers(0, 2**31)))
    offset = f"{rng.uniform(0.1, 0.9):.3f}"
    diff, js, inv = files["diff"], files["js"], files["inv"]
    f, g, tail = files["f"], files["g"], files["tail"]
    opnorm_1000 = ("check-opnorm-1000", ["check-opnorm", "--kernel", diff, "--r", "0.4",
                                         "--rho", "0.8", "--trials", "1000", "--order", "16",
                                         "--seed", opseed], False)
    # check-opnorm --trials 1000 runs twice per cycle, so that the tail (the
    # 11th-slowest of the 7-8 cycles of a run) falls inside one command's
    # latencies rather than on the edge between two
    commands = [
        ("numbers", ["numbers", "--kernel", diff, "--n", "1..8"], False),
        ("gamma", ["gamma", "--kernel", diff, "--x", *xs], False),
        ("stirling", ["stirling", "--kernel", diff, "--slope", "1", "--offset", "1",
                      "--k-window", "10..40"], False),
        ("fit", ["fit", "--kernel", inv, "--window", "20..60"], False),
        opnorm_1000,
        ("derive", ["derive", "--kernel", diff, "--series", f, "--mode", "composite"], False),
        ("radius", ["radius", "--kernel", diff, "--series", tail, "--mode", "deformed",
                    "--window", "32"], False),
        ("norm", ["norm", "--kernel", diff, "--series", f, "--r", "0.5"], False),
        ("check-coef", ["check-coef", "--kernel", diff, "--series", f, "--r", "1.0"], False),
        ("check-sup", ["check-sup", "--kernel", diff, "--series", f, "--r", "1.0",
                       "--rho", "0.5"], False),
        ("check-opnorm", ["check-opnorm", "--kernel", diff, "--r", "0.4", "--rho", "0.8",
                          "--trials", "100", "--order", "16", "--seed", opseed], False),
        ("check-bc", ["check-bc", "--kernel", diff, "--series", g, "--outer", "3.0",
                      "--inner", "2.0", "--samples", "16"], False),
        ("check-pl", ["check-pl", "--kernel", js, "--series", f, "--mode", "fixed-omega",
                      "--omega", "2", "--env-scale", "1", "--env-rate", "1",
                      "--env-exponent", "1", "--max-radius", "1.0"], False),
        ("sector", ["sector", "--kernel", inv, "--mode", "sup", "--z", "1+0j", *zs], False),
        ("pseudonorm", ["pseudonorm", "--kernel", diff, "--z", "1+0j", *zs], False),
        ("check-bc-64", ["check-bc", "--kernel", diff, "--series", g, "--outer", "3.0",
                         "--inner", "2.0", "--samples", "64"], False),
        opnorm_1000,
        ("stirling-frac", ["stirling", "--kernel", diff, "--order-cap", "512", "--slope", "1",
                           "--offset", offset, "--k-window", "1..300"], False),
        # LogQuantity.value() overflows: traceback and exit 1 at this commit
        ("probe_numbers_overflow", ["numbers", "--kernel", inv, "--order-cap", "256",
                                    "--n", "190..200"], True),
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return CliState(seed, d, commands, env)


def prepare_cli(st, i):
    kind, argv, probe = st.commands[i % len(st.commands)]
    return Item(i, kind, probe, {"argv": argv})


def run_cli_process(argv, env, tr, name="cli.process"):
    """Run one python process to its end; returns (exit code, stdout bytes,
    peak RSS in KiB).  The process is killed after ``CLI_TIMEOUT_S``."""
    with tr.span(name):
        proc = subprocess.Popen(
            [sys.executable, *argv],
            env=env,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )
        watchdog = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            with proc.stdout:
                out = proc.stdout.read()
            # wait4 rather than wait: it also returns the child's peak RSS
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss


def execute_cli(st, it, tr):
    code, out, rss_kb = run_cli_process(["-m", "rpqcalc", *it.params["argv"]], st.env, tr)
    st.peak_rss_kb = max(st.peak_rss_kb, rss_kb)
    return code, out


def teardown(state):
    workdir = getattr(state, "workdir", None)
    if workdir:
        shutil.rmtree(workdir, ignore_errors=True)


WORKLOADS = {
    "checks": Workload(setup_checks, prepare_checks, execute_checks, 75.0),
    "lattice": Workload(setup_lattice, prepare_lattice, execute_lattice, 150.0),
    "cli": Workload(setup_cli, prepare_cli, execute_cli, 3.0),
}


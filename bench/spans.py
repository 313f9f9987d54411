"""In-memory span recorder for the traced run, and the per-layer metrics.

A span covers one benchmark call into a public function of one module of
``src/rpqcalc``; nothing is recorded inside the library.  Each record is
``(span_id, parent_id, item_id, name, start, end, counts, error)``.  Item
spans are the parents of the call spans made while the item runs.

The untraced runs use :data:`NULL`, whose spans record nothing, so the same
item code runs in both modes.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


class _NullTracer:
    _span = _NullSpan()

    def item(self, item_id, kind):
        return self._span

    def span(self, name, **counts):
        return self._span

    def speed(self, sample_s):
        pass


NULL = _NullTracer()


class _Span:
    __slots__ = ("tracer", "span_id", "parent", "item_id", "name", "counts", "start")

    def __init__(self, tracer, span_id, parent, item_id, name, counts):
        self.tracer = tracer
        self.span_id = span_id
        self.parent = parent
        self.item_id = item_id
        self.name = name
        self.counts = counts

    def __enter__(self):
        if self.parent is None:
            self.tracer._current = self
        self.start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        end = perf_counter()
        if self.parent is None:
            self.tracer._current = None
        self.tracer.records.append(
            (
                self.span_id,
                self.parent,
                self.item_id,
                self.name,
                self.start,
                end,
                self.counts,
                exc_type.__name__ if exc_type is not None else None,
            )
        )
        return False


class Tracer:
    """Keeps every span in memory until :meth:`dump` writes them out."""

    def __init__(self):
        self.records = []
        self._next_id = 0
        self._current = None

    def _new_id(self):
        self._next_id += 1
        return self._next_id

    def item(self, item_id, kind):
        return _Span(self, self._new_id(), None, item_id, f"item.{kind}", {})

    def span(self, name, **counts):
        cur = self._current
        parent, item_id = (cur.span_id, cur.item_id) if cur is not None else (None, None)
        return _Span(self, self._new_id(), parent, item_id, name, counts)

    def speed(self, sample_s):
        """Record a calibration sample; later spans are corrected by it."""
        now = perf_counter()
        self.records.append(
            (self._new_id(), None, None, SPEED, now, now, {"sample_s": sample_s}, None)
        )

    def dump(self, path):
        fields = ("span_id", "parent", "item", "name", "start", "end", "counts", "error")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(fields, r)) for r in self.records], fh)


# --- per-layer metrics --------------------------------------------------

#: name of the calibration records (see speed.py)
SPEED = "bench.speed"

#: span name -> per-layer metric group
GROUPS = {
    "kernel.build_context": "kernel.build_context",
    "numbers.row": "numbers",
    "series.r_derivative": "series",
    "series.r_multiplier_op": "series",
    "series.deformed_exponential": "series",
    "series.invert_P_minus_Q": "series",
    "gamma.gamma_log": "gamma.gamma_log",
    "gamma.recurrence_check": "gamma.recurrence_check",
    "gamma.stirling_diagnostic": "gamma.stirling",
    "asymptotics.fit_log_growth": "asymptotics",
    "asymptotics.sum_asymptotics_check": "asymptotics",
    "norms.weighted_norm": "norms.norm_radius",
    "norms.cauchy_hadamard_radius": "norms.norm_radius",
    "norms.coefficient_bound_check": "norms.coef_sup",
    "norms.sup_disk_bound_check": "norms.coef_sup",
    "norms.operator_norm_inequality_check": "norms.opnorm",
    "sectors.borel_caratheodory_check": "sectors.bc",
    "sectors.deformed_pseudonorm": "sectors.pseudonorm",
    "sectors.in_deformed_disc": "sectors.pseudonorm",
    "sectors.sector_membership": "sectors.pseudonorm",
    "sectors.pl_interior_check": "sectors.pl",
    "cli.process": "cli.process",
    "cli.main": "cli.inproc",
    "cli.startup": "cli.startup",
}

MODULES = ("kernel", "numbers", "series", "gamma", "asymptotics", "norms", "sectors", "cli")

#: groups measured outside the items; they take no part in the busy shares
_OUTSIDE_ITEMS = ("cli.inproc", "cli.startup")

# name -> unit, in the order the metrics are printed
PER_LAYER_UNITS = {
    "kernel.build_context.calls": "count",
    "kernel.build_context.busy_s": "s",
    "kernel.build_context.lattice_indices": "count",
    "kernel.build_context.ns_per_index": "ns",
    "kernel.failed": "count",
    "gamma.gamma_log.calls": "count",
    "gamma.gamma_log.busy_s": "s",
    "gamma.gamma_log.terms": "count",
    "gamma.gamma_log.ns_per_term": "ns",
    "gamma.stirling.calls": "count",
    "gamma.stirling.busy_s": "s",
    "gamma.stirling.us_per_k": "us",
    "gamma.recurrence_check.busy_s": "s",
    "gamma.failed": "count",
    "series.calls": "count",
    "series.busy_s": "s",
    "series.coeffs": "count",
    "series.ns_per_coeff": "ns",
    "numbers.calls": "count",
    "numbers.busy_s": "s",
    "numbers.us_per_call": "us",
    "asymptotics.calls": "count",
    "asymptotics.busy_s": "s",
    "norms.norm_radius.busy_s": "s",
    "norms.coef_sup.calls": "count",
    "norms.coef_sup.busy_s": "s",
    "norms.opnorm.calls": "count",
    "norms.opnorm.busy_s": "s",
    "norms.opnorm.trials": "count",
    "norms.opnorm.us_per_trial": "us",
    "sectors.bc.calls": "count",
    "sectors.bc.busy_s": "s",
    "sectors.bc.grid_points": "count",
    "sectors.bc.kept_ratio": "ratio",
    "sectors.bc.us_per_grid_point": "us",
    "sectors.pseudonorm.calls": "count",
    "sectors.pseudonorm.busy_s": "s",
    "sectors.pseudonorm.us_per_point": "us",
    "sectors.pl.calls": "count",
    "sectors.pl.busy_s": "s",
    "cli.process_ms_p50": "ms",
    "cli.inproc_ms_p50": "ms",
    "cli.startup_ms_p50": "ms",
    **{f"{m}.busy_share": "ratio" for m in MODULES},
    "trace.overhead_frac": "ratio",
}


def _ratio(num, den, scale=1.0):
    return num * scale / den if den else 0.0


def per_layer(records, overhead_frac):
    """Per-layer metric values from the span records of one traced pass.

    Each span's duration is corrected to the reference speed by the
    calibration records before it (see speed.py).  A metric of a layer the workload never
    calls reads 0.
    """
    import speed

    calls, busy, failed, counts, durations = {}, {}, {}, {}, {}
    tracker = speed.Tracker()
    scale = 1.0
    for _sid, _parent, _item, name, start, end, cnt, err in sorted(records, key=lambda r: r[4]):
        if name == SPEED:
            tracker.add(cnt["sample_s"])
            scale = tracker.factor()
            continue
        group = GROUPS.get(name)
        if group is None:
            continue
        secs = (end - start) * scale
        calls[group] = calls.get(group, 0) + 1
        busy[group] = busy.get(group, 0.0) + secs
        durations.setdefault(group, []).append(secs)
        if err is not None:
            module = group.split(".")[0]
            failed[module] = failed.get(module, 0) + 1
        for key, val in cnt.items():
            counts[(group, key)] = counts.get((group, key), 0) + val

    def c(group, key=None):
        return calls.get(group, 0) if key is None else counts.get((group, key), 0)

    def b(group):
        return busy.get(group, 0.0)

    def p50_ms(group):
        d = durations.get(group)
        return statistics.median(d) * 1e3 if d else 0.0

    m = {
        "kernel.build_context.calls": c("kernel.build_context"),
        "kernel.build_context.busy_s": b("kernel.build_context"),
        "kernel.build_context.lattice_indices": c("kernel.build_context", "indices"),
        "kernel.build_context.ns_per_index": _ratio(
            b("kernel.build_context"), c("kernel.build_context", "indices"), 1e9
        ),
        "kernel.failed": failed.get("kernel", 0),
        "gamma.gamma_log.calls": c("gamma.gamma_log"),
        "gamma.gamma_log.busy_s": b("gamma.gamma_log"),
        "gamma.gamma_log.terms": c("gamma.gamma_log", "terms"),
        "gamma.gamma_log.ns_per_term": _ratio(
            b("gamma.gamma_log"), c("gamma.gamma_log", "terms"), 1e9
        ),
        "gamma.stirling.calls": c("gamma.stirling"),
        "gamma.stirling.busy_s": b("gamma.stirling"),
        "gamma.stirling.us_per_k": _ratio(b("gamma.stirling"), c("gamma.stirling", "ks"), 1e6),
        "gamma.recurrence_check.busy_s": b("gamma.recurrence_check"),
        "gamma.failed": failed.get("gamma", 0),
        "series.calls": c("series"),
        "series.busy_s": b("series"),
        "series.coeffs": c("series", "coeffs"),
        "series.ns_per_coeff": _ratio(b("series"), c("series", "coeffs"), 1e9),
        "numbers.calls": c("numbers", "calls"),
        "numbers.busy_s": b("numbers"),
        "numbers.us_per_call": _ratio(b("numbers"), c("numbers", "calls"), 1e6),
        "asymptotics.calls": c("asymptotics"),
        "asymptotics.busy_s": b("asymptotics"),
        "norms.norm_radius.busy_s": b("norms.norm_radius"),
        "norms.coef_sup.calls": c("norms.coef_sup"),
        "norms.coef_sup.busy_s": b("norms.coef_sup"),
        "norms.opnorm.calls": c("norms.opnorm"),
        "norms.opnorm.busy_s": b("norms.opnorm"),
        "norms.opnorm.trials": c("norms.opnorm", "trials"),
        "norms.opnorm.us_per_trial": _ratio(b("norms.opnorm"), c("norms.opnorm", "trials"), 1e6),
        "sectors.bc.calls": c("sectors.bc"),
        "sectors.bc.busy_s": b("sectors.bc"),
        "sectors.bc.grid_points": c("sectors.bc", "grid_points"),
        "sectors.bc.kept_ratio": _ratio(c("sectors.bc", "kept"), c("sectors.bc", "grid_points")),
        "sectors.bc.us_per_grid_point": _ratio(
            b("sectors.bc"), c("sectors.bc", "grid_points"), 1e6
        ),
        "sectors.pseudonorm.calls": c("sectors.pseudonorm"),
        "sectors.pseudonorm.busy_s": b("sectors.pseudonorm"),
        "sectors.pseudonorm.us_per_point": _ratio(
            b("sectors.pseudonorm"), c("sectors.pseudonorm"), 1e6
        ),
        "sectors.pl.calls": c("sectors.pl"),
        "sectors.pl.busy_s": b("sectors.pl"),
        "cli.process_ms_p50": p50_ms("cli.process"),
        "cli.inproc_ms_p50": p50_ms("cli.inproc"),
        "cli.startup_ms_p50": p50_ms("cli.startup"),
    }
    module_busy = {mod: 0.0 for mod in MODULES}
    for group, secs in busy.items():
        if group not in _OUTSIDE_ITEMS:
            module_busy[group.split(".")[0]] += secs
    total = sum(module_busy.values())
    for mod in MODULES:
        m[f"{mod}.busy_share"] = _ratio(module_busy[mod], total)
    m["trace.overhead_frac"] = overhead_frac
    return m

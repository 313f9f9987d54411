"""rpqcalc benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload {checks,lattice,cli} --seed N --seconds S --trace {0,1}

One client in one thread runs items in a closed loop: the next item starts
when the last one has finished and been verified.  ``--trace 0`` runs items
until their summed latency reaches ``S`` seconds and prints the end-to-end
metrics.  ``--trace 1`` runs a fixed number of items (set by the workload
and ``S``, so that its work counts repeat exactly for a seed) twice, first
untraced and then traced, and prints the per-layer metrics computed from the
spans.  Both print a summary and, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
with provenance, and the spans of a traced run are written to ``bench/out``.

See ``bench/README.md`` for the workloads and the metrics.
"""

import os
import sys

# Pin BLAS/OpenMP pools to one thread before numpy is imported, here and in
# every child process.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: set-ups timed per run; setup_s is their median
SETUP_REPEATS = 9
#: bare `import rpqcalc.cli` processes timed per traced cli run
STARTUP_REPEATS = 5
#: tail latency is read where this many samples lie beyond it
TAIL_BEYOND = 10
#: no new item starts after this many seconds of wall time, so that a much
#: slower program still ends the run well inside its time limit
ITEM_DEADLINE_S = 120.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_ms_p50": "ms",
    "item_ms_tail": "ms",
    "fail_frac": "ratio",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("checks", "lattice", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


# --- provenance ----------------------------------------------------------------


def _git_commit():
    try:
        top = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2:
        return None
    if os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None  # not a git checkout (or a checkout of something else)
    return lines[1]


def _source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "rpqcalc")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _cpu():
    model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        level = _read(os.path.join(base, entry, "level"))
        kind = _read(os.path.join(base, entry, "type"))
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(os.path.join(base, entry, "size"))
    return model, caches


def provenance(seed):
    import numpy

    model, caches = _cpu()
    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "cache_per_cpu0": caches,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


# --- the closed loop -----------------------------------------------------------


class LoopResult:
    def __init__(self):
        self.latencies = []  # corrected to the reference speed (speed.py)
        self.raw_latencies = []
        self.failures = collections.Counter()  # failure class -> count
        self.unexpected = []  # failures of items that are not probes
        self.wrong = []  # wrong results
        self.busy = 0.0  # raw item time, which decides when a run ends
        self.speed_samples = []
        self.cut_short = False

    @property
    def attempted(self):
        return len(self.latencies)

    @property
    def failed(self):
        return sum(self.failures.values())


def run_items(wl, state, verifier, tracer, tracker, started, seconds=None, count=None,
              between=None):
    """Run items until ``count`` have run, or until their summed latency
    reaches ``seconds`` and a cycle of the workload's item mix is complete.

    ``between(busy)`` is called before each item, outside its timing.
    """
    import speed
    import verify

    res = LoopResult()
    i = 0
    since_sample = math.inf
    while (res.busy < seconds or i % state.period) if count is None else (i < count):
        if time.monotonic() - started > ITEM_DEADLINE_S:
            res.cut_short = True
            break
        if between is not None:
            between(res.busy)
        if since_sample >= speed.EVERY_S:
            sample = speed.sample()
            res.speed_samples.append(sample)
            tracker.add(sample)
            tracer.speed(sample)
            since_sample = 0.0
            factor = tracker.factor()
        item = wl.prepare(state, i)
        with tracer.item(i, item.kind):
            t0 = time.perf_counter()
            try:
                result, error = wl.execute(state, item, tracer), None
            except Exception as exc:  # every exception is a failed item
                result, error = None, exc
            dt = time.perf_counter() - t0
        res.busy += dt
        since_sample += dt
        res.raw_latencies.append(dt)
        res.latencies.append(dt * factor)
        failure = None
        if error is not None:
            failure = type(error).__name__
        else:
            try:
                verifier.verify(item, result, tracer)
            except verify.Failure as exc:
                failure = str(exc)
            except Exception as exc:  # a wrong or malformed result
                failure = "wrong result"
                res.wrong.append(f"item {i} ({item.kind}): {type(exc).__name__}: {exc}")
        if failure is not None:
            res.failures[failure] += 1
            if not item.probe:
                res.unexpected.append(f"item {i} ({item.kind}): {failure}")
        i += 1
    return res


def tail(latencies_ms):
    """(value, percentile, samples beyond): the highest percentile that still
    has TAIL_BEYOND samples beyond it."""
    xs = sorted(latencies_ms)
    n = len(xs)
    beyond = min(TAIL_BEYOND, n - 1)
    return xs[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def time_setup(workload, seed, tracker):
    """(corrected, raw) seconds of one set-up in a fresh interpreter."""
    import speed

    tracker.add(speed.sample())
    factor = tracker.factor()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_time.py"), workload, str(seed), OUT],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed:\n{proc.stderr}")
    raw = float(proc.stdout.split()[-1])
    return raw * factor, raw


def untraced_run(args, wl, state, verifier, started):
    import spans
    import speed

    # The set-ups are timed at evenly spaced points of the run, between items,
    # so that their median sees the same machine as the items do.
    setups = []
    tracker = speed.Tracker()

    def between(busy):
        if len(setups) < SETUP_REPEATS and busy >= len(setups) * args.seconds / SETUP_REPEATS:
            setups.append(time_setup(args.workload, args.seed, tracker))

    loop = run_items(wl, state, verifier, spans.NULL, tracker, started, seconds=args.seconds,
                     between=between)
    while len(setups) < SETUP_REPEATS:
        setups.append(time_setup(args.workload, args.seed, tracker))
    raw_setups = [raw for _, raw in setups]
    setups = [corrected for corrected, _ in setups]
    raw_ms = [x * 1e3 for x in loop.raw_latencies]
    if args.workload == "cli":
        peak_rss = state.peak_rss_kb / 1024.0
    else:
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lat_ms = [x * 1e3 for x in loop.latencies]
    tail_ms, tail_pct, beyond = tail(lat_ms)
    metrics = {
        "setup_s": statistics.median(setups),
        "items_per_s": loop.attempted / sum(loop.latencies),
        "item_ms_p50": statistics.median(lat_ms),
        "item_ms_tail": tail_ms,
        "fail_frac": loop.failed / loop.attempted,
        "peak_rss_mb": peak_rss,
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups in fresh processes, "
        f"{min(setups):.4f} .. {max(setups):.4f}; raw median {statistics.median(raw_setups):.4f}",
        "items_per_s": f"{loop.attempted} items in {sum(loop.latencies):.3f} s of item time; "
        f"raw {loop.attempted / loop.busy:.4g}/s in {loop.busy:.3f} s",
        "item_ms_p50": f"raw {statistics.median(raw_ms):.4g}",
        "item_ms_tail": f"p{tail_pct:.2f}: {beyond} samples beyond it, n={loop.attempted}; "
        f"raw {tail(raw_ms)[0]:.4g}",
        "fail_frac": f"{loop.failed}/{loop.attempted}: "
        + (", ".join(f"{k}={v}" for k, v in sorted(loop.failures.items())) or "none"),
        "peak_rss_mb": "child processes" if args.workload == "cli" else "this process",
    }
    detail = {
        "setups_s": setups,
        "raw_setups_s": raw_setups,
        "tail_percentile": tail_pct,
        "tail_beyond": beyond,
        "speed_samples_s": loop.speed_samples,
    }
    return metrics, END_TO_END_UNITS, notes, [loop], detail


def traced_run(args, wl, state, verifier, started):
    import spans
    import speed
    import workloads

    cycles = max(1, math.ceil(wl.traced_rate * args.seconds / 2.0 / state.period))
    count = cycles * state.period
    plain = run_items(wl, state, verifier, spans.NULL, speed.Tracker(), started, count=count)
    tracer = spans.Tracer()
    traced = run_items(wl, state, verifier, tracer, speed.Tracker(), started, count=count)
    if args.workload == "cli":
        for _ in range(STARTUP_REPEATS):
            tracer.speed(speed.sample())
            workloads.run_cli_process(
                ["-c", "import rpqcalc.cli"], state.env, tracer, "cli.startup"
            )
    overhead = sum(plain.latencies) / sum(traced.latencies) - 1.0
    metrics = spans.per_layer(tracer.records, overhead)
    path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json")
    tracer.dump(path)
    notes = {
        "trace.overhead_frac": f"{count} items: {sum(plain.latencies):.3f} s untraced, "
        f"{sum(traced.latencies):.3f} s traced",
    }
    detail = {"items_per_pass": count, "spans_file": os.path.relpath(path, ROOT),
              "spans": len(tracer.records)}
    return metrics, spans.PER_LAYER_UNITS, notes, [plain, traced], detail


def main(argv=None):
    args = parse_args(argv)
    started = time.monotonic()
    required_files = (
        os.path.join(SRC, "rpqcalc", "__init__.py"),
        os.path.join(ROOT, "tests", "oracles.py"),
    )
    for required in required_files:
        if not os.path.isfile(required):
            print(f"error: {os.path.relpath(required, ROOT)} not found; run from a full checkout",
                  file=sys.stderr)
            return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, SRC]
    import verify
    import workloads

    os.makedirs(OUT, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload]
    state = wl.setup(args.seed, OUT)
    try:
        verifier = verify.Verifier(args.workload, state)
        run = traced_run if args.trace else untraced_run
        metrics, units, notes, loops, detail = run(args, wl, state, verifier, started)
    finally:
        workloads.teardown(state)

    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    wrong = [w for loop in loops for w in loop.wrong]
    unexpected = [u for loop in loops for u in loop.unexpected]
    cut_short = any(loop.cut_short for loop in loops)
    correct = not wrong and not unexpected and not cut_short
    failures = collections.Counter()
    for loop in loops:
        failures.update(loop.failures)

    prov = provenance(args.seed)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": prov,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failure_classes": dict(failures),
        "wrong_results": wrong[:20],
        "unexpected_failures": unexpected[:20],
        "cut_short": cut_short,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "notes": notes,
        "detail": detail,
    }
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"rpqcalc benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("provenance: " + json.dumps(prov, sort_keys=True))
    for name, unit in units.items():
        note = notes.get(name)
        print(f"  {name:38s} {metrics[name]!r:>24} {unit:6s}" + (f"  ({note})" if note else ""))
    print(f"failures by class: {dict(failures) or 'none'}")
    for line in (wrong + unexpected)[:10]:
        print(f"  ! {line}")
    if cut_short:
        print(f"  ! item loop stopped at the {ITEM_DEADLINE_S:.0f} s deadline")
    print(f"result file: {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

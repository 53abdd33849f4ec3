"""chancap benchmark: certification workloads, end-to-end metrics, layer trace.

Usage (from the repository root):

    python3 bench/run.py --workload ratio_fuzz --seed 1 --seconds 22 --trace 0

Model: one process, one caller, closed loop. Each item is sent after the
previous one finishes, and BLAS is pinned to one thread. There is no
``--jobs 2`` workload: on a 2-core shared machine it would measure the
scheduler, not the program.

``--trace 0`` runs the closed loop for ``--seconds`` and reports the
end-to-end metrics: items_per_s (items / timed seconds), latency_p50_ms,
latency_p90_ms, ok_frac (items whose output check passed / items attempted),
setup_s (median over this interpreter and two fresh ones started before and
after the loop, each timed from start-up through importing chancap,
generating the inputs and running one warm-up item) and peak_rss_mb.
Times, ``--seconds`` included, are wall-clock times rescaled to a fixed
machine speed by a reference kernel timed between items (``clock.py``); the
notes line before the result gives the raw wall-clock figures too.

``--trace 1`` runs a fixed number of items, set by the workload and
``--seconds``, in alternating untraced and traced blocks under the
outside-in tracer (``tracer.py``), and reports per-item layer metrics. Each
traced output must equal its untraced twin bit for bit, and the work counts
of the first items are checked to repeat exactly when they run again. The
notes line lists which counts repeated. Spans go to ``bench/out/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The program is imported from
``src/`` next to this directory; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import time

SETUP_T0 = time.perf_counter()  # set-up is timed from here, before numpy loads

import os  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
PROBE_TIMEOUT_S = 120
REPEAT_ITEMS = 4
PROBE_EVERY_S = 0.1
WALL_CAP = 1.25  # bounds a run's length when the machine is slow
BLOCK_S = 0.25

E2E_UNITS = {
    "items_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "ok_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "linalg.eig_calls": "count",
    "linalg.eig_single_calls": "count",
    "linalg.eig_matrices": "count",
    "linalg.eig_batch_mean": "matrices/call",
    "linalg.eig_ms": "ms",
    "linalg.self_ms": "ms",
    "entropy.calls": "count",
    "entropy.self_ms": "ms",
    "capacity.self_ms": "ms",
    "capacity.ch_ms": "ms",
    "capacity.ch_iterations": "count",
    "capacity.ch_witnesses": "count",
    "capacity.minimize_calls": "count",
    "capacity.minimize_ms": "ms",
    "capacity.sup_ms": "ms",
    "capacity.ce_ms": "ms",
    "capacity.ce_iterations": "count",
    "capacity.converged_frac": "ratio",
    "capacity.max_gap_over_tol": "ratio",
    "certify.min_slack_bits": "bits",
    "certify.min_link_slack_nats": "nats",
    "certify.self_ms": "ms",
    "channels.apply_calls": "count",
    "channels.self_ms": "ms",
    "cli.self_ms": "ms",
    "trace.overhead_frac": "ratio",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True, help="drives every input")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def prepare(workload_cls, seed: int):
    """Build the workload and its inputs, run one warm-up item."""
    wl = workload_cls()
    pool = [wl.item(seed, i) for i in range(wl.pool_size)]
    warm = wl.warmup_input()
    warm_ok = wl.check(warm, wl.run(warm))
    return wl, pool, warm_ok


def setup_probe_seconds(args, clock) -> float:
    """Set-up time, in reference seconds, of one fresh interpreter in probe mode."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    before = clock.kernel_s()
    done = subprocess.run(
        cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True
    )
    return float(done.stdout.strip().splitlines()[-1]) * clock.factor(before, clock.kernel_s())


def closed_loop(wl, pool, seconds: float, clock):
    """Send items one after another, checking each output, until the items
    have taken ``seconds`` reference seconds, or WALL_CAP times that in wall time.

    Returns the wall latencies, the same latencies in reference seconds and
    the number of failed checks. The reference kernel runs every
    PROBE_EVERY_S, and each latency is rescaled by the kernel times on
    either side of it. Stopping on reference time keeps the number of items,
    and so their mix, the same whatever the machine's speed.
    """
    wall, scaled, pending = [], [], []
    failed = 0
    before = clock.kernel_s()
    factor = clock.factor(before, before)
    done_s = pending_s = 0.0  # reference seconds rescaled so far; wall seconds not yet

    def rescale():
        nonlocal before, factor, done_s, pending_s
        after = clock.kernel_s()
        factor = clock.factor(before, after)
        scaled.extend(x * factor for x in pending)
        done_s += factor * pending_s
        pending.clear()
        pending_s = 0.0
        before = after

    wall_deadline = time.perf_counter() + WALL_CAP * seconds
    next_probe = time.perf_counter() + PROBE_EVERY_S
    while done_s + factor * pending_s < seconds and time.perf_counter() < wall_deadline:
        item = pool[len(wall) % len(pool)]
        t0 = time.perf_counter()
        out = wl.run(item)
        latency = time.perf_counter() - t0
        wall.append(latency)
        pending.append(latency)
        pending_s += latency
        failed += not wl.check(item, out)
        if time.perf_counter() >= next_probe:
            rescale()
            next_probe = time.perf_counter() + PROBE_EVERY_S
    if pending:
        rescale()
    return wall, scaled, failed


def latency_metrics(latencies) -> dict:
    deciles = statistics.quantiles(latencies, n=10)
    return {
        "items_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_p90_ms": 1e3 * deciles[-1],
    }


def end_to_end(args, wl, pool, setup_main: float):
    from clock import ReferenceClock

    clock = ReferenceClock()
    # The two fresh-interpreter set-ups bracket the timed loop, so the median
    # samples the shared machine at three moments rather than one.
    setups = [setup_main * clock.factor(clock.kernel_s(), clock.kernel_s())]
    setups.append(setup_probe_seconds(args, clock))
    wall, scaled, failed = closed_loop(wl, pool, args.seconds, clock)
    setups.append(setup_probe_seconds(args, clock))
    n = len(wall)
    metrics = latency_metrics(scaled)
    p90_s = metrics["latency_p90_ms"] / 1e3
    metrics.update({
        "ok_frac": (n - failed) / n,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    notes = {
        "items": n,
        "samples_beyond_p90": sum(x > p90_s for x in scaled),
        "failed_frac": failed / n,
        "setup_runs_s": setups,
        "wall_clock": latency_metrics(wall),
        "wall_over_reference": sum(wall) / sum(scaled),
    }
    return n, failed, metrics, notes


def traced(args, wl, pool):
    import tracer as tr

    # A fixed item count, not a deadline, so counts repeat exactly per seed.
    count = max(REPEAT_ITEMS, math.ceil(args.seconds / 2.0 / wl.nominal_item_s))
    items = [pool[i % len(pool)] for i in range(count)]

    # Untraced and traced runs alternate in blocks of about BLOCK_S, so a
    # change in the shared machine's speed hits both sides of the overhead.
    block = max(1, math.ceil(BLOCK_S / wl.nominal_item_s))
    tracer = tr.Tracer()
    failed = 0
    untraced_s = traced_s = 0.0
    for lo in range(0, count, block):
        chunk = range(lo, min(lo + block, count))
        plain = []
        for i in chunk:
            t0 = time.perf_counter()
            out = wl.run(items[i])
            untraced_s += time.perf_counter() - t0
            plain.append(wl.fingerprint(out))
        tracer.install()
        try:
            for i, expected in zip(chunk, plain):
                with tracer.item_span(i):
                    t0 = time.perf_counter()
                    out = wl.run(items[i])
                    traced_s += time.perf_counter() - t0
                same = wl.fingerprint(out) == expected
                failed += not (same and wl.check(items[i], out))
        finally:
            tracer.uninstall()

    again = tr.Tracer()
    again.install()
    try:
        for i, item in enumerate(items[:REPEAT_ITEMS]):
            with again.item_span(i):
                wl.run(item)
    finally:
        again.uninstall()
    before = tr.count_totals(tracer, range(REPEAT_ITEMS))
    after = tr.count_totals(again, range(REPEAT_ITEMS))
    keys = sorted(set(before) | set(after))

    metrics = tr.layer_metrics(tracer, count, untraced_s, traced_s)
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
    tracer.save(spans_path)
    notes = {
        "items": count,
        "spans": len(tracer.start),
        "spans_file": str(spans_path.relative_to(BENCH_DIR.parent)),
        "missing": tracer.missing,
        "zero_on_this_workload": [k for k, v in metrics.items() if v == 0],
        "exact_repeat": [k for k in keys if before.get(k) == after.get(k)],
        "not_repeated": [k for k in keys if before.get(k) != after.get(k)],
        "self_ms_by_layer": tr.self_ms_by_layer(tracer, count),
    }
    return count, failed, metrics, notes


def machine() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "note": f"{nproc}-core shared sandbox, no CPU pinning",
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC_DIR / "chancap" / "__init__.py").is_file():
        print(f"error: chancap sources not found under {SRC_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl, pool, warm_ok = prepare(workloads.WORKLOADS[args.workload], args.seed)
    setup_main = time.perf_counter() - SETUP_T0
    if args.setup_probe:
        print(repr(setup_main))
        return 0 if warm_ok else 1

    if args.trace:
        attempted, failed, values, notes = traced(args, wl, pool)
        units = LAYER_UNITS
    else:
        attempted, failed, values, notes = end_to_end(args, wl, pool, setup_main)
        units = E2E_UNITS
    print(json.dumps({"workload": args.workload, "seed": args.seed, "machine": machine()}))
    print(json.dumps({"notes": notes}))
    for name, value in values.items():
        print(f"{name:32s} {value:14.6g} {units[name]}")
    result = {
        "correct": warm_ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

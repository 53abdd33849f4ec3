"""Tests of the benchmark itself: run with ``python3 -m pytest bench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import tracer as tr  # noqa: E402
import workloads  # noqa: E402
from chancap import capacity, certify  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT, bench_dir: Path = BENCH_DIR):
    cmd = [
        sys.executable, str(bench_dir / "run.py"), "--workload", workload,
        "--seed", "0", "--seconds", "1", "--trace", str(trace),
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def traced_outputs(wl, items):
    tracer = tr.Tracer()
    tracer.install()
    try:
        outs = []
        for i, item in enumerate(items):
            with tracer.item_span(i):
                outs.append(wl.fingerprint(wl.run(item)))
    finally:
        tracer.uninstall()
    return tracer, outs


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_reported_with_unit_and_no_failures(workload, trace, section):
    done = run_bench(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if trace == 0:
        assert result["metrics"]["ok_frac"]["value"] == 1.0


def test_every_latency_is_rescaled_once():
    import run
    from clock import ReferenceClock

    wl = workloads.SandwichFuzz()
    pool = [wl.item(0, i) for i in range(8)]
    wall, scaled, failed = run.closed_loop(wl, pool, 0.5, ReferenceClock())
    assert failed == 0
    assert len(scaled) == len(wall) > 8
    assert all(s > 0 for s in scaled)


def test_traced_ratio_item_records_one_solve_of_each_capacity():
    wl = workloads.RatioFuzz()
    tracer, _ = traced_outputs(wl, [wl.item(0, 0)])
    counts = tr.count_totals(tracer)
    assert counts["calls:capacity.ch"] == 1
    assert counts["calls:capacity.ce"] == 1
    assert counts["linalg.eig_calls"] > 0
    assert tracer.missing == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tracing_leaves_outputs_bit_identical(name):
    wl = workloads.WORKLOADS[name]()
    items = [wl.item(3, i) for i in range(1 if name == "ratio_fuzz" else 2)]
    plain = [wl.fingerprint(wl.run(item)) for item in items]
    _, traced = traced_outputs(wl, items)
    assert traced == plain
    assert certify.holevo_quantity is capacity.holevo_quantity
    assert not hasattr(capacity.holevo_quantity, "__wrapped__")


@pytest.mark.parametrize("name", ["ratio_fuzz", "chain_fuzz"])
def test_counts_repeat_exactly(name):
    wl = workloads.WORKLOADS[name]()
    items = [wl.item(5, i) for i in range(1 if name == "ratio_fuzz" else 3)]
    first, _ = traced_outputs(wl, items)
    second, _ = traced_outputs(wl, items)
    assert tr.count_totals(first) == tr.count_totals(second)


def test_missing_target_is_skipped_and_reported():
    tracer = tr.Tracer()
    tracer.install(tr.TARGETS + (("chancap.capacity", "no_such_solver", "capacity.x", None, None),))
    tracer.uninstall()
    assert tracer.missing == ["chancap.capacity.no_such_solver"]


def test_fails_without_program_sources():
    bare = BENCH_DIR / "out" / "without-src"
    shutil.rmtree(bare, ignore_errors=True)
    skip = shutil.ignore_patterns("out", "__pycache__", "test_*.py")
    try:
        shutil.copytree(BENCH_DIR, bare / "bench", ignore=skip)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = run_bench("chain_fuzz", 0, cwd=bare, bench_dir=bare / "bench")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout

#!/usr/bin/env python
"""Run the simulator benchmark suite and record ``BENCH_sim.json``.

This is the perf-trajectory driver: it runs the pytest-benchmark
scenarios in ``benchmarks/test_simulator_performance.py``, derives the
two throughput figures the project tracks — **events/sec** and
**virtual-seconds-per-wall-second** — per scenario, and writes them to
``BENCH_sim.json`` (schema below).  CI runs it with
``--quick --compare BENCH_sim.json`` to fail any change that slows the
small-quantum regime by more than 25%.

    python benchmarks/run_bench.py                    # full, writes BENCH_sim.json
    python benchmarks/run_bench.py --quick            # CI smoke (1 round, short runs)
    python benchmarks/run_bench.py --quick \
        --compare BENCH_sim.json --max-regression 0.25

A second suite tracks the fleet layer: ``--suite fleet`` runs
``benchmarks/test_fleet_performance.py`` (32 hosts through the
bulk-synchronous epoch loop), derives **epochs/sec** and
**simulated-VM-seconds per wall-second**, writes ``BENCH_fleet.json``
and gates on the ``vm_sec_per_wall_sec`` of its single scenario:

    python benchmarks/run_bench.py --suite fleet      # writes BENCH_fleet.json
    python benchmarks/run_bench.py --suite fleet --quick \
        --compare BENCH_fleet.json --max-regression 0.25

Output schema (``schema: 1``)::

    {
      "schema": 1,
      "quick": false,
      "scenarios": {
        "test_small_quantum_simulation_speed": {
          "wall_seconds_min": 0.021,      # fastest round
          "events": 2088,                 # events fired per round
          "virtual_ns": 500000000,        # virtual time per round
          "events_per_sec": 95000.0,      # events / wall_seconds_min
          "virtual_sec_per_wall_sec": 22.9
        },
        ...
      }
    }

Timings use the *fastest* round (minimum wall time): scheduler noise
only ever makes a round slower, so the minimum is the most reproducible
estimate of the code's cost.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The scenario the CI regression gate watches (the paper's expensive
#: 1 ms-quantum regime, which fires the most events per virtual second).
GATED_SCENARIO = "test_small_quantum_simulation_speed"

#: Benchmark suites the driver knows how to run and gate.  ``sim`` is
#: the single-host engine (events/sec), ``fleet`` the multi-host epoch
#: loop (simulated-VM-seconds per wall-second at 32 hosts).
SUITES = {
    "sim": {
        "file": "test_simulator_performance.py",
        "out": "BENCH_sim.json",
        "gated": GATED_SCENARIO,
        "metric": "events_per_sec",
        "unit": "ev/s",
    },
    "fleet": {
        "file": "test_fleet_performance.py",
        "out": "BENCH_fleet.json",
        "gated": "test_fleet_epoch_throughput",
        "metric": "vm_sec_per_wall_sec",
        "unit": "vm-sec/wallsec",
    },
}


def run_suite(quick: bool, bench_file: str) -> dict:
    """Run pytest-benchmark and return its parsed ``--benchmark-json``."""
    with tempfile.TemporaryDirectory() as tmp:
        json_path = Path(tmp) / "bench.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env["REPRO_BENCH_QUICK"] = "1" if quick else "0"
        command = [
            sys.executable,
            "-m",
            "pytest",
            str(REPO_ROOT / "benchmarks" / bench_file),
            "--benchmark-only",
            f"--benchmark-json={json_path}",
            "-q",
        ]
        result = subprocess.run(command, env=env, cwd=REPO_ROOT)
        if result.returncode != 0:
            raise SystemExit(f"benchmark suite failed (exit {result.returncode})")
        with open(json_path, encoding="utf-8") as handle:
            return json.load(handle)


def summarize(raw: dict, quick: bool) -> dict:
    """Reduce pytest-benchmark output to the BENCH_*.json schema."""
    scenarios: dict[str, dict] = {}
    for bench in raw.get("benchmarks", []):
        name = bench["name"]
        wall_min = bench["stats"]["min"]
        extra = bench.get("extra_info", {})
        events = extra.get("events")
        virtual_ns = extra.get("virtual_ns")
        entry: dict = {"wall_seconds_min": wall_min}
        if events is not None:
            entry["events"] = events
            entry["events_per_sec"] = events / wall_min
        if virtual_ns is not None:
            entry["virtual_ns"] = virtual_ns
            entry["virtual_sec_per_wall_sec"] = virtual_ns / 1e9 / wall_min
        epochs = extra.get("epochs")
        vm_virtual_ns = extra.get("vm_virtual_ns")
        if epochs is not None:
            entry["epochs"] = epochs
            entry["epochs_per_sec"] = epochs / wall_min
        if vm_virtual_ns is not None:
            entry["vm_virtual_ns"] = vm_virtual_ns
            entry["vm_sec_per_wall_sec"] = vm_virtual_ns / 1e9 / wall_min
        scenarios[name] = entry
    return {
        "schema": 1,
        "quick": quick,
        "scenarios": scenarios,
    }


def compare(
    current: dict, baseline: dict, max_regression: float, suite: dict
) -> int:
    """Regression gate on the suite's headline scenario; exit code."""
    gated, metric, unit = suite["gated"], suite["metric"], suite["unit"]
    base_rate = baseline.get("scenarios", {}).get(gated, {}).get(metric)
    cur_rate = current.get("scenarios", {}).get(gated, {}).get(metric)
    if base_rate is None or cur_rate is None:
        print(
            f"[bench] cannot compare: {gated} missing {metric} "
            f"(baseline={base_rate}, current={cur_rate})",
            file=sys.stderr,
        )
        return 2
    floor = base_rate * (1.0 - max_regression)
    verdict = "OK" if cur_rate >= floor else "REGRESSION"
    print(
        f"[bench] {gated}: {cur_rate:,.1f} {unit} vs baseline "
        f"{base_rate:,.1f} {unit} (floor {floor:,.1f}, "
        f"-{max_regression:.0%} tolerance) -> {verdict}",
        file=sys.stderr,
    )
    return 0 if verdict == "OK" else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the simulator benchmarks and write BENCH_sim.json."
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke mode: 1 round and shorter simulated durations",
    )
    parser.add_argument(
        "--suite", choices=sorted(SUITES), default="sim",
        help="benchmark suite: 'sim' (single-host engine, BENCH_sim.json) "
             "or 'fleet' (multi-host epoch loop, BENCH_fleet.json)",
    )
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="where to write the summary (default: the suite's baseline "
             "file at repo root)",
    )
    parser.add_argument(
        "--compare", default=None, metavar="BASELINE",
        help="compare against a committed baseline JSON and exit non-zero "
             "if the suite's gated scenario regressed",
    )
    parser.add_argument(
        "--max-regression", type=float, default=0.25, metavar="FRACTION",
        help="allowed events/sec drop vs the baseline (default: 0.25)",
    )
    args = parser.parse_args(argv)
    suite = SUITES[args.suite]
    if args.out is None:
        args.out = str(REPO_ROOT / suite["out"])

    # resolve before running: --compare BENCH_sim.json with the default
    # --out must diff against the *committed* baseline, not the rewrite
    baseline = None
    if args.compare is not None:
        baseline_path = Path(args.compare)
        if not baseline_path.exists():
            print(f"[bench] no baseline at {baseline_path}", file=sys.stderr)
            return 2
        with open(baseline_path, encoding="utf-8") as handle:
            baseline = json.load(handle)

    raw = run_suite(quick=args.quick, bench_file=suite["file"])
    summary = summarize(raw, quick=args.quick)
    out_path = Path(args.out)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")
    for name, entry in sorted(summary["scenarios"].items()):
        parts = [f"[bench] {name}: {entry['wall_seconds_min']:.4f}s"]
        for key, unit in (
            ("events_per_sec", "ev/s"),
            ("virtual_sec_per_wall_sec", "vsec/wallsec"),
            ("epochs_per_sec", "epochs/s"),
            ("vm_sec_per_wall_sec", "vm-sec/wallsec"),
        ):
            value = entry.get(key)
            if value is not None:
                parts.append(f"{value:,.1f} {unit}")
        print(" ".join(parts), file=sys.stderr)
    print(f"[bench] wrote {out_path}", file=sys.stderr)

    if baseline is not None:
        return compare(summary, baseline, args.max_regression, suite)
    return 0


if __name__ == "__main__":
    sys.exit(main())

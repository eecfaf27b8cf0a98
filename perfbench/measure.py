"""Measure one workload in this process and print the result as JSON.

``run.py`` starts this script in a fresh child process with every
``REPRO_*`` variable stripped, so set-up time and peak memory are the
workload's own.  Untraced (``--trace 0``) it repeats passes until
``--seconds`` would be exceeded (at least one) and reports medians; a
``hostspeed.SpeedProbe`` samples the host's speed during each pass's
set-up and run, and their CPU times are scaled by it.  Set-up time adds
the median of five imports of the program in fresh interpreters, each
scaled by a probe of its own.
Traced (``--trace 1``) it runs one untraced and one ``cProfile``-traced
pass, both with cells executed in-process; the ratio of their wall
times is the tracing overhead.

Every pass is checked: its digests must match the ones pinned in
``pins.json`` for this seed, or, for a seed not pinned there, repeat
exactly across the passes of the run (and are printed to stderr).
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

import hostspeed
import layers
import suite

HERE = Path(__file__).resolve().parent
PINS_PATH = HERE / "pins.json"
ROOT = HERE.parent


@dataclass
class Pass:
    """One timed pass: set-up, wall and CPU seconds, checks, counts."""

    setup_s: float
    wall_s: float
    #: user-mode CPU seconds, engine workers included
    cpu_s: float
    #: operations attempted and failed by their own checks
    ops: int
    failed: int
    #: events_per_ref_cpu_s numerator: simulated events, or cells
    events: int
    #: digests pinned in pins.json; None when the pass raised
    fingerprint: Optional[dict]
    churn_events: int
    #: set-up and CPU seconds on a quiet host, when a probe ran
    ref_setup_s: float = 0.0
    ref_cpu_s: float = 0.0


def cpu_seconds() -> float:
    """User-mode CPU seconds of this process and its reaped workers.

    Kernel time is left out: on engine_sweep it is mostly fsync and
    file-system work, whose cost swings 3x with the host's disk load.
    """
    return sum(
        resource.getrusage(who).ru_utime
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )


def import_seconds(samples: int = 5) -> list[float]:
    """Quiet-host CPU seconds of importing the program, in fresh interpreters."""
    probe = ("import resource, hostspeed; p = hostspeed.SpeedProbe(); "
             "cpu = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_utime; "
             "p.start(); t = cpu(); import suite, layers; t = cpu() - t; "
             "p.stop(); print(p.ref_seconds(t))")
    return [
        float(subprocess.run(
            [sys.executable, "-c", probe], cwd=HERE, check=True,
            stdout=subprocess.PIPE, text=True,
        ).stdout)
        for _ in range(samples)
    ]


def one_pass(workload: suite.Workload, clock: layers.PhaseClock,
             profile: Optional[cProfile.Profile] = None,
             probe: Optional[hostspeed.SpeedProbe] = None) -> Pass:
    clock.reset()
    if probe is not None:
        probe.start()
    started, cpu_before = time.perf_counter(), cpu_seconds()
    try:
        state = workload.setup()
    finally:
        if probe is not None:
            probe.stop()
    setup_s = time.perf_counter() - started
    ref_setup_s = 0.0
    if probe is not None:
        ref_setup_s = probe.ref_seconds(cpu_seconds() - cpu_before)
    ref_cpu_s = 0.0
    outcome: Optional[suite.Outcome] = None
    try:
        with layers.EventCounter() as counter:
            clock.start()
            cpu_before = cpu_seconds()
            started = time.perf_counter()
            if probe is not None:
                probe.start()
            if profile is not None:
                profile.enable()
            try:
                outcome = workload.run(state)
            finally:
                if profile is not None:
                    profile.disable()
                if probe is not None:
                    probe.stop()
                wall_s = time.perf_counter() - started
                cpu_s = cpu_seconds() - cpu_before
                if probe is not None:
                    ref_cpu_s = probe.ref_seconds(cpu_s)
    except Exception:  # a raising pass counts every operation as failed
        traceback.print_exc()
    finally:
        workload.close(state)
    if outcome is None:
        return Pass(setup_s, wall_s, cpu_s, workload.ops_per_pass,
                    workload.ops_per_pass, 0, None, 0, ref_setup_s, ref_cpu_s)
    events = counter.events if workload.simulates else outcome.cells
    fingerprint = {"ops": outcome.ops, "summary": outcome.summary,
                   "events": events}
    return Pass(setup_s, wall_s, cpu_s, workload.ops_per_pass,
                outcome.failed, events, fingerprint, outcome.churn_events,
                ref_setup_s, ref_cpu_s)


def mismatched_ops(got: Optional[dict], want: dict, ops: int) -> int:
    """Operations a fingerprint gets wrong against a reference one."""
    if got is None:
        return 0  # already counted as failed when the pass raised
    if got["summary"] != want["summary"] or got["events"] != want["events"]:
        return ops
    if len(got["ops"]) != len(want["ops"]):
        return ops
    return sum(a != b for a, b in zip(got["ops"], want["ops"]))


def check(workload: suite.Workload, passes: list[Pass],
          tiny: bool = False) -> int:
    """Failed operations over all passes, pin and repeat checks included."""
    pins = json.loads(PINS_PATH.read_text())["pins"]
    want = None if tiny else pins.get(workload.name, {}).get(
        workload.pin_key
    )
    first = next((p.fingerprint for p in passes if p.fingerprint), None)
    if want is None and first is not None and not tiny:
        print(f"perfbench: {workload.name} seed {workload.pin_key} is not "
              f"pinned; digests: {json.dumps(first)}", file=sys.stderr)
    reference = want if want is not None else first
    failed = 0
    for p in passes:
        wrong = 0
        if reference is not None:
            wrong = mismatched_ops(p.fingerprint, reference, p.ops)
        failed += min(p.ops, p.failed + wrong)
    return failed


def peak_rss_mb() -> float:
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def untraced(workload: suite.Workload, seconds: float
             ) -> tuple[list[Pass], dict[str, tuple[float, str]]]:
    clock = layers.PhaseClock()
    workload.sinks = (clock,)
    passes: list[Pass] = []
    probe = hostspeed.SpeedProbe()
    started = time.perf_counter()
    while True:
        passes.append(one_pass(workload, clock, probe=probe))
        per_pass = statistics.median(p.setup_s + p.wall_s for p in passes)
        if time.perf_counter() - started + per_pass > seconds:
            break
    metrics = {
        "ref_cpu_s": (statistics.median(p.ref_cpu_s for p in passes), "s"),
        "events_per_ref_cpu_s": (
            statistics.median(p.events / p.ref_cpu_s if p.ref_cpu_s else 0.0
                              for p in passes),
            "1/s",
        ),
        "setup_s": (
            statistics.median(import_seconds())
            + statistics.median(p.ref_setup_s for p in passes),
            "s",
        ),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return passes, metrics


def traced(workload: suite.Workload
           ) -> tuple[list[Pass], dict[str, tuple[float, str]]]:
    clock = layers.PhaseClock()
    workload.sinks = (clock,)
    workload.in_process = True
    reference = one_pass(workload, clock)
    profile = cProfile.Profile(builtins=False)
    passed = one_pass(workload, clock, profile)
    shares = layers.rollup(pstats.Stats(profile))
    metrics: dict[str, tuple[float, str]] = {
        name: (value, "share" if name.endswith("_share") else "count")
        for name, value in shares.items()
    }
    metrics["hardware.cache.us_per_integrate"] = (
        shares["hardware.cache.us_per_integrate"], "us"
    )
    metrics["fuzz.invariant_s"] = (shares["fuzz.invariant_s"], "s")
    engine_s = sum(clock.seconds.values())
    for phase, seconds in clock.seconds.items():
        metrics[f"exec.{phase}_s"] = (seconds, "s")
    metrics["exec.overhead_ms_per_cell"] = (
        (engine_s - clock.cell_cpu_s) / clock.cells * 1e3
        if clock.cells else 0.0,
        "ms",
    )
    metrics["exec.cells_ran"] = (float(clock.outcomes["ran"]), "count")
    metrics["exec.cache_hits"] = (float(clock.outcomes["hit"]), "count")
    metrics["exec.cells_resumed"] = (float(clock.outcomes["resumed"]),
                                     "count")
    metrics["sim.engine.events_fired"] = (
        float(passed.events if workload.simulates else 0), "count"
    )
    metrics["dynamics.churn_events"] = (float(passed.churn_events), "count")
    metrics["trace.overhead_ratio"] = (
        passed.wall_s / reference.wall_s, "ratio"
    )
    metrics["wall_s"] = (reference.wall_s, "s")
    return [reference, passed], metrics


def measure(name: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False) -> dict[str, Any]:
    workload = suite.WORKLOADS[name](seed, ROOT, tiny=tiny)
    if trace:
        passes, metrics = traced(workload)
    else:
        passes, metrics = untraced(workload, seconds)
    attempted = sum(p.ops for p in passes)
    failed = check(workload, passes, tiny=tiny)
    try:  # every pass removed its run directory; drop their parent too
        (ROOT / suite.SCRATCH_DIR).rmdir()
    except OSError:
        pass
    if trace:
        metrics["failed_frac"] = (failed / attempted, "share")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": value, "unit": unit}
            for key, (value, unit) in sorted(metrics.items())
        },
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(suite.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

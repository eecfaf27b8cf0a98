#!/usr/bin/env python3
"""Benchmark of the AQL_Sched reproduction: end-to-end and per-layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper_s4 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1
    python3 perfbench/selfcheck.py     # tiny sizes, a few seconds
    python3 perfbench/pin.py --workload paper_s4 --seeds 0-15

Each workload runs in a fresh child process (``measure.py``) whose
environment has every ``REPRO_*`` variable removed and ``PYTHONPATH``
set to this checkout's ``src``.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(``--trace 0``: the end-to-end metrics; ``--trace 1``: the per-layer
ones).  ``--workload all`` prints one such line per workload and then a
combined line whose metric names are prefixed with the workload.

End-to-end metrics are medians over the passes of a run:
``ref_cpu_s`` (user-mode CPU seconds per pass, engine workers included,
scaled to a quiet host), ``events_per_ref_cpu_s`` (simulated events, or
cells on ``engine_sweep``, per such second), ``setup_s`` (importing the
program in fresh interpreters plus what is built before each pass, also
scaled) and ``peak_rss_mb``.  On a shared two-vCPU host the CPU time of
identical passes spreads by 12-15 % and whole runs drift by up to 50 %
with the neighbours' load, so ``hostspeed.SpeedProbe`` times a fixed
kernel every 40 ms inside each pass and the pass's time is scaled by
the host speed it read (a 3 % spread remains).  The traced run still
reports unscaled ``wall_s``.

Per-layer metrics come from one untraced and one ``cProfile``-traced
pass, both running every cell in this process, since a profiler in the
parent cannot see forked workers.  Self time is rolled up by defining
``repro`` module, with C builtins charged to their caller.  Profiling
inflates every Python call, which shifts shares towards call-heavy
layers; ``trace.overhead_ratio`` gives its cost.

Exits non-zero without a result when the checkout has no program to
measure, when a child fails, or after 170 seconds per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper_s4", "small_quantum", "engine_sweep", "fuzz_corpus")
CHILD_TIMEOUT_S = 170


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def reexec_in_child_env() -> None:
    """Restart this script in the environment children get, if not in it."""
    env = child_env()
    if dict(os.environ) != env:
        os.execve(sys.executable, [sys.executable, *sys.argv], env)


def run_child(workload: str, args: argparse.Namespace) -> dict:
    command = [
        sys.executable, str(HERE / "measure.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    # a session of its own, so a timeout also stops forked engine workers
    child = subprocess.Popen(command, env=child_env(), cwd=ROOT,
                             stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise SystemExit(f"perfbench: {workload} exceeded "
                         f"{CHILD_TIMEOUT_S} s")
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise SystemExit(f"perfbench: {workload} failed "
                         f"(exit {child.returncode})")
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.workload != "all":
        print(json.dumps(run_child(args.workload, args)))
        return 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        result = run_child(workload, args)
        print(json.dumps(result))
        for name, metric in result["metrics"].items():
            print(f"{workload:14s} {name:40s} {metric['value']:14.6g} "
                  f"{metric['unit']}", file=sys.stderr)
            combined["metrics"][f"{workload}.{name}"] = metric
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())

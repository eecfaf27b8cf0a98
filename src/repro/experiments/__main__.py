"""Command-line experiment runner.

Regenerate any table/figure of the paper without the benchmark harness:

    python -m repro.experiments list
    python -m repro.experiments fig2 [--fast]
    python -m repro.experiments all [--fast] --jobs 4
    python -m repro.experiments plan fig5 [--fast]

Every family is one record in :mod:`repro.experiments.registry`.  The
default parameters are the record's ``full`` ones — the parameters
the benchmark suite runs and EXPERIMENTS.md quotes; ``--fast`` takes
the record's ``fast`` ones (~4x shorter simulations) for a quick
look.  ``plan <family>`` prints the family's cell labels, one per
line, without simulating.

Sweep execution goes through the :mod:`repro.exec` engine: ``--jobs
N`` (or the ``REPRO_JOBS`` environment variable) fans independent
cells out over work-stealing worker processes, and results are
memoised under ``.repro_cache/`` so re-running a sweep replays cached
cells instead of re-simulating.  ``--no-cache`` disables the cache,
``--cache-dir`` moves it.  ``--run-dir DIR`` (or ``REPRO_RUN_DIR``)
makes the run *durable*: every completed cell is checkpointed in the
``events.jsonl`` of a content-addressed run directory, so a killed
run — Ctrl-C, SIGKILL, OOM — resumes with only unfinished cells
re-executed (automatically, since the run id derives from the planned
sweep; ``--resume RUN-ID`` pins a directory explicitly); that log
records what a dead run was doing (``python -m repro.ops attach``
folds its status), and a checkpointed run ends with a slowest-cells
table read from the log.
``--events-out PATH`` additionally streams the engine's typed event
narration as JSONL.  ``--serve [HOST:]PORT`` (or
``REPRO_SERVE``) attaches the read-only ops plane: live ``/metrics``,
``/status`` and ``/events`` over HTTP.  Per-cell
progress (a :class:`~repro.exec.ProgressPrinter` sink, off with
``--quiet``), the cache hit/miss summary and the engine tallies (read
from the engine's live :class:`~repro.ops.status.RunStatus`) go to
stderr, as does each family's ``[<name> took X.Ys]`` timing line;
stdout carries only the experiment tables, so serial, parallel,
cached and resumed runs print byte-identical results.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Any

from repro.exec import (
    EventSink,
    JsonlSink,
    ProgressPrinter,
    ResultCache,
    RunDirError,
    SweepRunner,
    read_event_log,
)
from repro.experiments.registry import REGISTRY, run


def build_runner(args: argparse.Namespace) -> SweepRunner:
    """A SweepRunner from CLI flags (also the CI entry point's shape)."""
    cache = None
    if not args.no_cache:
        cache = (
            ResultCache(root=args.cache_dir) if args.cache_dir
            else ResultCache()
        )
    sinks: list[EventSink] = [] if args.quiet else [ProgressPrinter()]
    runner = SweepRunner(
        jobs=args.jobs,
        cache=cache,
        run_root=args.run_dir,
        run_id=args.resume,
        sinks=sinks,
    )
    # opened only once the engine accepted the flags: mode "w"
    # truncates, and a rejected --jobs must leave the file as it was
    if args.events_out is not None:
        runner.engine.add_sink(JsonlSink(args.events_out))
    return runner


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(REGISTRY) + ["list", "all", "plan"],
        help="which experiment to run ('list' to enumerate, 'all' for "
             "every one, 'plan FAMILY' to list a family's cells)",
    )
    parser.add_argument(
        "family", nargs="?", choices=sorted(REGISTRY),
        help="with 'plan': the family whose cells to list",
    )
    parser.add_argument(
        "--fast", action="store_true", help="shorter simulations (~4x faster)"
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for sweep cells (default: $REPRO_JOBS or 1)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="always re-simulate; do not read or write .repro_cache/",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result-cache location (default: $REPRO_CACHE_DIR or .repro_cache)",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress per-cell progress lines on stderr",
    )
    parser.add_argument(
        "--run-dir", default=None, metavar="DIR",
        help="journal completed cells under DIR so a killed run can "
             "resume (default: $REPRO_RUN_DIR, else no checkpointing)",
    )
    parser.add_argument(
        "--resume", default=None, metavar="RUN-ID",
        help="resume this run id under --run-dir (errors if missing; "
             "without the flag, identical sweeps resume automatically)",
    )
    parser.add_argument(
        "--events-out", default=None, metavar="PATH",
        help="write the engine's typed event stream as JSONL to PATH",
    )
    parser.add_argument(
        "--serve", default=None, metavar="[HOST:]PORT",
        help="serve live /metrics, /status and /events for this run "
             "over HTTP (default: $REPRO_SERVE, else no server; "
             "port 0 picks a free port)",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="with a single experiment: also run that family's "
             "representative traced cell (telemetry spans: the pCPU "
             "timeline and the control plane) and write a "
             "chrome://tracing JSON to PATH",
    )
    parser.add_argument(
        "--telemetry-out", default=None, metavar="PATH",
        help="with the telemetry or fleet experiment: write that run's "
             "telemetry record (instruments, series, spans, audit) as "
             "JSONL to PATH",
    )
    parser.add_argument(
        "--profile", nargs="?", const="-", default=None, metavar="DEST",
        help="capture a cProfile of the experiment runs; DEST '-' (the "
             "default) prints a pstats table to stderr, a path ending in "
             ".prof writes the binary dump for snakeviz/pstats, any other "
             "path gets the text table",
    )
    args = parser.parse_args(argv)

    if (args.experiment == "plan") != (args.family is not None):
        parser.error("a family name goes with 'plan', and only with it")
    if args.experiment == "list":
        for name, exp in REGISTRY.items():
            print(f"{name:10s} {exp.description}")
        return 0
    if args.experiment == "plan":
        exp = REGISTRY[args.family]
        for cell in exp.plan(**(exp.fast if args.fast else exp.full)):
            print(cell.display)
        return 0

    names = sorted(REGISTRY) if args.experiment == "all" else [args.experiment]
    # fail fast, from the registry — before spending minutes running
    # the experiments, and before the runner opens files or the ops
    # plane starts a server
    single = REGISTRY[names[0]] if len(names) == 1 else None
    for path, flag, field in (
        (args.telemetry_out, "--telemetry-out", "telemetry"),
        (args.trace_out, "--trace-out", "traced"),
    ):
        if path is not None and not getattr(single, field, None):
            able = [name for name, exp in REGISTRY.items() if getattr(exp, field)]
            parser.error(f"{flag} requires a single one of: {', '.join(able)}")

    from repro.ops import resolve_serve_spec

    try:
        serve_spec = resolve_serve_spec(args.serve)
    except ValueError as exc:  # bad --serve / REPRO_SERVE
        parser.error(str(exc))
    try:
        runner = build_runner(args)
    except ValueError as exc:  # bad --jobs / REPRO_JOBS
        parser.error(str(exc))
    # one exit path from here on: the ops plane closes, then the engine
    # (run-dir log, --events-out handle), once each however the run ends
    plane = None
    try:
        # the ops plane exists only to serve; a run directory keeps its own
        # record (events.jsonl) without it
        if serve_spec is not None:
            from repro.ops.server import attach_ops

            plane = attach_ops(runner.engine, serve_spec)
            # stderr: stdout stays byte-identical with/without --serve
            print(f"[ops] serving at {plane.url}", file=sys.stderr)

        results: dict[str, Any] = {}  # the artifact flags export from these

        def run_experiments() -> None:
            for name in names:
                exp = REGISTRY[name]
                print(f"\n=== {name}: {exp.description} ===")
                start = time.perf_counter()
                results[name] = run(
                    exp, exp.fast if args.fast else exp.full, runner
                )
                print(exp.render(results[name]))
                # stderr: stdout stays byte-identical from run to run
                print(
                    f"[{name} took {time.perf_counter() - start:.1f}s]",
                    file=sys.stderr,
                )

        try:
            if args.profile is not None:
                from repro.perf import capture

                with capture() as prof:
                    run_experiments()
                # stderr: stdout stays byte-identical with/without --profile
                prof.write(args.profile)
                if args.profile != "-":
                    print(f"[profile] wrote {args.profile}", file=sys.stderr)
            else:
                run_experiments()
        except KeyboardInterrupt:
            # the engine already fsynced its log and swept temp files;
            # tell the user how to pick the run back up
            engine = runner.engine
            if engine.run_dir is not None:
                print(
                    f"\n[engine] interrupted after {engine.status.ran} "
                    f"cell(s); resume with --run-dir {engine.run_root} "
                    f"--resume {engine.run_dir.run_id}",
                    file=sys.stderr,
                )
            else:
                print(
                    "\n[engine] interrupted (no --run-dir: nothing was "
                    "checkpointed)",
                    file=sys.stderr,
                )
            return 130
        except RunDirError as exc:
            print(f"[engine] {exc}", file=sys.stderr)
            return 2
        if args.telemetry_out is not None:
            from repro.telemetry import write_jsonl

            report = results[names[0]]
            count = write_jsonl(
                args.telemetry_out, report.telemetry,
                end_time_ns=report.end_time_ns,
            )
            # stderr: stdout must stay byte-identical with/without the flag
            print(
                f"[telemetry] wrote {count} records to {args.telemetry_out}",
                file=sys.stderr,
            )
        if args.trace_out is not None:
            traced = REGISTRY[names[0]].traced
            assert traced is not None  # checked before the run
            count, dropped = traced(args.trace_out, fast=args.fast)
            # stderr: stdout must stay byte-identical with/without the flag
            print(
                f"[trace] wrote {count} events to {args.trace_out} "
                f"({dropped} spans dropped)",
                file=sys.stderr,
            )
        if runner.cache is not None:
            print(f"[cache] {runner.cache.stats.as_line()}", file=sys.stderr)
        engine = runner.engine
        status = engine.status
        if status.sweeps_finished:
            run_id = (
                engine.run_dir.run_id if engine.run_dir is not None else "-"
            )
            print(
                f"[engine] sweeps={status.sweeps_finished} "
                f"ran={status.ran} hits={status.hit} "
                f"resumed={status.resumed} run={run_id}",
                file=sys.stderr,
            )
        if engine.run_dir is not None:
            # the where-did-the-time-go table, from the per-cell resource
            # profiles of the cells the log says ran, this run or an
            # earlier one (stderr: stdout carries only the tables)
            from repro.ops import render_slowest

            records = read_event_log(engine.run_dir.events_path)
            if any(r.get("outcome") == "ran" for r in records):
                print(f"[ops] {render_slowest(records, k=5)}", file=sys.stderr)
        return 0
    finally:
        if plane is not None:
            plane.close()
        runner.engine.close()

if __name__ == "__main__":
    sys.exit(main())

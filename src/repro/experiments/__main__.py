"""Command-line experiment runner.

Regenerate any table/figure of the paper without the benchmark harness:

    python -m repro.experiments list
    python -m repro.experiments fig2 [--fast]
    python -m repro.experiments all [--fast] --jobs 4

``--fast`` cuts simulation durations (~4x) for a quick look; the
default durations match the benchmark suite.

Sweep execution goes through the :mod:`repro.exec` engine: ``--jobs
N`` (or the ``REPRO_JOBS`` environment variable) fans independent
cells out over work-stealing worker processes, and results are
memoised under ``.repro_cache/`` so re-running a sweep replays cached
cells instead of re-simulating.  ``--no-cache`` disables the cache,
``--cache-dir`` moves it.  ``--run-dir DIR`` (or ``REPRO_RUN_DIR``)
makes the run *durable*: every completed cell is journalled to a
content-addressed run directory, so a killed run — Ctrl-C, SIGKILL,
OOM — resumes with only unfinished cells re-executed (automatically,
since the run id derives from the planned sweep; ``--resume RUN-ID``
pins a directory explicitly).  ``--events-out PATH`` additionally
streams the engine's typed event narration as JSONL.  ``--serve
[HOST:]PORT`` (or ``REPRO_SERVE``) attaches the read-only ops plane:
live ``/metrics``, ``/status`` and ``/events`` over HTTP, a flight
recorder that dumps the last events into the run directory when the
run dies, and a slowest-cells table after checkpointed runs.  Per-cell
progress (a :class:`~repro.exec.ProgressPrinter` sink, off with
``--quiet``), the cache hit/miss summary and the engine tallies (read
from the engine's live :class:`~repro.ops.status.RunStatus`) go to
stderr; stdout carries only the experiment tables, so serial,
parallel, cached and resumed runs print byte-identical results.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Optional

from repro.exec import (
    EventSink,
    JsonlSink,
    ProgressPrinter,
    ResultCache,
    RunDirError,
    SweepRunner,
)
from repro.sim.units import MS, SEC


def _fig2(fast: bool, runner: Optional[SweepRunner]) -> str:
    from repro.experiments.fig2_calibration import render_fig2, run_fig2

    measure = 1 * SEC if fast else 3 * SEC
    return render_fig2(
        run_fig2(warmup_ns=500 * MS, measure_ns=measure, runner=runner)
    )


def _fig3(fast: bool, runner: Optional[SweepRunner]) -> str:
    from repro.experiments.fig3_clustering import render_fig3, run_fig3

    return render_fig3(run_fig3())


def _fig4(fast: bool, runner: Optional[SweepRunner]) -> str:
    from repro.experiments.fig4_vtrs import render_fig4, run_fig4

    return render_fig4(run_fig4(periods=20 if fast else 50))


def _fig5(fast: bool, runner: Optional[SweepRunner]) -> str:
    from repro.experiments.fig5_validation import (
        FIG5_APPS,
        render_fig5,
        run_fig5,
    )

    apps = FIG5_APPS[:6] if fast else FIG5_APPS
    measure = 1 * SEC if fast else 2 * SEC
    return render_fig5(
        run_fig5(
            apps=apps, warmup_ns=500 * MS, measure_ns=measure, runner=runner
        )
    )


def _fig6(fast: bool, runner: Optional[SweepRunner]) -> str:
    from repro.experiments.fig6_effectiveness import render_fig6, run_fig6

    warmup = 1 * SEC if fast else 2 * SEC
    measure = 2 * SEC if fast else 4 * SEC
    return render_fig6(
        run_fig6(warmup_ns=warmup, measure_ns=measure, runner=runner)
    )


def _fig7(fast: bool, runner: Optional[SweepRunner]) -> str:
    from repro.experiments.fig7_customization import render_fig7, run_fig7

    warmup = 1 * SEC if fast else 2 * SEC
    measure = 2 * SEC if fast else 4 * SEC
    return render_fig7(
        run_fig7(warmup_ns=warmup, measure_ns=measure, runner=runner)
    )


def _fig8(fast: bool, runner: Optional[SweepRunner]) -> str:
    from repro.experiments.fig8_comparison import render_fig8, run_fig8

    warmup = 1 * SEC if fast else 2 * SEC
    measure = 2 * SEC if fast else 4 * SEC
    return render_fig8(
        run_fig8(warmup_ns=warmup, measure_ns=measure, runner=runner)
    )


def _table3(fast: bool, runner: Optional[SweepRunner]) -> str:
    from repro.experiments.table3_recognition import (
        render_table3,
        run_table3,
    )
    from repro.workloads.suites import APP_CATALOG

    apps = sorted(APP_CATALOG)[:8] if fast else None
    duration = 1 * SEC if fast else 2 * SEC
    return render_table3(run_table3(apps=apps, duration_ns=duration))


def _overhead(fast: bool, runner: Optional[SweepRunner]) -> str:
    from repro.experiments.overhead import (
        render_overhead,
        render_table6,
        run_overhead,
    )

    warmup = 1 * SEC if fast else 2 * SEC
    measure = 2 * SEC if fast else 4 * SEC
    text = render_overhead(run_overhead(warmup_ns=warmup, measure_ns=measure))
    return text + "\n\n" + render_table6()


def _sync(fast: bool, runner: Optional[SweepRunner]) -> str:
    from repro.experiments.sync_primitives import (
        render_sync_primitives,
        run_sync_primitives,
    )

    measure = 1 * SEC if fast else 2 * SEC
    return render_sync_primitives(run_sync_primitives(measure_ns=measure))


def _window(fast: bool, runner: Optional[SweepRunner]) -> str:
    from repro.experiments.window_sensitivity import (
        render_window_sensitivity,
        run_window_sensitivity,
    )

    warmup = 1 * SEC if fast else 2 * SEC
    measure = 2 * SEC if fast else 4 * SEC
    return render_window_sensitivity(
        run_window_sensitivity(
            warmup_ns=warmup, measure_ns=measure, runner=runner
        )
    )


def _random(fast: bool, runner: Optional[SweepRunner]) -> str:
    from repro.experiments.random_mixes import (
        render_random_mixes,
        run_random_mixes,
    )

    mixes = 3 if fast else 5
    measure = 2 * SEC if fast else 3 * SEC
    return render_random_mixes(
        run_random_mixes(mixes=mixes, measure_ns=measure, runner=runner)
    )


def _ablations(fast: bool, runner: Optional[SweepRunner]) -> str:
    from repro.experiments.ablations import (
        render_boost_ablation,
        render_lock_handoff_ablation,
        render_reuse_ablation,
        run_boost_ablation,
        run_lock_handoff_ablation,
        run_reuse_ablation,
    )

    measure = 1 * SEC if fast else 2 * SEC
    parts = [
        render_boost_ablation(
            run_boost_ablation(measure_ns=measure, runner=runner)
        ),
        render_lock_handoff_ablation(
            run_lock_handoff_ablation(measure_ns=measure, runner=runner)
        ),
        render_reuse_ablation(
            run_reuse_ablation(measure_ns=measure, runner=runner)
        ),
    ]
    return "\n\n".join(parts)


def _churn(fast: bool, runner: Optional[SweepRunner]) -> str:
    from repro.experiments.churn import render_churn, run_churn

    return render_churn(run_churn(fast=fast, runner=runner))


#: the last telemetry-carrying run, kept for the artifact flags
#: (``--telemetry-out`` / ``--trace-out`` export from the same
#: simulation the report printed); set by the ``telemetry`` and
#: ``fleet`` families
LAST_TELEMETRY_REPORT = None

#: families whose report carries an exportable telemetry record
TELEMETRY_FAMILIES = ("telemetry", "fleet")


def _fleet(fast: bool, runner: Optional[SweepRunner]) -> str:
    from repro.experiments.fleet import render_fleet, run_fleet

    global LAST_TELEMETRY_REPORT
    report = run_fleet(fast=fast, runner=runner)
    LAST_TELEMETRY_REPORT = report
    return render_fleet(report)


def _telemetry(fast: bool, runner: Optional[SweepRunner]) -> str:
    from repro.experiments.telemetry_report import (
        render_telemetry_report,
        run_telemetry_report,
    )

    global LAST_TELEMETRY_REPORT
    warmup = 500 * MS if fast else 1 * SEC
    measure = 1 * SEC if fast else 2 * SEC
    report = run_telemetry_report(
        warmup_ns=warmup, measure_ns=measure, with_trace=True
    )
    LAST_TELEMETRY_REPORT = report
    return render_telemetry_report(report)


EXPERIMENTS: dict[
    str, tuple[str, Callable[[bool, Optional[SweepRunner]], str]]
] = {
    "fig2": ("Fig. 2 — quantum calibration panels + lock inset", _fig2),
    "fig3": ("Fig. 3 — two-level clustering worked example", _fig3),
    "fig4": ("Fig. 4 — online vTRS in action", _fig4),
    "fig5": ("Fig. 5 — per-application robustness", _fig5),
    "fig6": ("Fig. 6 + Table 5 — AQL vs Xen (single & multi socket)", _fig6),
    "fig7": ("Fig. 7 — quantum-customisation ablation", _fig7),
    "fig8": ("Fig. 8 — vs vTurbo/vSlicer/Microsliced", _fig8),
    "table3": ("Table 3 — vTRS recognition over the catalog", _table3),
    "overhead": ("§4.3 + Table 6 — overhead & feature matrix", _overhead),
    "ablations": ("extra ablations: BOOST, lock handoff, reuse curve",
                  _ablations),
    "sync": ("§3.2 ablation: spin locks vs blocking semaphores", _sync),
    "window": ("§3.3.1: vTRS window-size sensitivity", _window),
    "random": ("generalisation: AQL on random colocation mixes", _random),
    "churn": ("dynamics: VM churn, phase changes & faults, AQL vs Xen",
              _churn),
    "fleet": ("datacenter fleet: AQL-aware placement vs bin packing "
              "under diurnal traffic", _fleet),
    "telemetry": ("decision audit: per-vCPU type-flip 'why' table + "
                  "pool-change ledger", _telemetry),
}


def build_runner(args: argparse.Namespace) -> SweepRunner:
    """A SweepRunner from CLI flags (also the CI entry point's shape)."""
    cache = None
    if not args.no_cache:
        cache = (
            ResultCache(root=args.cache_dir) if args.cache_dir
            else ResultCache()
        )
    sinks: list[EventSink] = [] if args.quiet else [ProgressPrinter()]
    if args.events_out is not None:
        sinks.append(JsonlSink(args.events_out))
    return SweepRunner(
        jobs=args.jobs,
        cache=cache,
        run_root=args.run_dir,
        run_id=args.resume,
        sinks=sinks,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["list", "all"],
        help="which experiment to run ('list' to enumerate, 'all' for every one)",
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
             "representative traced cell (scheduling timeline + telemetry "
             "spans) and write a chrome://tracing JSON to PATH",
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

    if args.experiment == "list":
        for name, (description, _) in EXPERIMENTS.items():
            print(f"{name:10s} {description}")
        return 0

    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    # fail fast — before spending minutes running the experiments, and
    # before the runner opens files or the ops plane starts a server
    if args.telemetry_out is not None and (
        len(names) != 1 or names[0] not in TELEMETRY_FAMILIES
    ):
        parser.error(
            "--telemetry-out requires a single telemetry-carrying "
            f"experiment ({', '.join(TELEMETRY_FAMILIES)})"
        )
    if args.trace_out is not None and len(names) != 1:
        parser.error("--trace-out requires a single experiment")

    try:
        runner = build_runner(args)
    except ValueError as exc:  # bad --jobs / REPRO_JOBS
        parser.error(str(exc))
    from repro.ops import attach_ops, resolve_serve_spec

    try:
        serve_spec = resolve_serve_spec(args.serve)
    except ValueError as exc:  # bad --serve / REPRO_SERVE
        parser.error(str(exc))
    # the ops plane attaches whenever there is something to observe: a
    # live HTTP endpoint, or a run directory the flight recorder can
    # dump into; a bare `python -m repro.experiments fig2` stays free
    plane = None
    if serve_spec is not None or args.run_dir is not None:
        plane = attach_ops(runner.engine, spec=serve_spec)
        if plane.server is not None:
            # stderr: stdout stays byte-identical with/without --serve
            print(f"[ops] serving at {plane.server.url}", file=sys.stderr)

    def run_experiments() -> None:
        for name in names:
            description, experiment = EXPERIMENTS[name]
            print(f"\n=== {name}: {description} ===")
            start = time.perf_counter()
            print(experiment(args.fast, runner))
            print(f"[{name} took {time.perf_counter() - start:.1f}s]")

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
        # the engine already flushed its journal and swept temp files;
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
        if plane is not None:
            plane.close()
        engine.close()
        return 130
    except RunDirError as exc:
        print(f"[engine] {exc}", file=sys.stderr)
        if plane is not None:
            plane.close()
        return 2
    except BaseException:
        # anything else dying mid-run: capture the last events before
        # the traceback unwinds (the dump lands in the run directory)
        if plane is not None:
            plane.recorder.dump("unhandled-exception")
            plane.close()
        raise
    if args.telemetry_out is not None:
        from repro.telemetry import write_jsonl

        report = LAST_TELEMETRY_REPORT
        assert report is not None  # guaranteed: a TELEMETRY_FAMILIES run
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
        if names[0] == "telemetry":
            # export the report's own run: its trace recorder is live
            from repro.metrics.chrome_trace import write_chrome_trace

            report = LAST_TELEMETRY_REPORT
            assert report is not None and report.trace is not None
            count = write_chrome_trace(
                args.trace_out, report.trace,
                end_time=report.end_time_ns,
                telemetry=report.telemetry.tracer,
            )
        else:
            from repro.experiments.tracing import export_experiment_trace

            count = export_experiment_trace(
                names[0], args.trace_out, fast=args.fast
            )
        # stderr: stdout must stay byte-identical with/without the flag
        print(
            f"[trace] wrote {count} events to {args.trace_out}",
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
        # the where-did-the-time-go table, from the journal's per-cell
        # resource profiles (stderr: stdout carries only the tables)
        from repro.ops import read_journal, render_slowest

        journal = read_journal(engine.run_dir.path / "journal.jsonl")
        executed = [r for r in journal if float(r.get("seconds", 0)) > 0]
        if executed:
            print(f"[ops] {render_slowest(executed, k=5)}", file=sys.stderr)
    if plane is not None:
        plane.close()
    engine.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())

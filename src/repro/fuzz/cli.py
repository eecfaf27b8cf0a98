"""``python -m repro.fuzz`` — run corpora, replay repros, print cases.

Subcommands:

* ``run`` — a fixed-seed corpus campaign with coverage report and
  shrunken repro files, run as one engine sweep (``--jobs``,
  ``--run-dir`` and ``--serve`` pick workers, journal and ops plane;
  the corpus is the same for every choice); the CI gate flags
  (``--require-invariant``, ``--min-alg-branches``, ``--expect-caught``,
  ``--max-shrunk-events``) turn the campaign into an executable
  acceptance test;
* ``replay <case.json>`` — re-run one saved scenario and re-check the
  invariant library (exit 1 on violation, unless the case carries an
  injection, where violations are the expected outcome);
* ``gen`` — print the scenario a seed generates, without running it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.exec import RunDirError, SweepRunner
from repro.exec.cli import report_stopped_run
from repro.fuzz.corpus import run_campaign
from repro.fuzz.generator import generate_scenario
from repro.fuzz.inject import INJECTIONS
from repro.fuzz.invariants import INVARIANTS, check_invariants
from repro.fuzz.runner import run_scenario_fuzz
from repro.fuzz.scenario import (
    POLICY_NAMES,
    FuzzScenario,
    scenario_problems,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="coverage-guided scenario fuzzer for the scheduler",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a fixed-seed corpus campaign")
    run.add_argument("--cases", type=int, default=25)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--out-dir", type=Path, default=None,
                     help="where repro files + coverage report land")
    run.add_argument("--policies", nargs="+", default=list(POLICY_NAMES),
                     choices=list(POLICY_NAMES))
    run.add_argument("--max-events", type=int, default=4)
    run.add_argument("--inject", default=None, choices=sorted(INJECTIONS),
                     help="apply a named bug injection to every case")
    run.add_argument("--no-shrink", action="store_true")
    run.add_argument("--quiet", action="store_true")
    # execution: workers, journal and ops plane; never the corpus
    run.add_argument("--jobs", type=int, default=None, metavar="N",
                     help="run cases on N engine workers; the corpus "
                          "is the same for every N (default: "
                          "$REPRO_JOBS, else 1)")
    run.add_argument("--run-dir", type=Path, default=None, metavar="DIR",
                     help="journal completed cases under DIR so a "
                          "killed campaign resumes")
    run.add_argument("--serve", default=None, metavar="[HOST:]PORT",
                     help="serve live /metrics, /status and /events "
                          "for the campaign over HTTP (default: "
                          "$REPRO_SERVE)")
    # gate flags (CI)
    run.add_argument("--min-alg-branches", type=int, default=0,
                     help="fail unless this many Algorithm 1/2 branches "
                          "were exercised")
    run.add_argument("--require-invariant", action="append", default=[],
                     choices=sorted(INVARIANTS),
                     help="fail unless this invariant was checked cleanly "
                          "on every case (repeatable)")
    run.add_argument("--expect-caught", action="store_true",
                     help="invert the verdict: fail unless at least one "
                          "case violated an invariant (injection gate)")
    run.add_argument("--max-shrunk-events", type=int, default=None,
                     help="with --expect-caught: fail unless some caught "
                          "case shrank to at most this many events")

    replay = sub.add_parser("replay", help="re-run a saved repro file")
    replay.add_argument("case", type=Path)

    gen = sub.add_parser("gen", help="print a generated scenario")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", type=Path, default=None)
    return parser


def _cmd_run(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> int:
    from repro.ops import resolve_serve_spec

    # a gate over no cases would pass having checked nothing
    if args.cases < 1:
        parser.error("--cases must be at least 1")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.max_events < 0:
        parser.error("--max-events must be non-negative")
    try:  # bad --serve/REPRO_SERVE or --jobs/REPRO_JOBS
        serve_spec = resolve_serve_spec(args.serve)
        runner = SweepRunner(jobs=args.jobs, run_root=args.run_dir)
    except ValueError as exc:
        parser.error(str(exc))
    plane = None
    if serve_spec is not None:
        from repro.ops.server import attach_ops

        plane = attach_ops(runner.engine, serve_spec)
        print(f"[ops] serving at {plane.url}", file=sys.stderr)
    try:
        campaign = run_campaign(
            args.cases,
            seed=args.seed,
            out_dir=args.out_dir,
            policies=args.policies,
            max_events=args.max_events,
            inject=args.inject,
            shrink_failures=not args.no_shrink,
            log=None if args.quiet else sys.stderr,
            runner=runner,
        )
    except (KeyboardInterrupt, RunDirError) as exc:
        return report_stopped_run(runner.engine, exc)
    finally:
        if plane is not None:
            plane.close()
        runner.engine.close()
    print(campaign.coverage.render())
    failures = campaign.failures
    print(
        f"\n{len(campaign.cases)} cases, {len(failures)} failing"
        + (f", repros in {args.out_dir}" if args.out_dir else "")
    )
    for case in failures:
        names = sorted({v.invariant for v in case.violations})
        where = f" -> {case.repro_path}" if case.repro_path else ""
        shrunk = (
            f" (shrunk to {len(case.shrunk.scenario.timeline)} events in "
            f"{case.shrunk.evaluations} runs)"
            if case.shrunk is not None
            else ""
        )
        print(f"  seed {case.seed}: {', '.join(names)}{shrunk}{where}")

    status = 0
    # checked-invariant gate: every invariant named must have run clean
    for name in args.require_invariant:
        dirty = [
            case.seed
            for case in campaign.cases
            if any(v.invariant == name for v in case.violations)
        ]
        if dirty:
            print(f"GATE: invariant {name!r} violated by seeds {dirty}")
            status = 1
    branches = campaign.coverage.distinct("alg1:") + \
        campaign.coverage.distinct("alg2:")
    if len(branches) < args.min_alg_branches:
        print(
            f"GATE: only {len(branches)} Algorithm 1/2 branches "
            f"exercised, need {args.min_alg_branches}: {branches}"
        )
        status = 1
    if args.expect_caught:
        if not failures:
            print("GATE: injection was NOT caught by the corpus")
            status = 1
        elif args.max_shrunk_events is not None:
            best = min(
                len(case.shrunk.scenario.timeline)
                for case in failures
                if case.shrunk is not None
            ) if any(c.shrunk is not None for c in failures) else None
            if best is None or best > args.max_shrunk_events:
                print(
                    f"GATE: minimal repro has {best} events, need "
                    f"<= {args.max_shrunk_events}"
                )
                status = 1
    elif failures:
        status = 1
    return status


def _cmd_replay(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> int:
    try:
        scenario = FuzzScenario.load(args.case)
    except OSError as exc:
        parser.error(f"cannot read {args.case}: {exc.strerror}")
    except KeyError as exc:
        parser.error(f"{args.case}: missing field {exc}")
    except (AttributeError, TypeError, ValueError) as exc:
        parser.error(f"{args.case}: not a fuzz case: {exc}")
    problems = scenario_problems(scenario)
    if problems:
        parser.error(f"{args.case}: not runnable: {'; '.join(problems)}")
    outcome = run_scenario_fuzz(scenario)
    violations = check_invariants(outcome)
    print(
        f"replayed seed {scenario.seed} ({scenario.policy}, "
        f"{len(scenario.timeline)} events"
        + (f", inject={scenario.inject}" if scenario.inject else "")
        + f") to t={outcome.end_ns} ns"
    )
    for violation in violations:
        print(f"  {violation}")
    if scenario.inject is not None:
        # an injected case *should* fail — reproducing is success
        if violations:
            print("injected bug reproduced")
            return 0
        print("injected bug did NOT reproduce")
        return 1
    return 1 if violations else 0


def _cmd_gen(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> int:
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    scenario = generate_scenario(args.seed)
    text = json.dumps(scenario.to_json(), indent=2, sort_keys=True)
    if args.out is not None:
        scenario.save(args.out)
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(parser, args)
        if args.command == "replay":
            return _cmd_replay(parser, args)
        return _cmd_gen(parser, args)
    except BrokenPipeError:  # stdout piped into a closed reader
        return 0


__all__ = ["main"]

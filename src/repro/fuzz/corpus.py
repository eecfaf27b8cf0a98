"""Corpus campaigns: generate, run, check, shrink, report.

:func:`run_campaign` is the fuzzing loop the CLI and CI drive: a
fixed-seed sequence of generated scenarios, each run to completion and
checked against the invariant library.  Failures are shrunk and written
out as runnable repro files (``python -m repro.fuzz replay <case>``);
the merged coverage report lands next to them.

A campaign has one path.  The parent generates every case up front:
case ``i`` is drawn from ``seed + i``, steered by the ``policy:``,
``mode:`` and ``event:`` keys of the scenarios drawn for cases
``0..i-1`` (:meth:`CoverageMap.observe_scenario`).  Those are the only
keys generation weighs, and a scenario alone fixes them because every
timeline event fires before the horizon, so steering needs no case to
have run.  The corpus then runs as one engine sweep of picklable
:func:`run_fuzz_case` cells: fanned out over worker processes, cached
content-addressed and, with a run directory, journalled so a killed
campaign resumes.  The corpus is the same for every worker count.
Shrinking, repro files and the coverage report stay in the parent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from repro.exec import Cell, SweepRunner, engine_cell
from repro.fuzz.coverage import CoverageMap
from repro.fuzz.generator import generate_scenario
from repro.fuzz.invariants import Violation, check_invariants
from repro.fuzz.runner import run_scenario_fuzz
from repro.fuzz.scenario import POLICY_NAMES, FuzzScenario
from repro.fuzz.shrink import ShrinkResult, shrink


@dataclass
class CaseResult:
    """One corpus case: what ran and what the invariants said."""

    index: int
    seed: int
    scenario: FuzzScenario
    violations: list[Violation] = field(default_factory=list)
    #: coverage keys this case visited for the first time
    new_coverage: int = 0
    shrunk: Optional[ShrinkResult] = None
    repro_path: Optional[Path] = None

    @property
    def failed(self) -> bool:
        return bool(self.violations)


@dataclass
class CampaignResult:
    """The whole corpus run."""

    cases: list[CaseResult] = field(default_factory=list)
    coverage: CoverageMap = field(default_factory=CoverageMap)
    report_path: Optional[Path] = None

    @property
    def failures(self) -> list[CaseResult]:
        return [case for case in self.cases if case.failed]


#: Cases that generate with no coverage map before steering starts.
#: The 8-case ``fuzz_corpus`` benchmark pins the digests of exactly
#: such an unsteered corpus (``perfbench/pins.json``), so steering from
#: case 1 has to wait for a re-pin of that benchmark.
UNSTEERED_CASES = 8


@dataclass(frozen=True)
class FuzzCaseSummary:
    """One case's run, reduced to picklable facts.

    Workers cannot ship the live :class:`~repro.fuzz.runner.FuzzOutcome`
    object graph across the process boundary, so the cell distils it to
    the violations (plain dataclasses) and the case's coverage counts.
    The parent holds the scenario and re-runs a failing one when it
    needs the live graph again (shrinking does exactly that).
    """

    violations: tuple[Violation, ...]
    coverage_counts: dict[str, int]


@engine_cell
def run_fuzz_case(scenario: FuzzScenario) -> FuzzCaseSummary:
    """Run and check one corpus case.

    Module-level and pure in its argument, so it pickles across the
    fork and caches content-addressed.
    """
    outcome = run_scenario_fuzz(scenario)
    probe = CoverageMap()
    probe.observe_outcome(outcome)
    return FuzzCaseSummary(
        violations=tuple(check_invariants(outcome)),
        coverage_counts=dict(probe.counts),
    )


def run_campaign(
    cases: int,
    seed: int = 0,
    *,
    out_dir: Optional[Path] = None,
    policies: Sequence[str] = POLICY_NAMES,
    max_events: int = 4,
    inject: Optional[str] = None,
    shrink_failures: bool = True,
    max_shrink_evaluations: int = 60,
    log: Optional[object] = None,
    runner: Optional[SweepRunner] = None,
) -> CampaignResult:
    """Run a fixed-seed corpus; returns every case plus merged coverage.

    ``runner`` only picks workers, run directory and sinks (default:
    a serial :class:`~repro.exec.SweepRunner`); the corpus is the same
    whichever runs it.
    """
    steering = CoverageMap()
    scenarios = []
    for index in range(cases):
        scenario = generate_scenario(
            seed + index,
            coverage=steering if index >= UNSTEERED_CASES else None,
            policies=policies,
            max_events=max_events,
            inject=inject,
        )
        steering.observe_scenario(scenario)
        scenarios.append(scenario)
    if runner is None:
        runner = SweepRunner(jobs=1)
    summaries = runner.run(
        [
            Cell(
                run_fuzz_case,
                dict(scenario=scenario),
                label=f"fuzz:seed{scenario.seed}",
            )
            for scenario in scenarios
        ],
        stage="fuzz-corpus",
    )

    result = CampaignResult()
    for index, (scenario, summary) in enumerate(zip(scenarios, summaries)):
        case = CaseResult(
            index=index,
            seed=scenario.seed,
            scenario=scenario,
            violations=list(summary.violations),
            new_coverage=result.coverage.novelty(summary.coverage_counts),
        )
        result.coverage.runs += 1
        for key, count in summary.coverage_counts.items():
            result.coverage.hit(key, count)
        if case.failed:
            if shrink_failures:
                case.shrunk = shrink(
                    scenario,
                    case.violations,
                    max_evaluations=max_shrink_evaluations,
                )
            if out_dir is not None:
                minimal = (
                    case.shrunk.scenario if case.shrunk is not None
                    else scenario
                )
                case.repro_path = minimal.save(
                    Path(out_dir) / f"case_{case.seed}.json"
                )
        if log is not None:
            status = (
                "FAIL " + ",".join(sorted({
                    v.invariant for v in case.violations
                }))
                if case.failed
                else "ok"
            )
            print(
                f"[{index + 1}/{cases}] seed={case.seed} "
                f"policy={scenario.policy} "
                f"events={len(scenario.timeline)} "
                f"new-coverage={case.new_coverage} {status}",
                file=log,
            )
        result.cases.append(case)

    if out_dir is not None:
        result.report_path = result.coverage.save(
            Path(out_dir) / "coverage_report.json"
        )
    return result


__all__ = [
    "CampaignResult",
    "CaseResult",
    "FuzzCaseSummary",
    "UNSTEERED_CASES",
    "run_campaign",
    "run_fuzz_case",
]

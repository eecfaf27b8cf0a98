"""Result digests of every way the reproduction builds a confined host.

Each experiment family confines its VMs to one CPU pool before it runs:
the churn family, the fuzzer and the fleet build a churn host from a
:class:`~repro.hypervisor.hostspec.HostSpec`; calibration, Fig. 5, the
sync study, the ablations, Table 3, the paper scenarios and the window
study place their VMs by hand.  The cases below run one short cell of
each and pin the :func:`repro.exec.hashing.fingerprint` of what it
returns, so a change to how hosts are built must leave every simulated
value bit-identical.  The fleet golden snapshot allows 5 % and cannot
show that.

A deliberate change of a simulated value updates the digests: print
the new ones with ``python -m tests.test_host_recipe_pins``.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.baselines import AqlPolicy, VSlicer, XenCredit
from repro.core.calibration import (
    _measure_lock_duration,
    measure_calibration_cell,
)
from repro.exec import SweepRunner
from repro.exec.hashing import fingerprint
from repro.experiments import ablations, sync_primitives, window_sensitivity
from repro.experiments.churn import POLICIES, _run_churn, make_stories
from repro.experiments.fig5_validation import _measure_app
from repro.experiments.fleet import FLEET_PLACERS
from repro.experiments.runner import run_scenario
from repro.experiments.scenarios import FIG3_POPULATION, SCENARIOS
from repro.experiments.table3_recognition import recognize_app
from repro.fleet import STORIES, FleetSimulation, make_placer
from repro.fuzz.generator import generate_scenario
from repro.fuzz.runner import run_scenario_fuzz
from repro.fuzz.scenario import POLICY_NAMES
from repro.hardware.specs import i7_3770
from repro.sim.units import MS
from repro.telemetry import Telemetry
from tests.test_fleet_golden import GOLDEN_SPEC

WARMUP_NS = 100 * MS
MEASURE_NS = 200 * MS
#: a four-thread barrier VM completes no round in the short window
SPIN_MEASURE_NS = 1000 * MS
#: the window study's shifter first changes phase at 400 ms
SHIFT_MEASURE_NS = 400 * MS
CALIBRATION_KINDS = (
    "io_exclusive", "io_hetero", "conspin", "llcf", "lolcf", "llco",
)


def _churn(story_name: str, policy: str, traced: bool = False):
    story = {s.name: s for s in make_stories(fast=True)}[story_name]
    telemetry = Telemetry(enabled=True) if traced else None
    run, machine = _run_churn(
        story, policy, WARMUP_NS, story.timeline.duration_ns + MEASURE_NS,
        telemetry=telemetry,
    )
    if telemetry is None:
        return run
    telemetry.tracer.close_all(machine.sim.now)
    return run, telemetry.summary()


def _fleet(placer: str):
    return FleetSimulation(
        GOLDEN_SPEC, STORIES["weekday"], make_placer(placer), seed=0,
        runner=SweepRunner(),
    ).run()


def _fuzz(seed: int, policy: str, inject=None):
    scenario = dataclasses.replace(
        generate_scenario(seed), policy=policy, inject=inject
    )
    outcome = run_scenario_fuzz(scenario)
    results = {
        name: (workload.mode, workload.result())
        for name, workload in sorted(outcome.workloads.items())
        if workload.vm is not None and workload.vm.alive
    }
    return (
        results,
        outcome.credit_watermark,
        [(applied.time_ns, applied.event) for applied in outcome.engine.applied],
        outcome.telemetry.summary(),
        outcome.spans_closed,
    )


def _scenario(name: str, policy):
    run = run_scenario(
        FIG3_POPULATION if name == "fig3" else SCENARIOS[name],
        policy, warmup_ns=WARMUP_NS, measure_ns=MEASURE_NS,
    )
    return dataclasses.replace(run, built=None)


def _cases() -> dict:
    spec = i7_3770()
    timing = dict(warmup_ns=WARMUP_NS, measure_ns=MEASURE_NS)
    cases = {}
    for story in make_stories(fast=True):
        for policy in POLICIES:
            cases[f"churn:{story.name}:{policy}"] = (
                lambda s=story.name, p=policy: _churn(s, p)
            )
    cases["churn:phases:aql:traced"] = lambda: _churn("phases", "aql", True)
    for placer in FLEET_PLACERS:
        cases[f"fleet:{placer}"] = lambda p=placer: _fleet(p)
    for seed in range(6):
        for policy in POLICY_NAMES:
            cases[f"fuzz:{seed}:{policy}"] = (
                lambda s=seed, p=policy: _fuzz(s, p)
            )
    # seeds 0-5 start no io VM, so only these reach the comparators'
    # oracle of ground-truth types
    for seed in (9, 10):
        for policy in ("vslicer", "vturbo"):
            cases[f"fuzz:{seed}:{policy}"] = (
                lambda s=seed, p=policy: _fuzz(s, p)
            )
    cases["fuzz:0:xen:skip_credit_refill"] = (
        lambda: _fuzz(0, "xen", "skip_credit_refill")
    )
    for kind in CALIBRATION_KINDS:
        for quantum_ms in (1, 30):
            cases[f"calibration:{kind}:{quantum_ms}ms"] = (
                lambda k=kind, q=quantum_ms: measure_calibration_cell(
                    k, q, 4, spec, warmup_ns=WARMUP_NS,
                    measure_ns=SPIN_MEASURE_NS if k == "conspin"
                    else MEASURE_NS,
                    seed=1,
                )
            )
    cases["calibration:lock_inset"] = lambda: _measure_lock_duration(
        spec, 30, seed=1, **timing
    )
    for app in ("bzip2", "dedup", "specweb2009"):
        cases[f"fig5:{app}"] = lambda a=app: _measure_app(
            a, 30, spec, warmup_ns=WARMUP_NS,
            measure_ns=SPIN_MEASURE_NS if a == "dedup" else MEASURE_NS,
            seed=7,
        )
    for primitive in sync_primitives.PRIMITIVES:
        cases[f"sync:{primitive}"] = lambda p=primitive: (
            sync_primitives._run_cell(p, 30, seed=3, **timing)
        )
    cases["ablation:boost"] = lambda: ablations._boost_cell(
        False, 30, spec, seed=1, **timing
    )
    cases["ablation:lock_handoff"] = lambda: ablations._lock_handoff_cell(
        "fifo", 1, spec, seed=1, **timing
    )
    cases["ablation:reuse"] = lambda: ablations._llcf_cell(
        spec, 0.3, 30, seed=1, **timing
    )
    cases["table3:dedup"] = lambda: recognize_app(
        "dedup", spec, duration_ns=MEASURE_NS
    )
    for name in ("S1", "S2", "S3", "S4", "S5", "fig3"):
        cases[f"scenario:{name}:aql"] = lambda n=name: _scenario(
            n, AqlPolicy()
        )
    cases["scenario:S4:xen"] = lambda: _scenario("S4", XenCredit())
    cases["scenario:S4:vslicer"] = lambda: _scenario("S4", VSlicer())
    cases["window:n=2"] = lambda: window_sensitivity._window_cell(
        AqlPolicy(window=2), seed=1, **timing
    )
    cases["window:n=2:shift"] = lambda: window_sensitivity._window_cell(
        AqlPolicy(window=2), warmup_ns=WARMUP_NS, measure_ns=SHIFT_MEASURE_NS,
        seed=1,
    )
    return cases


CASES = _cases()

#: case -> first 16 hex digits of the fingerprint of what it returned
PINS = {
    'ablation:boost': '3082032061b47642',
    'ablation:lock_handoff': '02179da37585f24a',
    'ablation:reuse': '4ee97abaf683dd1b',
    'calibration:conspin:1ms': '291bcce770dfe610',
    'calibration:conspin:30ms': 'ddcfebc333b1324f',
    'calibration:io_exclusive:1ms': '49d95298b469e374',
    'calibration:io_exclusive:30ms': '49d95298b469e374',
    'calibration:io_hetero:1ms': 'b15b744ecb6bd1f1',
    'calibration:io_hetero:30ms': '714ddfe89ba2745c',
    'calibration:llcf:1ms': '0cca227b7d4e8df1',
    'calibration:llcf:30ms': '77a64016866064a8',
    'calibration:llco:1ms': '973dd84344b4a2ab',
    'calibration:llco:30ms': '434d87a07d4afd0e',
    'calibration:lock_inset': 'c64999fde08690b5',
    'calibration:lolcf:1ms': '9d0ca43dcd106cd6',
    'calibration:lolcf:30ms': '06224e023f9b8c6e',
    'churn:arrivals:aql': 'ec7267c23566faab',
    'churn:arrivals:xen': 'a4ced777a29872e6',
    'churn:faults:aql': 'b2a4244f30a43a14',
    'churn:faults:xen': '18bde5211d46d33a',
    'churn:phases:aql': '32b54035f8254ead',
    'churn:phases:aql:traced': '49ebf00cc6287cdd',
    'churn:phases:xen': '02b0c4d83423558f',
    'churn:random:aql': '44dc46e1be5a2303',
    'churn:random:xen': 'eca6703fac699d79',
    'fig5:bzip2': 'c3e51eb0d4608050',
    'fig5:dedup': 'bc9847ff2e8ae581',
    'fig5:specweb2009': '4eb990288d43e182',
    'fleet:aql_aware': 'f2b1236f84e4f3f0',
    'fleet:best_fit': '49bc785ceae30405',
    'fleet:first_fit': 'abc9736b0cb754d4',
    'fuzz:0:aql': '931f200e76deebc3',
    'fuzz:0:microsliced': 'f3b56d3b60f2b998',
    'fuzz:0:vslicer': '6a96a87dab1863e4',
    'fuzz:0:vturbo': '6a96a87dab1863e4',
    'fuzz:0:xen': '6a96a87dab1863e4',
    'fuzz:0:xen:skip_credit_refill': '690f1284b58659b2',
    'fuzz:10:vslicer': 'b449d6983172d865',
    'fuzz:10:vturbo': '2e3f8178e499736b',
    'fuzz:1:aql': '6d81a9cdafa03776',
    'fuzz:1:microsliced': 'b8a1263d30ebb112',
    'fuzz:1:vslicer': 'b4eeec704348dc5c',
    'fuzz:1:vturbo': 'b4eeec704348dc5c',
    'fuzz:1:xen': 'b4eeec704348dc5c',
    'fuzz:2:aql': 'a4ef6737b532828b',
    'fuzz:2:microsliced': '4625eb4674bd543b',
    'fuzz:2:vslicer': 'b57457018da0e94a',
    'fuzz:2:vturbo': 'b57457018da0e94a',
    'fuzz:2:xen': 'b57457018da0e94a',
    'fuzz:3:aql': 'f40e2b8d96aff45a',
    'fuzz:3:microsliced': 'f70d543b17dab970',
    'fuzz:3:vslicer': 'fb64399afc99bdd4',
    'fuzz:3:vturbo': 'fb64399afc99bdd4',
    'fuzz:3:xen': 'fb64399afc99bdd4',
    'fuzz:4:aql': '03d53bacc2c15382',
    'fuzz:4:microsliced': '1c185485753b6ebf',
    'fuzz:4:vslicer': 'b4ff4113e55fdc43',
    'fuzz:4:vturbo': 'b4ff4113e55fdc43',
    'fuzz:4:xen': 'b4ff4113e55fdc43',
    'fuzz:5:aql': '7829ef2c2797b43b',
    'fuzz:5:microsliced': '34799f1621e99de1',
    'fuzz:5:vslicer': 'e28e0bcec517f60e',
    'fuzz:5:vturbo': 'e28e0bcec517f60e',
    'fuzz:5:xen': 'e28e0bcec517f60e',
    'fuzz:9:vslicer': 'f916e824a5f073ba',
    'fuzz:9:vturbo': '763cb88d2cb3585a',
    'scenario:S1:aql': 'fe034825487cd61a',
    'scenario:S2:aql': '25bc2f14b9c69352',
    'scenario:S3:aql': 'c883d1703a079a5c',
    'scenario:S4:aql': '741e6281f582e965',
    'scenario:S4:vslicer': '47153ce01ac842cb',
    'scenario:S4:xen': '8efc39c5532caf1a',
    'scenario:S5:aql': '7ca8764d1bcfa091',
    'scenario:fig3:aql': 'a41c7ef2491c2676',
    'sync:semaphore': 'ee49685dc50575ea',
    'sync:spin': '41023436f927f461',
    'table3:dedup': 'f2f99cfb8f0026f1',
    'window:n=2': '62ae09e2c24d60e1',
    'window:n=2:shift': '75a1a35c41d2a8cc',
}


def test_every_case_is_pinned():
    assert sorted(PINS) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_result_matches_pin(case):
    assert fingerprint(CASES[case]())[:16] == PINS[case]


if __name__ == "__main__":  # pragma: no cover - regenerates the digests
    for case in sorted(CASES):
        print(f"    {case!r}: {fingerprint(CASES[case]())[:16]!r},")

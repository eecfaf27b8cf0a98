"""The schedule timeline derived from the telemetry spans.

Every dispatch opens a ``quantum_slice`` span on track ``pcpu<n>``;
its ``woke_ns`` arg carries the wake it ends.  The machine milestones
(pool plans, VM shutdowns, pCPU faults, churn events) are span
instants.  From those alone, :func:`build_timeline` rebuilds who held
each pCPU and how long woken vCPUs waited, and
:func:`chrome_trace_events` draws the chrome trace's machine process
(pid 0).

The cases below pin that picture for the paper's scenarios, the
Fig. 3 population and two churn stories, under Xen and AQL, as
digests in ``tests/golden/span_timeline.json``.  The digests were
recorded while a second recorder (a flat log of dispatch, deschedule,
preempt, block and wake records, replayed into the same intervals)
still existed, from runs where both pictures agreed.  Regenerate them,
only for an intended change of the picture, with

    pytest tests/test_span_timeline.py --update-golden
"""

import dataclasses
import functools
import hashlib
import json
from pathlib import Path

import pytest

from repro.baselines import AqlPolicy, XenCredit
from repro.experiments.__main__ import main
from repro.experiments.churn import _run_churn, make_stories
from repro.experiments.registry import REGISTRY
from repro.experiments.runner import run_scenario
from repro.experiments.scenarios import FIG3_POPULATION, SCENARIOS
from repro.guest.phases import Compute
from repro.guest.thread import GuestThread
from repro.hypervisor.machine import Machine
from repro.metrics.chrome_trace import (
    chrome_trace_events,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.metrics.timeline import build_timeline
from repro.sim.units import MS
from repro.telemetry import Telemetry

GOLDEN = Path(__file__).parent / "golden" / "span_timeline.json"

CASES = [
    (name, policy)
    for name in ("S1", "S4", "S5", "fig3", "churn:arrivals", "churn:faults")
    for policy in ("xen", "aql")
]


#: the scenario cases' split: AQL installs its first plan at 360 ms
WARMUP_NS = 100 * MS
MEASURE_NS = 300 * MS


def _scenario_run(name: str, policy: str, telemetry: bool):
    return run_scenario(
        FIG3_POPULATION if name == "fig3" else SCENARIOS[name],
        XenCredit() if policy == "xen" else AqlPolicy(),
        warmup_ns=WARMUP_NS,
        measure_ns=MEASURE_NS,
        keep_built=True, telemetry=telemetry,
    )


@functools.lru_cache(maxsize=None)
def _traced_run(name: str, policy: str):
    """One short run with telemetry on: (run, machine); ``run`` is
    None for a churn story."""
    if name.startswith("churn:"):
        story = {s.name: s for s in make_stories(fast=True)}[name[6:]]
        _run, machine = _run_churn(
            story, policy, 100 * MS, story.timeline.duration_ns + 100 * MS,
            telemetry=Telemetry(enabled=True),
        )
        return None, machine
    run = _scenario_run(name, policy, telemetry=True)
    return run, run.built.machine


def _sha(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _digests(tracer, end_time: int) -> dict:
    timeline = build_timeline(tracer, end_time)
    return {
        "intervals": len(timeline.intervals),
        "intervals_sha": _sha(
            [(i.vcpu, i.pcpu, i.start, i.end) for i in timeline.intervals]
        ),
        "wakes": sum(map(len, timeline.wake_to_dispatch.values())),
        "wake_to_dispatch_sha": _sha(sorted(timeline.wake_to_dispatch.items())),
        "machine_events_sha": _sha(chrome_trace_events(tracer, end_time)),
    }


@pytest.mark.parametrize("name,policy", CASES)
def test_span_timeline_matches_pinned_digest(name, policy, update_golden):
    _run, machine = _traced_run(name, policy)
    tracer, end = machine.telemetry.tracer, machine.sim.now
    assert tracer.dropped == 0
    computed = _digests(tracer, end)
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    key = f"{name}/{policy}"
    if update_golden:
        golden[key] = computed
        GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    assert key in golden, f"no pinned digest for {key}: run --update-golden"
    assert computed == golden[key]


class TestObserverEffect:
    @pytest.mark.parametrize("policy", ["xen", "aql"])
    def test_telemetry_changes_nothing_simulated(self, policy):
        """The span layer (and the wake time it stores on a vCPU for
        the next slice) only records: S4 with telemetry on runs the
        same events to the same results as with it off."""
        on, machine = _traced_run("S4", policy)
        off = _scenario_run("S4", policy, telemetry=False)
        assert on.results == off.results
        assert on.pool_layout == off.pool_layout
        assert on.detected_types == off.detected_types
        assert machine.sim.events_fired == off.built.machine.sim.events_fired
        assert off.built.machine.telemetry.tracer.spans() == []


def _hog(thread):
    while True:
        yield Compute(5_000_000)


class TestTruncatedExport:
    """The tracer keeps at most ``max_spans`` completed spans; an
    export past the cap must say how many it lost."""

    def _machine(self, max_spans: int) -> Machine:
        machine = Machine(
            seed=0, default_quantum_ns=1 * MS,
            telemetry=Telemetry(enabled=True, max_spans=max_spans),
        )
        for i in range(8):  # two hogs per pCPU: a slice per quantum
            vm = machine.new_vm(f"vm{i}", 1)
            vm.guest.add_thread(GuestThread(f"t{i}", _hog))
        machine.run(50 * MS)
        return machine

    def test_document_records_dropped_spans(self, tmp_path):
        machine = self._machine(max_spans=20)
        tracer = machine.telemetry.tracer
        assert tracer.dropped > 0
        path = tmp_path / "trace.json"
        write_chrome_trace(path, tracer, machine.sim.now, telemetry=True)
        doc = json.loads(path.read_text())
        assert doc["otherData"] == {"spans_dropped": tracer.dropped}

    def test_complete_document_records_zero(self):
        machine = self._machine(max_spans=200_000)
        doc = to_chrome_trace(machine.telemetry.tracer, machine.sim.now)
        assert doc["otherData"] == {"spans_dropped": 0}

    def test_cli_prints_dropped_spans(self, monkeypatch, tmp_path, capsys):
        def traced(path, fast=False):
            machine = self._machine(max_spans=20)
            tracer = machine.telemetry.tracer
            count = write_chrome_trace(path, tracer, machine.sim.now)
            return count, tracer.dropped

        monkeypatch.setitem(
            REGISTRY, "fig3",
            dataclasses.replace(
                REGISTRY["fig3"], plan=lambda **_: [],
                fold=lambda _results, **_: None, render=lambda _result: "",
                traced=traced,
            ),
        )
        out = tmp_path / "t.json"
        assert main(["fig3", "--no-cache", "--trace-out", str(out)]) == 0
        doc = json.loads(out.read_text())
        dropped = doc["otherData"]["spans_dropped"]
        assert dropped > 0
        err = capsys.readouterr().err
        assert (
            f"[trace] wrote {len(doc['traceEvents'])} events to {out} "
            f"({dropped} spans dropped)"
        ) in err.splitlines()

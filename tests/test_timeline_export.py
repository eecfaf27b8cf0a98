"""Tests for the timeline analysis tools and CSV export."""

import pytest

from repro.guest.phases import Compute
from repro.guest.thread import GuestThread
from repro.hypervisor.machine import Machine
from repro.metrics.export import calibration_rows, scenario_rows, write_csv
from repro.metrics.timeline import (
    build_timeline,
    render_gantt,
    scheduling_delays,
)
from repro.sim.units import MS
from repro.telemetry import Telemetry


def hog_body(thread):
    while True:
        yield Compute(5_000_000)


def traced_machine(hogs=2, pcpus=1, quantum=30 * MS):
    machine = Machine(
        seed=0,
        default_quantum_ns=quantum,
        telemetry=Telemetry(enabled=True),
    )
    pool = machine.create_pool("p", machine.topology.pcpus[:pcpus], quantum)
    for i in range(hogs):
        vm = machine.new_vm(f"vm{i}", 1)
        machine.default_pool.remove_vcpu(vm.vcpus[0])
        pool.add_vcpu(vm.vcpus[0])
        vm.guest.add_thread(GuestThread(f"t{i}", hog_body))
    return machine


class TestTimeline:
    def test_intervals_cover_busy_pcpu(self):
        machine = traced_machine(hogs=2, pcpus=1)
        machine.run(500 * MS)
        timeline = build_timeline(machine.telemetry.tracer, machine.sim.now)
        assert timeline.busy_fraction(0) == pytest.approx(1.0, rel=0.01)

    def test_intervals_alternate_between_hogs(self):
        machine = traced_machine(hogs=2, pcpus=1, quantum=10 * MS)
        machine.run(200 * MS)
        timeline = build_timeline(machine.telemetry.tracer, machine.sim.now)
        a = timeline.intervals_of("vm0/v0")
        b = timeline.intervals_of("vm1/v0")
        assert len(a) >= 5 and len(b) >= 5
        # intervals never overlap on the single pCPU
        ordered = sorted(timeline.intervals, key=lambda i: i.start)
        for first, second in zip(ordered, ordered[1:]):
            assert first.end <= second.start + 1

    def test_quantum_bounds_interval_length(self):
        machine = traced_machine(hogs=2, pcpus=1, quantum=10 * MS)
        machine.run(300 * MS)
        timeline = build_timeline(machine.telemetry.tracer, machine.sim.now)
        for interval in timeline.intervals:
            assert interval.duration <= 10 * MS + 1

    def test_wake_to_dispatch_recorded(self):
        from repro.guest.phases import Sleep

        machine = Machine(seed=0, telemetry=Telemetry(enabled=True))
        vm = machine.new_vm("vm", 1)

        def napper(thread):
            while True:
                yield Compute(1_000_000)
                yield Sleep(5 * MS)

        vm.guest.add_thread(GuestThread("n", napper))
        machine.run(200 * MS)
        timeline = build_timeline(machine.telemetry.tracer, machine.sim.now)
        delays = scheduling_delays(timeline, "vm/v0")
        assert delays
        assert all(d >= 0 for d in delays)
        # alone on the machine: wake-ups dispatch immediately
        assert max(delays) < 1 * MS

    def test_gantt_renders(self):
        machine = traced_machine(hogs=2, pcpus=2)
        machine.run(200 * MS)
        timeline = build_timeline(machine.telemetry.tracer, machine.sim.now)
        art = render_gantt(timeline, width=40)
        assert "pCPU0" in art and "pCPU1" in art
        assert "A=vm0/v0" in art

    def test_gantt_empty_window_rejected(self):
        machine = traced_machine()
        machine.run(10 * MS)
        timeline = build_timeline(machine.telemetry.tracer, machine.sim.now)
        with pytest.raises(ValueError):
            render_gantt(timeline, start=5, end=5)


class TestCsvExport:
    def test_write_csv_roundtrip(self, tmp_path):
        rows = [{"a": 1, "b": "x"}, {"a": 2, "c": 3.5}]
        path = write_csv(tmp_path / "out.csv", rows)
        text = path.read_text()
        assert "a,b,c" in text.splitlines()[0]
        assert "2" in text

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "out.csv", [])

    def test_calibration_rows(self, tmp_path):
        from repro.core.calibration import run_calibration

        result = run_calibration(
            quanta_ms=(1, 30),
            consolidations=(2,),
            kinds=("lolcf",),
            warmup_ns=100 * MS,
            measure_ns=300 * MS,
        )
        rows = calibration_rows(result)
        assert any(r["kind"] == "lolcf" for r in rows)
        write_csv(tmp_path / "fig2.csv", rows)

    def test_scenario_rows(self, tmp_path):
        from repro.baselines import XenCredit
        from repro.experiments.runner import run_scenario
        from repro.experiments.scenarios import AppPlacement, Scenario

        scenario = Scenario(
            "tiny", (AppPlacement("hmmer", 2),), pcpus=2
        )
        run = run_scenario(
            scenario, XenCredit(), warmup_ns=100 * MS, measure_ns=300 * MS
        )
        rows = scenario_rows(run)
        assert len(rows) == 2
        assert rows[0]["policy"] == "xen"
        write_csv(tmp_path / "scenario.csv", rows)


class TestChromeTrace:
    def test_slices_and_metadata(self, tmp_path):
        import json

        from repro.metrics.chrome_trace import (
            to_chrome_trace,
            write_chrome_trace,
        )

        machine = traced_machine(hogs=2, pcpus=1, quantum=10 * MS)
        machine.run(200 * MS)
        doc = to_chrome_trace(machine.telemetry.tracer, machine.sim.now)
        events = doc["traceEvents"]
        slices = [e for e in events if e["ph"] == "X"]
        assert slices, "a busy machine must produce occupancy slices"
        names = {e["name"] for e in slices}
        assert {"vm0/v0", "vm1/v0"} <= names
        # ts/dur are microseconds: total busy time ~ 200 ms on 1 pCPU
        busy_us = sum(e["dur"] for e in slices if e["tid"] == 0)
        assert busy_us == pytest.approx(200_000, rel=0.02)
        metas = [e for e in events if e["ph"] == "M"]
        assert any(e["args"].get("name") == "pCPU0" for e in metas)
        path = tmp_path / "trace.json"
        count = write_chrome_trace(path, machine.telemetry.tracer, machine.sim.now)
        assert count == len(events)
        assert json.loads(path.read_text())["traceEvents"] == events

    def test_churn_events_become_instants(self, tmp_path):
        from repro.dynamics import (
            ChurnEngine,
            ChurnTimeline,
            PhaseChange,
            SwitchableWorkload,
            VmShutdown,
        )
        from repro.metrics.chrome_trace import to_chrome_trace

        machine = Machine(seed=1, telemetry=Telemetry(enabled=True))
        workloads = {}
        for name, mode in (("a", "llcf"), ("b", "llco")):
            vm = machine.new_vm(name, 1)
            workload = SwitchableWorkload(name, mode=mode, clients=2)
            workload.install(machine, vm)
            workloads[name] = workload
        timeline = ChurnTimeline(
            (
                PhaseChange(50 * MS, name="a", mode="io"),
                VmShutdown(100 * MS, name="b"),
            )
        )
        engine = ChurnEngine(machine, timeline, workloads=workloads)
        machine.run(10 * MS)
        engine.arm()
        machine.run(200 * MS)
        doc = to_chrome_trace(machine.telemetry.tracer, machine.sim.now)
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        by_name = {e["name"] for e in instants}
        assert "phase a -> io" in by_name
        assert "shutdown b" in by_name
        assert "vm-shutdown" in by_name
        # instants carry their payload and a global scope marker
        for instant in instants:
            assert instant["s"] == "g"

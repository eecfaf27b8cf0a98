"""Fleet engine: serial ≡ sharded byte-identity plus state invariants.

The headline pin: a 4-host x 12-VM fleet run over 2 epochs produces a
bit-identical :class:`~repro.fleet.metrics.FleetRun` whether the host
cells execute in-process or across a 4-worker pool (explicit ``jobs``
and the ``REPRO_JOBS`` env path both).
"""

from fractions import Fraction

import pytest

from repro.exec import CellFinished, SweepRunner, fingerprint
from repro.fleet import (
    DiurnalStory,
    FleetSimulation,
    FleetSpec,
    make_placer,
)
from repro.sim.units import MS

#: steady three-quarter load on a 16-slot fleet -> 12 resident VMs
MINI_STORY = DiurnalStory(
    "mini",
    shape=(0.75, 0.75),
    flavor_mix=(
        ("web", 0.3),
        ("batch", 0.3),
        ("stream", 0.2),
        ("lock", 0.2),
    ),
    churn=0.1,
    phase_rate=0.1,
)

#: 4 hosts x 4 slots = 16 slots; short epochs keep the test quick
MINI_SPEC = FleetSpec(
    hosts=4,
    host_class="medium",
    vcpu_ratio=1,
    epochs=2,
    warmup_ns=40 * MS,
    epoch_ns=120 * MS,
    migration_lag_ns=20 * MS,
    migration_budget=4,
)


def _run(placer="aql_aware", runner=None, seed=5):
    simulation = FleetSimulation(
        MINI_SPEC,
        MINI_STORY,
        make_placer(placer),
        seed=seed,
        runner=runner or SweepRunner(jobs=1),
    )
    return simulation, simulation.run()


class TestSerialShardedEquivalence:
    def test_explicit_jobs(self):
        """4 hosts x 12 VMs, 2 epochs: jobs=1 and jobs=4 bit-identical."""
        _, serial = _run(runner=SweepRunner(jobs=1))
        _, sharded = _run(runner=SweepRunner(jobs=4))
        assert serial.peak_vms == 12
        assert fingerprint(serial) == fingerprint(sharded)

    def test_env_jobs(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        _, serial = _run(runner=SweepRunner())
        monkeypatch.setenv("REPRO_JOBS", "4")
        _, sharded = _run(runner=SweepRunner())
        assert fingerprint(serial) == fingerprint(sharded)

    def test_same_seed_reruns_identically(self):
        _, first = _run()
        _, second = _run()
        assert fingerprint(first) == fingerprint(second)

    def test_seed_matters(self):
        _, first = _run(seed=5)
        _, second = _run(seed=6)
        assert fingerprint(first) != fingerprint(second)


class TestRunShape:
    @pytest.fixture(scope="class")
    def outcome(self):
        return _run(placer="first_fit")

    def test_epoch_metrics(self, outcome):
        _, run = outcome
        assert run.story == "mini"
        assert run.placer == "first_fit"
        assert run.hosts == 4
        assert len(run.epochs) == MINI_SPEC.epochs
        assert [m.epoch for m in run.epochs] == [0, 1]
        for metrics in run.epochs:
            assert metrics.vms == 12
            assert 1 <= metrics.active_hosts <= 4
            assert 0.0 <= metrics.mean_util <= 1.0
            assert metrics.util_spread >= 0.0
            assert metrics.units > 0
        assert run.epochs[0].arrivals == 12

    def test_fold_consistency(self, outcome):
        _, run = outcome
        assert run.peak_vms == max(m.vms for m in run.epochs)
        assert run.units == sum(m.units for m in run.epochs)
        assert run.total_migrations == sum(m.migrations for m in run.epochs)
        vm_epochs = sum(m.vms for m in run.epochs)
        expected_churn = float(Fraction(run.total_migrations, vm_epochs))
        assert run.migration_churn == pytest.approx(expected_churn)

    def test_steady_state_matches_traffic_target(self, outcome):
        simulation, _ = outcome
        population = sum(
            len(simulation.residents[h]) for h in simulation.host_ids
        )
        assert population == 12
        # every resident sits on a host with capacity to hold it
        for host_id in simulation.host_ids:
            residents = simulation.residents[host_id]
            assert len(residents) <= MINI_SPEC.slots_per_host
        # detection fed back: at least some VMs have a classified type
        assert set(simulation.detected) <= {
            name
            for host_id in simulation.host_ids
            for name in simulation.residents[host_id]
        }


class TestEpochStageLabels:
    def test_cells_report_with_epoch_stage(self):
        events: list = []
        runner = SweepRunner(jobs=1, sinks=[events.append])
        _run(runner=runner)
        reports = [e for e in events if isinstance(e, CellFinished)]
        assert reports, "no progress reports seen"
        stages = {report.stage for report in reports}
        assert "mini:aql_aware epoch 1/2" in stages
        assert "mini:aql_aware epoch 2/2" in stages
        assert all(report.label.startswith("fleet:mini:") for report in reports)

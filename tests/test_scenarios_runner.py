"""Tests for scenario building and the experiment runner."""

import pytest

from repro.baselines import XenCredit
from repro.core.types import VCpuType
from repro.experiments.runner import _placement_key, run_scenario
from repro.experiments.scenarios import (
    FIG3_POPULATION,
    SCENARIOS,
    AppPlacement,
    Scenario,
    build_scenario,
)
from repro.sim.units import MS


class TestScenarioDefinitions:
    @pytest.mark.parametrize("name", ["S1", "S2", "S3", "S4", "S5"])
    def test_table4_scenarios_are_16_on_4(self, name):
        scenario = SCENARIOS[name]
        assert scenario.total_vcpus == 16
        assert scenario.pcpus == 4

    def test_fig3_population_counts(self):
        assert FIG3_POPULATION.total_vcpus == 48
        assert FIG3_POPULATION.pcpus == 12
        assert FIG3_POPULATION.reserved_sockets == 1

    def test_machine_spec_sizing(self):
        spec = SCENARIOS["S1"].machine_spec()
        assert spec.sockets == 1 and spec.cores_per_socket == 4
        multi = FIG3_POPULATION.machine_spec()
        assert multi.sockets == 4 and multi.cores_per_socket == 4


class TestBuildScenario:
    def test_s5_structure(self):
        built = build_scenario(SCENARIOS["S5"], seed=0)
        assert len(built.ctx.oracle_types) == 16
        type_counts = {}
        for vtype in built.ctx.oracle_types.values():
            type_counts[vtype] = type_counts.get(vtype, 0) + 1
        assert type_counts == {
            VCpuType.IOINT: 4,
            VCpuType.CONSPIN: 4,
            VCpuType.LLCF: 4,
            VCpuType.LLCO: 2,
            VCpuType.LOLCF: 2,
        }
        # CPU placements become one VM per unit; IO/spin one multi-vCPU VM
        names = {vm.name for vm in built.machine.vms}
        assert "specweb2009" in names and "facesim" in names
        assert "bzip2.0" in names and "bzip2.3" in names

    def test_all_vcpus_in_scenario_pool(self):
        built = build_scenario(SCENARIOS["S1"], seed=0)
        pool = built.ctx.pool
        assert pool is not None
        assert len(pool.vcpus) == 16
        assert len(pool.pcpus) == 4

    def test_multi_socket_reserved_socket_left_out(self):
        built = build_scenario(FIG3_POPULATION, seed=0)
        assert built.ctx.sockets is not None
        assert len(built.ctx.sockets) == 3
        reserved = built.machine.topology.sockets[0]
        pool = built.ctx.pool
        assert all(p not in pool.pcpus for p in reserved.pcpus)

    def test_equal_per_vcpu_weight(self):
        built = build_scenario(SCENARIOS["S4"], seed=0)
        weights = {
            vm.weight / len(vm.vcpus) for vm in built.machine.vms
        }
        assert weights == {256.0}

    def test_trashing_io_flag(self):
        built = build_scenario(FIG3_POPULATION, seed=0)
        io_workload = built.workloads["IOInt+"]
        assert io_workload.cgi_profile.wss_bytes > built.machine.spec.llc.capacity_bytes


class TestRunner:
    def test_placement_key_folding(self):
        assert _placement_key("bzip2.3") == "bzip2"
        assert _placement_key("specweb2009") == "specweb2009"
        assert _placement_key("a.b.2") == "a.b"

    def test_run_scenario_produces_all_results(self):
        run = run_scenario(
            SCENARIOS["S3"],
            XenCredit(),
            warmup_ns=300 * MS,
            measure_ns=600 * MS,
            seed=0,
        )
        assert set(run.by_placement) == {"bzip2", "libquantum", "hmmer"}
        assert len(run.results) == 16  # one per unit VM
        assert all(v > 0 for v in run.by_placement.values())
        assert run.pool_layout  # layout recorded

    def test_keep_built(self):
        run = run_scenario(
            SCENARIOS["S3"],
            XenCredit(),
            warmup_ns=100 * MS,
            measure_ns=200 * MS,
            seed=0,
            keep_built=True,
        )
        assert run.built is not None
        assert run.built.machine.sim.now == 300 * MS


class TestCustomScenario:
    def test_small_custom_scenario(self):
        scenario = Scenario(
            "tiny",
            (
                AppPlacement("hmmer", 2),
                AppPlacement("libquantum", 2),
            ),
            pcpus=2,
        )
        run = run_scenario(
            scenario, XenCredit(), warmup_ns=200 * MS, measure_ns=400 * MS
        )
        assert set(run.by_placement) == {"hmmer", "libquantum"}

    def test_oversized_scenario_rejected(self):
        scenario = Scenario(
            "bad", (AppPlacement("hmmer", 2),), pcpus=64
        )
        with pytest.raises(ValueError):
            build_scenario(scenario, spec=SCENARIOS["S1"].machine_spec())

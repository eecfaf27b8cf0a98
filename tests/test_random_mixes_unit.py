"""Unit tests for the random-mix generator (no simulation)."""

import numpy as np

from repro.core.types import VCpuType
from repro.experiments.random_mixes import _CLASS_APPS, draw_mix
from repro.experiments.scenarios import build_scenario


class TestDrawMix:
    def test_fills_exactly_the_slot_budget(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            scenario = draw_mix(rng, total_vcpus=16)
            assert scenario.total_vcpus == 16

    def test_deterministic_for_a_given_stream(self):
        a = draw_mix(np.random.default_rng(7))
        b = draw_mix(np.random.default_rng(7))
        assert [p.key for p in a.placements] == [p.key for p in b.placements]

    def test_at_most_one_llco_block(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            scenario = draw_mix(rng)
            llco = [
                p
                for p in scenario.placements
                if p.expected_type == VCpuType.LLCO
            ]
            assert len(llco) <= 1

    def test_multithreaded_classes_get_blocks(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            scenario = draw_mix(rng)
            for placement in scenario.placements:
                if placement.expected_type in (
                    VCpuType.IOINT,
                    VCpuType.CONSPIN,
                ):
                    assert placement.vcpus >= 2

    def test_all_apps_exist_in_catalog(self):
        from repro.workloads.suites import APP_CATALOG

        for apps in _CLASS_APPS.values():
            for app in apps:
                assert app in APP_CATALOG

    def test_drawn_scenarios_are_buildable(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            scenario = draw_mix(rng)
            built = build_scenario(scenario, seed=0)
            assert len(built.ctx.oracle_types) == 16

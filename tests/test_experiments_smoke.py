"""Smoke tests: every experiment module runs end to end (short runs)
and renders the paper-style tables without errors."""

import pytest

from repro.experiments.fig2_calibration import render_fig2
from repro.experiments.fig3_clustering import render_fig3
from repro.experiments.fig4_vtrs import render_fig4
from repro.experiments.fig5_validation import render_fig5
from repro.experiments.fig6_effectiveness import render_fig6
from repro.experiments.fig7_customization import render_fig7
from repro.experiments.fig8_comparison import render_fig8
from repro.experiments.overhead import render_overhead, render_table6
from repro.experiments.registry import REGISTRY, run
from repro.experiments.scenarios import FIG3_POPULATION, SCENARIOS
from repro.experiments.table3_recognition import render_table3
from repro.experiments.fig6_effectiveness import Fig6Result
from repro.sim.units import MS, SEC

FAST = dict(warmup_ns=500 * MS, measure_ns=1 * SEC)


class TestFig2:
    def test_small_sweep_renders(self):
        result = run(REGISTRY["fig2"], dict(
            warmup_ns=300 * MS, measure_ns=600 * MS, seed=3
        ))
        text = render_fig2(result)
        assert "Fig. 2 (a) Excl. IOInt" in text
        assert "lock duration" in text
        assert "best quantum" in text


class TestFig3:
    def test_reproduces_paper_layout(self):
        result = run(REGISTRY["fig3"])
        populated = [c for c in result.clusters if c[3]]
        assert len(populated) == 6
        quanta = sorted(q for _, q, _, members in populated if members)
        assert quanta == [1, 1, 1, 30, 90, 90]
        text = render_fig3(result)
        assert "cluster" in text

    def test_socket1_is_one_1ms_cluster(self):
        result = run(REGISTRY["fig3"])
        socket1 = [c for c in result.clusters if c[0].startswith("s1.")]
        assert len(socket1) == 1
        name, quantum_ms, npcpus, members = socket1[0]
        assert quantum_ms == 1 and npcpus == 4
        assert members.get("LLCO") == 12 and members.get("IOInt") == 4

    def test_default_cluster_spill(self):
        """Socket 3's mixed pCPU: 1 LLCF + 3 ConSpin at 30 ms."""
        result = run(REGISTRY["fig3"])
        default = [
            c for c in result.clusters if c[1] == 30 and c[3]
        ]
        assert len(default) == 1
        members = default[0][3]
        assert members == {"LLCF": 1, "ConSpin": 3}


class TestFig4:
    def test_all_representatives_detected(self):
        result = run(REGISTRY["fig4"], dict(periods=20, seed=5))
        for app, detected in result.detected.items():
            assert detected is not None
        text = render_fig4(result)
        assert "specweb2009" in text

    def test_title_names_the_periods_run(self):
        result = run(REGISTRY["fig4"], dict(periods=3))
        assert result.periods == 3
        assert "over 3 monitoring periods" in render_fig4(result)


class TestFig5:
    def test_subset_of_apps(self):
        result = run(REGISTRY["fig5"], dict(
            apps=("hmmer", "bzip2", "specweb2009"),
            warmup_ns=500 * MS,
            measure_ns=1 * SEC,
            seed=7,
        ))
        assert result.normalized[("bzip2", 30)] == pytest.approx(1.0)
        assert result.matches_calibration("hmmer")  # agnostic: trivially
        text = render_fig5(result)
        assert "bzip2" in text


class TestFig6:
    def test_single_scenario_comparison(self):
        comparison = run(REGISTRY["fig6"], dict(
            scenarios=(SCENARIOS["S3"],), seed=1, **FAST
        )).single_socket["S3"]
        assert set(comparison.normalized) == {"bzip2", "libquantum", "hmmer"}
        result = Fig6Result(single_socket={"S3": comparison})
        assert "S3" in render_fig6(result)

    def test_multi_socket_runs(self):
        comparison = run(REGISTRY["fig6"], dict(
            scenarios=(FIG3_POPULATION,), seed=1, **FAST
        )).multi_socket
        assert set(comparison.normalized) == {
            "LLCO", "IOInt+", "LLCF", "ConSpin-"
        }


class TestFig7:
    def test_three_uniform_variants(self):
        result = run(REGISTRY["fig7"], dict(seed=1, **FAST))
        assert set(result.normalized) == {"small", "medium", "large"}
        text = render_fig7(result)
        assert "small" in text


class TestFig8:
    def test_all_policies_compared(self):
        result = run(REGISTRY["fig8"], dict(seed=1, **FAST))
        assert set(result.normalized) == {
            "vturbo", "microsliced", "vslicer", "aql"
        }
        text = render_fig8(result)
        assert "aql" in text


class TestTable3:
    def test_subset_recognition(self):
        result = run(REGISTRY["table3"], dict(
            apps=("astar", "libquantum", "hmmer", "specweb2009"),
            duration_ns=1500 * MS,
        ))
        assert result.accuracy == 1.0
        assert "astar" in render_table3(result)


class TestWindowSensitivity:
    def test_single_window_runs(self):
        from repro.experiments.window_sensitivity import (
            render_window_sensitivity,
        )

        result = run(REGISTRY["window"], dict(
            windows=(4,), warmup_ns=500 * MS, measure_ns=1 * SEC
        ))
        assert 4 in result.normalized
        assert result.reconfigurations[4] >= 1
        assert "vTRS window" in render_window_sensitivity(result)


class TestRandomMixes:
    def test_two_mixes_run(self):
        from repro.experiments.random_mixes import render_random_mixes

        result = run(REGISTRY["random"], dict(
            mixes=2, warmup_ns=500 * MS, measure_ns=1 * SEC
        ))
        assert len(result.per_mix) == 2
        assert result.by_class  # at least one class sampled
        assert "overall mean" in render_random_mixes(result)


class TestOverheadAndTable6:
    def test_overhead_run(self):
        result = run(REGISTRY["overhead"], dict(seed=1, **FAST))
        assert result.decisions > 0
        assert result.relative
        text = render_overhead(result)
        assert "overhead" in text.lower()

    def test_table6_matrix(self):
        text = render_table6()
        assert "AQL_Sched" in text
        assert "vTurbo" in text
        assert "Microsliced" in text

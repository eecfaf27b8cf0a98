"""The experiment registry: every family declared once, planned cheaply.

These tests never simulate: they plan every registered family at its
``fast`` and ``full`` parameters, hash every cell, and check that the
CLI's ``list`` and ``plan`` agree with the registry.
"""

import subprocess
import sys

import pytest

from repro.experiments.__main__ import main
from repro.experiments.registry import REGISTRY

#: every family module the registry imports lazily
FAMILY_MODULES = (
    "repro.experiments.ablations",
    "repro.experiments.churn",
    "repro.experiments.fig2_calibration",
    "repro.experiments.fig3_clustering",
    "repro.experiments.fig4_vtrs",
    "repro.experiments.fig5_validation",
    "repro.experiments.fig6_effectiveness",
    "repro.experiments.fig7_customization",
    "repro.experiments.fig8_comparison",
    "repro.experiments.fleet",
    "repro.experiments.overhead",
    "repro.experiments.random_mixes",
    "repro.experiments.sync_primitives",
    "repro.experiments.table3_recognition",
    "repro.experiments.telemetry_report",
    "repro.experiments.window_sensitivity",
)

SCALES = ("fast", "full")


def _cells(name: str, scale: str):
    exp = REGISTRY[name]
    return exp.plan(**getattr(exp, scale))


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("name", sorted(REGISTRY))
class TestPlans:
    def test_plan_has_unique_labels(self, name, scale):
        labels = [cell.display for cell in _cells(name, scale)]
        assert labels, f"{name} plans no cells"
        assert len(labels) == len(set(labels))

    def test_every_cache_key_computes(self, name, scale):
        # equal keys are allowed: identical computations share a cache
        # entry (the fleet's placers agree on an empty first epoch)
        for cell in _cells(name, scale):
            key = cell.cache_key("salt")
            assert len(key) == 64 and int(key, 16) >= 0


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_fast_and_full_take_the_same_parameters(name):
    exp = REGISTRY[name]
    assert set(exp.fast) == set(exp.full)


def test_list_and_plan_name_the_same_families(capsys):
    assert main(["list"]) == 0
    listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert listed == list(REGISTRY)
    for name in listed:
        assert main(["plan", name, "--fast"]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed == [cell.display for cell in _cells(name, "fast")]


def _loaded_after(statement: str) -> set[str]:
    code = f"import sys; {statement}; print('\\n'.join(sorted(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True,
        text=True,
    ).stdout
    return set(out.split())


def test_registry_imports_no_family_module():
    loaded = _loaded_after("import repro.experiments.registry")
    assert not loaded & set(FAMILY_MODULES)


def test_no_family_module_imports_the_registry():
    """The registry imports families lazily and no family imports it
    back: ``registry.run`` is the one entry, so there is no cycle."""
    loaded = _loaded_after("; ".join(f"import {m}" for m in FAMILY_MODULES))
    assert set(FAMILY_MODULES) <= loaded
    assert "repro.experiments.registry" not in loaded


def test_scenario_runner_imports_neither_registry_nor_families():
    loaded = _loaded_after("import repro.experiments.runner")
    assert "repro.experiments.registry" not in loaded
    assert not loaded & set(FAMILY_MODULES)


def test_family_modules_cover_the_registry():
    for name in REGISTRY:
        exp = REGISTRY[name]
        module = exp.plan.__qualname__.split(".")[0]
        assert f"repro.experiments.{module}" in FAMILY_MODULES


def test_fast_app_subsets_are_the_documented_prefixes():
    """``--fast`` keeps the apps the CLI always kept: the first six of
    FIG5_APPS and the first eight catalog programs by name."""
    from repro.experiments.fig5_validation import FIG5_APPS
    from repro.workloads.suites import APP_CATALOG

    assert REGISTRY["fig5"].fast["apps"] == FIG5_APPS[:6]
    assert REGISTRY["table3"].fast["apps"] == tuple(sorted(APP_CATALOG)[:8])

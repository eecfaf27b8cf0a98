"""Bench: Fig. 4 — the online vTRS over 50 monitoring periods."""

from repro.experiments.fig4_vtrs import REPRESENTATIVES, render_fig4
from repro.experiments.registry import REGISTRY, run
from repro.workloads.suites import APP_CATALOG


def test_fig4_vtrs(once):
    result = once(lambda: run(REGISTRY["fig4"]))
    print()
    print(render_fig4(result))

    for app in REPRESENTATIVES:
        assert result.detected[app] == APP_CATALOG[app].expected_type
        # the app's own cursor dominates "most of the time" (paper)
        assert result.dominance[app] > 0.6

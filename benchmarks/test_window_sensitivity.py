"""Bench: §3.3.1 — vTRS window-size sensitivity on scenario S5."""

from repro.experiments.registry import REGISTRY, run
from repro.experiments.window_sensitivity import render_window_sensitivity


def test_window_sensitivity(once, sweep_runner):
    result = once(lambda: run(REGISTRY["window"], runner=sweep_runner))
    print()
    print(render_window_sensitivity(result))

    # churn never *increases* with the window (allow small-sample noise)
    assert result.migrations[8] <= result.migrations[1] + 5
    assert result.reconfigurations[8] <= result.reconfigurations[1] + 2
    # the paper's operating point n=4 performs at least comparably to
    # the twitchy n=1
    assert result.mean_normalized(4) <= result.mean_normalized(1) * 1.10
    # and every window still beats native Xen on average
    for n in result.normalized:
        assert result.mean_normalized(n) < 1.0

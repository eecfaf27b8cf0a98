"""Bench: Fig. 7 — benefit of the quantum-customisation step.

Clustering stays on; every pool is forced to a uniform small/medium/
large quantum.  Values are normalised over full AQL: above 1.0 means
customisation helped that class.
"""

from repro.experiments.fig7_customization import render_fig7
from repro.experiments.registry import REGISTRY, run


def test_fig7_customization(once, sweep_runner):
    result = once(lambda: run(REGISTRY["fig7"], runner=sweep_runner))
    print()
    print(render_fig7(result))

    # medium (30 ms everywhere) hurts the latency/spin classes
    medium = result.normalized["medium"]
    assert medium["IOInt+"] > 1.5
    assert medium["ConSpin-"] > 1.0
    # large (90 ms everywhere) hurts them even more
    large = result.normalized["large"]
    assert large["IOInt+"] > medium["IOInt+"] * 0.9
    # small (1 ms everywhere) is close to AQL except for LLCF
    small = result.normalized["small"]
    assert small["LLCF"] > 1.1  # LLCF needs its large quantum
    assert small["IOInt+"] < 1.2  # but IO is fine with small

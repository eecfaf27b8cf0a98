"""Bench: Fig. 3 — the two-level clustering worked example."""

from repro.experiments.fig3_clustering import render_fig3
from repro.experiments.registry import REGISTRY, run


def test_fig3_clustering(once):
    result = once(lambda: run(REGISTRY["fig3"]))
    print()
    print(render_fig3(result))

    populated = [c for c in result.clusters if c[3]]
    assert len(populated) == 6  # the paper's six clusters
    quanta = sorted(q for _, q, _, m in populated)
    assert quanta == [1, 1, 1, 30, 90, 90]
    # socket 1: every vCPU 1ms-QLC (12 LLCO + 4 IOInt+)
    s1 = [c for c in populated if c[0].startswith("s1.")]
    assert len(s1) == 1 and s1[0][1] == 1
    # the default cluster holds exactly the paper's spill: 1 LLCF + 3 ConSpin
    default = [c for c in populated if c[1] == 30][0]
    assert default[3] == {"LLCF": 1, "ConSpin": 3}

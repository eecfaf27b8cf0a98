"""Bench: Fig. 8 — AQL_Sched vs vTurbo / vSlicer / Microsliced on S5.

The paper's conclusion: no comparator wins everywhere; AQL_Sched
matches the best comparator on every application type.
"""

from repro.experiments.fig8_comparison import render_fig8
from repro.experiments.registry import REGISTRY, run


def test_fig8_comparison(once, sweep_runner):
    result = once(lambda: run(REGISTRY["fig8"], runner=sweep_runner))
    print()
    print(render_fig8(result))

    aql = result.normalized["aql"]
    micro = result.normalized["microsliced"]
    vturbo = result.normalized["vturbo"]
    vslicer = result.normalized["vslicer"]

    # every IO-focused comparator helps IO
    assert vturbo["specweb2009"] < 1.0
    assert vslicer["specweb2009"] < 1.0
    # Microsliced helps IO and spin but hurts the LLC-friendly class
    assert micro["specweb2009"] < 1.0
    assert micro["facesim"] < 1.0
    assert micro["bzip2"] > aql["bzip2"]
    # vTurbo/vSlicer do not help the spin class the way AQL does
    assert aql["facesim"] <= min(vturbo["facesim"], vslicer["facesim"]) * 1.05
    # headline: AQL at least roughly matches the best comparator per app
    for app in aql:
        best_other = min(
            micro[app], vturbo[app], vslicer[app]
        )
        assert aql[app] <= best_other * 1.25, (
            f"{app}: aql={aql[app]:.2f} vs best comparator {best_other:.2f}"
        )

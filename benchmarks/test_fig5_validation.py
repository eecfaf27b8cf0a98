"""Bench: Fig. 5 — calibration robustness across the whole benchmark set.

22 applications x 5 quantum lengths at 4 vCPUs/pCPU; each application
should reach its best performance at its type's calibrated quantum.
"""

from repro.experiments.fig5_validation import FIG5_APPS, render_fig5
from repro.experiments.registry import REGISTRY, run


def test_fig5_validation(once):
    result = once(lambda: run(REGISTRY["fig5"]))
    print()
    print(render_fig5(result))

    matches = sum(1 for app in FIG5_APPS if result.matches_calibration(app))
    # the paper's claim holds across the suite; we allow a small number
    # of borderline programs (jittered parameters sit near class edges)
    assert matches >= len(FIG5_APPS) - 2, (
        f"only {matches}/{len(FIG5_APPS)} apps peaked at their type's quantum"
    )

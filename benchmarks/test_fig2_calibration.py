"""Bench: Fig. 2 — the quantum-length calibration (panels a-f + inset).

Regenerates the paper's calibration series: normalised performance per
application type across quantum lengths and consolidation ratios, the
lock-duration inset, and the derived best quantum per type.
"""

from repro.core.calibration import PAPER_BEST_QUANTA
from repro.experiments.fig2_calibration import render_fig2, run_fig2
from repro.experiments.registry import REGISTRY


def test_fig2_calibration(once, sweep_runner):
    result = once(lambda: run_fig2(
        runner=sweep_runner, **REGISTRY["fig2"].full
    ))
    print()
    print(render_fig2(result))

    # shape assertions (see EXPERIMENTS.md)
    hetero = result.normalized_series("io_hetero", 4)
    assert hetero[1] < 0.5  # paper: ~62% improvement at 1 ms
    conspin = result.normalized_series("conspin", 4)
    assert min(conspin, key=conspin.get) == 1
    llcf = result.normalized_series("llcf", 4)
    assert min(llcf, key=llcf.get) in (60, 90)
    # lock duration grows with the quantum
    durations = result.lock_duration_ns
    assert durations[90] > durations[1]
    # the derived best quanta match the paper's
    for vtype, expected in PAPER_BEST_QUANTA.items():
        assert result.best_quanta[vtype] == expected, vtype

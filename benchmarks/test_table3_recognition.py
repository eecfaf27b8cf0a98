"""Bench: Table 3 — vTRS type recognition across the full catalog."""

from repro.experiments.registry import REGISTRY, run
from repro.experiments.table3_recognition import render_table3


def test_table3_recognition(once):
    result = once(lambda: run(REGISTRY["table3"]))
    print()
    print(render_table3(result))
    # the paper's Table 3 has every program correctly classified;
    # we tolerate one borderline program across the 31-entry catalog
    assert result.accuracy >= 0.96

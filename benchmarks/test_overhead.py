"""Bench: §4.3 — AQL_Sched overhead + Table 6 feature matrix."""

from repro.experiments.overhead import render_overhead, render_table6
from repro.experiments.registry import REGISTRY, run


def test_overhead(once):
    result = once(lambda: run(REGISTRY["overhead"]))
    print()
    print(render_overhead(result))
    print()
    print(render_table6())

    # the paper claims < 1% degradation; we allow a few % because our
    # online/oracle comparison also includes misclassification
    # transients during warm-up
    assert result.mean_overhead < 0.05
    assert result.decisions > 0
    assert result.reconfigurations >= 1

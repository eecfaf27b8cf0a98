"""Bench: generalisation — AQL_Sched on random colocation mixes."""

from repro.core.types import VCpuType
from repro.experiments.random_mixes import render_random_mixes
from repro.experiments.registry import REGISTRY, run


def test_random_mixes(once, sweep_runner):
    result = once(lambda: run(REGISTRY["random"], runner=sweep_runner))
    print()
    print(render_random_mixes(result))

    # across random mixes, AQL never loses on average
    assert result.overall_mean < 1.02
    # the latency class wins decisively wherever it appears
    io_values = result.by_class.get(VCpuType.IOINT, [])
    if io_values:
        assert max(io_values) < 0.9
    # quantum-agnostic classes are never badly harmed
    for vtype in (VCpuType.LOLCF, VCpuType.LLCO):
        for value in result.by_class.get(vtype, []):
            assert value < 1.30

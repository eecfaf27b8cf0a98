"""Bench: ablations of the design choices DESIGN.md calls out.

Not in the paper — these isolate the mechanisms the reproduction is
built on: Credit's BOOST fast-path, the spin-lock handoff policy, and
the cache model's reuse curve.
"""

from repro.experiments.ablations import (
    render_boost_ablation,
    render_lock_handoff_ablation,
    render_reuse_ablation,
)
from repro.experiments.registry import REGISTRY, run

ABLATIONS = REGISTRY["ablations"]


def test_boost_ablation(once, sweep_runner):
    result = once(
        lambda: run(ABLATIONS, {"parts": ("boost",)}, sweep_runner).boost
    )
    print()
    print(render_boost_ablation(result))
    # with BOOST, exclusive IO is quantum-agnostic...
    on_1 = result.latency[(True, 1)]
    on_90 = result.latency[(True, 90)]
    assert abs(on_1 - on_90) / on_1 < 0.15
    # ...without it, latency becomes quantum-bound at large quanta
    off_90 = result.latency[(False, 90)]
    assert off_90 > 3 * on_90


def test_lock_handoff_ablation(once, sweep_runner):
    result = once(
        lambda: run(ABLATIONS, {"parts": ("lock",)}, sweep_runner).lock
    )
    print()
    print(render_lock_handoff_ablation(result))
    # FIFO (ticket) handoff loses at every quantum once consolidated —
    # a grant to a descheduled waiter stalls the lock...
    for quantum_ms in (1, 30, 90):
        assert (
            result.ns_per_job[("fifo", quantum_ms)]
            > result.ns_per_job[("hybrid", quantum_ms)]
        )
    # ...and it amplifies quantum sensitivity: the 90 ms/1 ms cost
    # ratio is far larger under FIFO than under test-and-set barging
    fifo_ratio = (
        result.ns_per_job[("fifo", 90)] / result.ns_per_job[("fifo", 1)]
    )
    hybrid_ratio = (
        result.ns_per_job[("hybrid", 90)] / result.ns_per_job[("hybrid", 1)]
    )
    assert fifo_ratio > hybrid_ratio


def test_sync_primitives_ablation(once):
    from repro.experiments.sync_primitives import render_sync_primitives

    result = once(lambda: run(REGISTRY["sync"]))
    print()
    print(render_sync_primitives(result))
    # §3.2: spinning degrades with the quantum, blocking barely does
    assert result.degradation("spin") > 1.5
    assert result.degradation("semaphore") < 1.5
    assert result.degradation("spin") > result.degradation("semaphore")


def test_reuse_ablation(once):
    result = once(lambda: run(ABLATIONS, {"parts": ("reuse",)}).reuse)
    print()
    print(render_reuse_ablation(result))
    # long quanta help LLCF under every reuse curve...
    for ratio in result.quantum_sensitivity.values():
        assert ratio > 1.0
    # ...and the uniform-access curve exaggerates the effect relative
    # to strong hot-subset reuse
    assert (
        result.quantum_sensitivity[1.0]
        > result.quantum_sensitivity[0.3]
    )

"""Differential equivalence: the fused LLC kernel vs the sub-step loop.

:func:`repro.hardware.cache.integrate_duration` is one fused kernel: the
actor's occupancy and the cache total live in locals, and the actor is
taken out of the cache's occupancy lists so that eviction works on
them in place, then put back at its position (less the dead victims
ahead of it; a new actor last).  It must be *bit-identical* to the
straightforward model it replaced, kept below as the reference: a loop
that calls ``insert`` every sub-step on a dict, where every eviction
rebuilds its victims from the dict.

Hypothesis drives both through the same call sequences (integrations
with every memory-profile corner, raw inserts, ``evict_actor``) on
caches shared by several actors, and every ``SegmentResult`` field,
the occupancy items *in order*, every actor's ``occupancy_of`` (read
through the position map) and the running total must compare ``==``
after every call.  Directed cases pin that the epsilon deletion,
full-cache and churn paths are really exercised, that the order is
kept when a victim ahead of the actor dies, after ``evict_actor`` and
after ``flush``, and a drift check holds the running total to the sum
of the occupancies.  The
kernel recomputes its per-sub-step arithmetic only after a sub-step
grew the actor; directed cases pin both ways a sub-step reuses it (no
LLC traffic, an actor at its target) against the same reference.  A
segment whose first sub-step misses nothing returns in closed form; a
second property drives every kind of such segment, at sub-step counts
around the unrolled default of 8, against the reference too.
"""

from __future__ import annotations

import random
from typing import Hashable

import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from repro.hardware import cache as cache_module
from repro.hardware.cache import (
    MemoryProfile,
    SegmentResult,
    SharedCache,
    integrate_duration,
)

KB = 1024
MB = 1024 * KB
HIT_NS = 12.0
MISS_NS = 80.0
ACTORS = ("a", "b", "c", "d", "e")


# ----------------------------------------------------------------------
# the reference model (the per-sub-step implementation, kept verbatim)
# ----------------------------------------------------------------------
_EPSILON_BYTES = 1.0


class ReferenceCache:
    """The occupancy model with a dict walk per eviction."""

    def __init__(self, capacity_bytes, line_bytes=64, reuse_exponent=0.5):
        self.capacity_bytes = float(capacity_bytes)
        self.line_bytes = float(line_bytes)
        self.reuse_exponent = reuse_exponent
        self._occupancy: dict[Hashable, float] = {}
        self._total = 0.0

    @property
    def free_bytes(self) -> float:
        return max(0.0, self.capacity_bytes - self._total)

    def insert(self, actor: Hashable, nbytes: float, wss_bytes: int) -> None:
        if nbytes <= 0:
            return
        target = min(float(wss_bytes), self.capacity_bytes)
        occupancy = self._occupancy.get(actor, 0.0)
        grow = min(nbytes, max(0.0, target - occupancy))
        churn = max(0.0, nbytes - grow)
        if grow > 0:
            from_free = min(grow, self.free_bytes)
            need = grow - from_free
            if need > 0:
                self._evict_from_others(actor, need)
            self._occupancy[actor] = occupancy + grow
            self._total += grow
        if churn > 0:
            # A working set larger than the cache re-fetches its own
            # lines; a fraction of those fills still displace other
            # actors' lines (set-conflict pressure).
            others = self._total - self._occupancy.get(actor, 0.0)
            if others > 0:
                pressure = min(others, churn * (others / self.capacity_bytes))
                evicted = self._evict_from_others(actor, pressure)
                # The displaced space is immediately re-used by the
                # churning actor only up to its target; otherwise it
                # stays free until someone misses.
                del evicted

    def _evict_from_others(self, actor: Hashable, amount: float) -> float:
        """Evict up to ``amount`` bytes from everyone but ``actor``."""
        victims = [(a, occ) for a, occ in self._occupancy.items() if a is not actor]
        others_total = sum(occ for _, occ in victims)
        if others_total <= 0:
            return 0.0
        amount = min(amount, others_total)
        for victim, occ in victims:
            share = occ / others_total
            taken = amount * share
            remaining = occ - taken
            if remaining < _EPSILON_BYTES:
                self._total -= occ
                del self._occupancy[victim]
            else:
                self._total -= taken
                self._occupancy[victim] = remaining
        return amount

    def evict_actor(self, actor: Hashable) -> float:
        """Remove all of ``actor``'s lines (e.g. after socket migration)."""
        occupancy = self._occupancy.pop(actor, 0.0)
        self._total -= occupancy
        if self._total < 0:
            self._total = 0.0
        return occupancy


def reference_integrate_duration(
    cache, actor, profile, duration_ns, hit_ns, miss_ns, substeps=8
):
    result = SegmentResult()
    if duration_ns <= 0:
        return result
    dt = duration_ns / substeps
    wss = profile.wss_bytes
    ref_rate = profile.llc_ref_rate
    base_cpi = profile.base_cpi_ns
    exponent = cache.reuse_exponent
    line_bytes = cache.line_bytes
    occupancy = cache._occupancy
    insert = cache.insert
    instructions_total = 0.0
    refs_total = 0.0
    misses_total = 0.0
    elapsed_total = 0.0
    for _ in range(substeps):
        if wss <= 0:
            p_hit = 1.0
        else:
            fraction = min(1.0, occupancy.get(actor, 0.0) / float(wss))
            p_hit = fraction ** exponent
        per_instr = base_cpi + ref_rate * (
            p_hit * hit_ns + (1.0 - p_hit) * miss_ns
        )
        instructions = dt / per_instr
        refs = instructions * ref_rate
        misses = refs * (1.0 - p_hit)
        if misses > 0.0:
            insert(actor, misses * line_bytes, wss)
        instructions_total += instructions
        refs_total += refs
        misses_total += misses
        elapsed_total += dt
    result.instructions = instructions_total
    result.llc_refs = refs_total
    result.llc_misses = misses_total
    result.elapsed_ns = elapsed_total
    return result


# ----------------------------------------------------------------------
# the differential harness
# ----------------------------------------------------------------------
def make_pair(capacity, exponent):
    return (
        SharedCache(capacity, reuse_exponent=exponent),
        ReferenceCache(capacity, reuse_exponent=exponent),
    )


def assert_same_state(fast: SharedCache, ref: ReferenceCache) -> None:
    assert fast.items() == list(ref._occupancy.items())
    assert fast.total_occupancy == ref._total
    for actor in {*ACTORS, *ref._occupancy}:
        assert fast.occupancy_of(actor) == ref._occupancy.get(actor, 0.0)


def assert_same_segment(got: SegmentResult, want: SegmentResult) -> None:
    assert got.instructions == want.instructions
    assert got.llc_refs == want.llc_refs
    assert got.llc_misses == want.llc_misses
    assert got.elapsed_ns == want.elapsed_ns


def apply(fast: SharedCache, ref: ReferenceCache, op: tuple) -> None:
    kind, actor = op[0], op[1]
    if kind == "integrate":
        profile, duration, substeps = op[2:]
        got = integrate_duration(
            fast, actor, profile, duration, HIT_NS, MISS_NS, substeps=substeps
        )
        want = reference_integrate_duration(
            ref, actor, profile, duration, HIT_NS, MISS_NS, substeps=substeps
        )
        assert_same_segment(got, want)
    elif kind == "insert":
        nbytes, wss = op[2:]
        fast.insert(actor, nbytes, wss)
        ref.insert(actor, nbytes, wss)
    elif kind == "warm":
        # fill the actor to ``gap`` bytes short of its working set, then
        # integrate: it starts at (gap 0) or next to its target
        profile, gap, duration, substeps = op[2:]
        wss = profile.wss_bytes
        apply(fast, ref, ("insert", actor, float(max(0, wss - gap)), wss))
        apply(fast, ref, ("integrate", actor, profile, duration, substeps))
    else:
        assert fast.evict_actor(actor) == ref.evict_actor(actor)
    assert_same_state(fast, ref)


def scaled(low: int, high: int, scale: float):
    """Floats drawn as ``n / scale``: integers shrink far faster than
    raw floats when Hypothesis minimises a failing call sequence."""
    return st.integers(min_value=low, max_value=high).map(lambda n: n / scale)


profiles = st.builds(
    MemoryProfile,
    wss_bytes=st.one_of(
        st.just(0),
        st.integers(min_value=1, max_value=64 * KB),
        st.integers(min_value=64 * KB, max_value=32 * MB),
    ),
    llc_ref_rate=st.one_of(
        st.just(0.0),
        scaled(1, 200_000, 1e6),
        scaled(10_000, 200_000, 1e6),
    ),
    base_cpi_ns=scaled(50, 2_000, 1e3),
)

# the machine integrates whole nanoseconds (``float(elapsed)``)
integrate_ops = st.tuples(
    st.just("integrate"),
    st.sampled_from(ACTORS),
    profiles,
    st.one_of(
        scaled(-10, 1_000, 1.0),
        scaled(1_000, 50_000_000, 1.0),
    ),
    st.sampled_from((1, 8)),
)
insert_ops = st.tuples(
    st.just("insert"),
    st.sampled_from(ACTORS),
    st.one_of(
        scaled(0, 4_000, 1e3),
        scaled(0, 64 * KB * 1_000, 1e3),
        scaled(0, 16 * MB, 1.0),
    ),
    st.integers(min_value=0, max_value=32 * MB),
)
evict_ops = st.tuples(st.just("evict"), st.sampled_from(ACTORS))
# actors at or next to their target, where a sub-step either misses
# nothing or reaches the target and churns its neighbours
warm_ops = st.tuples(
    st.just("warm"),
    st.sampled_from(ACTORS),
    profiles,
    st.one_of(st.just(0), st.integers(min_value=1, max_value=2 * KB)),
    scaled(1_000, 50_000_000, 1.0),
    st.sampled_from((1, 8)),
)
OP_KINDS = {
    "integrate": integrate_ops,
    "insert": insert_ops,
    "evict": evict_ops,
    "warm": warm_ops,
}


@st.composite
def calls(draw):
    """One call, weighted 5:2:1:1 towards integrations."""
    kind = draw(
        st.sampled_from(("integrate",) * 5 + ("insert",) * 2 + ("evict", "warm"))
    )
    return draw(OP_KINDS[kind])


ops = st.lists(calls(), min_size=10, max_size=60)


@settings(max_examples=250, deadline=None)
@given(
    capacity=st.sampled_from((16 * KB, 256 * KB, 8 * MB)),
    exponent=st.sampled_from((0.5, 0.3, 1.0)),
    sequence=ops,
)
def test_fused_kernel_matches_reference(capacity, exponent, sequence):
    fast, ref = make_pair(capacity, exponent)
    for op in sequence:
        apply(fast, ref, op)


# ----------------------------------------------------------------------
# directed paths: each must be exercised, not just tolerated
# ----------------------------------------------------------------------
@pytest.fixture
def evictions(monkeypatch):
    """Record every eviction pass as (victims before, victims dropped)."""
    passes: list[tuple[list, list]] = []
    real = cache_module._evict

    def spy(keys, values, dead, amount, total):
        before, ndead = list(keys), len(dead)
        total = real(keys, values, dead, amount, total)
        passes.append((before, dead[ndead:]))
        return total

    monkeypatch.setattr(cache_module, "_evict", spy)
    return passes


def test_epsilon_deletion_mid_pass(evictions):
    """A victim evicted below one byte leaves the dict while a later
    victim in the same pass survives; the survivors keep their order."""
    fast, ref = make_pair(64 * KB, 0.5)
    for actor, nbytes in (("a", 40 * KB), ("b", 1.5), ("c", 20 * KB)):
        apply(fast, ref, ("insert", actor, nbytes, 64 * KB))
    profile = MemoryProfile(wss_bytes=32 * KB, llc_ref_rate=0.01)
    apply(fast, ref, ("integrate", "e", profile, 1e6, 8))
    assert (["a", "b", "c"], ["b"]) in evictions
    assert fast.actors() == ["a", "c", "e"]


def test_insert_epsilon_deletion_mid_pass(evictions):
    fast, ref = make_pair(4096, 0.5)
    for actor, nbytes in (("a", 2500.0), ("b", 1.5), ("c", 1000.0)):
        apply(fast, ref, ("insert", actor, nbytes, 4096))
    apply(fast, ref, ("insert", "e", 594.5 + 1400.0, 4096))
    assert evictions == [(["a", "b", "c"], ["b"])]
    assert fast.actors() == ["a", "c", "e"]


def test_growth_into_a_full_cache(evictions):
    """A new actor's growth must evict once the cache has no free space."""
    fast, ref = make_pair(8 * MB, 0.5)
    apply(fast, ref, ("insert", "x", 5 * MB, 8 * MB))
    apply(fast, ref, ("insert", "y", 3 * MB, 8 * MB))
    assert fast.free_bytes == 0.0
    profile = MemoryProfile(wss_bytes=512 * KB, llc_ref_rate=0.01)
    apply(fast, ref, ("integrate", "z", profile, 2e5, 8))
    assert len(evictions) == 8
    assert fast.actors() == ["x", "y", "z"]


# ----------------------------------------------------------------------
# the occupancy order: the actor is taken out of the lists while it
# evicts and put back at its position, less the dead victims ahead of it
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", ["integrate", "insert"])
def test_mid_actor_killing_a_victim_ahead_keeps_the_order(evictions, kind):
    """``c`` sits third; its fills kill ``b`` (second), so it goes back
    in at index 1 instead of 2, ahead of ``d``."""
    fast, ref = make_pair(64 * KB, 0.5)
    for actor, nbytes in (("a", 30 * KB), ("b", 1.5), ("c", 4 * KB), ("d", 30 * KB)):
        apply(fast, ref, ("insert", actor, nbytes, 64 * KB))
    assert fast.actors() == ["a", "b", "c", "d"]
    if kind == "integrate":
        profile = MemoryProfile(wss_bytes=32 * KB, llc_ref_rate=0.01)
        apply(fast, ref, ("integrate", "c", profile, 1e6, 8))
    else:
        apply(fast, ref, ("insert", "c", 28 * KB, 32 * KB))
    assert any(before == ["a", "b", "d"] and dead == ["b"] for before, dead in evictions)
    assert fast.actors() == ["a", "c", "d"]
    # the rebuilt position map serves the calls after it
    profile = MemoryProfile(wss_bytes=48 * KB, llc_ref_rate=0.01)
    apply(fast, ref, ("integrate", "d", profile, 1e6, 8))
    apply(fast, ref, ("evict", "a"))
    apply(fast, ref, ("integrate", "c", profile, 1e6, 8))
    assert fast.actors() == ["c", "d"]


def test_new_actor_killing_a_victim_goes_last(evictions):
    """A new actor's segment kills a victim; it is appended after the
    survivors and the position map serves the next segment."""
    fast, ref = make_pair(64 * KB, 0.5)
    for actor, nbytes in (("a", 40 * KB), ("b", 1.5), ("c", 20 * KB)):
        apply(fast, ref, ("insert", actor, nbytes, 64 * KB))
    profile = MemoryProfile(wss_bytes=32 * KB, llc_ref_rate=0.01)
    apply(fast, ref, ("integrate", "e", profile, 1e6, 8))
    assert any(dead == ["b"] for _, dead in evictions)
    assert fast.actors() == ["a", "c", "e"]
    apply(fast, ref, ("integrate", "a", profile, 1e6, 8))
    apply(fast, ref, ("integrate", "e", profile, 1e6, 8))
    assert fast.actors() == ["a", "c", "e"]


@pytest.mark.parametrize("gone", ["a", "b", "c"])
def test_evicted_actor_regrows_last(gone):
    """``evict_actor`` removes an actor from any position; when it
    misses again it returns after everyone else."""
    fast, ref = make_pair(8 * MB, 0.5)
    for actor in ("a", "b", "c"):
        apply(fast, ref, ("insert", actor, 2 * MB, 4 * MB))
    apply(fast, ref, ("evict", gone))
    assert fast.actors() == [a for a in ("a", "b", "c") if a != gone]
    assert fast.occupancy_of(gone) == 0.0
    apply(fast, ref, ("evict", gone))  # already gone: a no-op
    profile = MemoryProfile(wss_bytes=4 * MB, llc_ref_rate=0.05)
    apply(fast, ref, ("integrate", gone, profile, 4e6, 8))
    assert fast.actors()[-1] == gone
    for actor in ("a", "b", "c"):
        apply(fast, ref, ("integrate", actor, profile, 4e6, 8))
    assert fast.actors()[-1] == gone


def test_flushed_cache_is_reused_like_a_new_one():
    """After ``flush`` the cache matches a fresh reference, order included."""
    fast, ref = make_pair(256 * KB, 0.5)
    profile = MemoryProfile(wss_bytes=128 * KB, llc_ref_rate=0.05)
    for actor in ("a", "b", "c"):
        apply(fast, ref, ("integrate", actor, profile, 2e6, 8))
    fast.flush()
    assert fast.items() == [] and fast.total_occupancy == 0.0
    ref = ReferenceCache(256 * KB, reuse_exponent=0.5)
    for actor in ("c", "a", "b", "c"):
        apply(fast, ref, ("integrate", actor, profile, 2e6, 8))
    assert fast.actors() == ["c", "a", "b"]


def test_churn_past_the_target_evicts_neighbours(evictions):
    """Fills beyond the actor's working set displace others even with
    free space left (set-conflict pressure)."""
    fast, ref = make_pair(8 * MB, 0.5)
    apply(fast, ref, ("insert", "x", 2 * MB, 8 * MB))
    profile = MemoryProfile(wss_bytes=64 * KB, llc_ref_rate=0.05)
    apply(fast, ref, ("integrate", "a", profile, 1e6, 1))
    assert fast.free_bytes > 0
    assert evictions and fast.occupancy_of("x") < 2 * MB


@pytest.mark.parametrize("substeps", [1, 8])
@pytest.mark.parametrize(
    "profile",
    [
        MemoryProfile(wss_bytes=0, llc_ref_rate=0.05),
        MemoryProfile(wss_bytes=4 * MB, llc_ref_rate=0.0),
        MemoryProfile(wss_bytes=4 * MB, llc_ref_rate=0.05),
        MemoryProfile(wss_bytes=64 * MB, llc_ref_rate=0.05),
    ],
    ids=["wss0", "rate0", "fits", "churns"],
)
@pytest.mark.parametrize("exponent", [0.5, 1.0])
def test_profile_corners_match(substeps, profile, exponent):
    fast, ref = make_pair(8 * MB, exponent)
    apply(fast, ref, ("insert", "x", 5 * MB, 8 * MB))
    apply(fast, ref, ("insert", "y", 3 * MB, 8 * MB))
    for _ in range(3):
        apply(fast, ref, ("integrate", "a", profile, 4e6, substeps))
    apply(fast, ref, ("evict", "a"))
    apply(fast, ref, ("integrate", "a", profile, 4e6, substeps))


# ----------------------------------------------------------------------
# the hoisted sub-step arithmetic: recomputed only after a sub-step
# grew the actor, so both "reuse" situations are pinned directly
# ----------------------------------------------------------------------
@pytest.mark.parametrize("substeps", [1, 8])
def test_no_traffic_profile_matches_reference(evictions, substeps):
    """wss 0 and no LLC references: one computation serves every sub-step."""
    fast, ref = make_pair(8 * MB, 0.5)
    apply(fast, ref, ("insert", "x", 5 * MB, 8 * MB))
    profile = MemoryProfile(wss_bytes=0, llc_ref_rate=0.0, base_cpi_ns=0.37)
    for duration in (1e6, 3_333_333.0, 7.0):
        apply(fast, ref, ("integrate", "a", profile, duration, substeps))
    assert not evictions
    assert fast.actors() == ["x"]


def test_actor_at_target_leaves_neighbours_alone(evictions):
    """Fully resident working set: p_hit is 1, nothing misses."""
    fast, ref = make_pair(8 * MB, 0.5)
    for actor, nbytes in (("x", 3 * MB), ("y", 3 * MB), ("a", 64 * KB)):
        apply(fast, ref, ("insert", actor, nbytes, nbytes))
    profile = MemoryProfile(wss_bytes=64 * KB, llc_ref_rate=0.05)
    apply(fast, ref, ("integrate", "a", profile, 4e6, 8))
    assert not evictions
    assert fast.occupancy_of("a") == 64 * KB


def test_actor_reaching_target_churns_neighbours(evictions):
    """The first sub-step fills the last KB and churns the neighbours;
    the seven after it reuse the at-target values."""
    fast, ref = make_pair(8 * MB, 0.5)
    for actor, nbytes in (("x", 3 * MB), ("y", 3 * MB)):
        apply(fast, ref, ("insert", actor, nbytes, 8 * MB))
    apply(fast, ref, ("insert", "a", 63 * KB, 64 * KB))
    profile = MemoryProfile(wss_bytes=64 * KB, llc_ref_rate=0.05)
    apply(fast, ref, ("integrate", "a", profile, 4e6, 8))
    assert fast.occupancy_of("a") == 64 * KB
    assert evictions and fast.occupancy_of("x") < 3 * MB
    assert fast.free_bytes > 0  # churn pressure, not a full cache
    # a second segment at the target misses nothing
    before = len(evictions)
    apply(fast, ref, ("integrate", "a", profile, 4e6, 8))
    assert len(evictions) == before


def test_trashing_actor_holding_the_cache_matches_reference():
    """wss above capacity, whole cache resident: every sub-step misses
    and churns without growing the actor."""
    fast, ref = make_pair(256 * KB, 0.5)
    apply(fast, ref, ("insert", "a", 256 * KB, 4 * MB))
    profile = MemoryProfile(wss_bytes=4 * MB, llc_ref_rate=0.05)
    for _ in range(3):
        apply(fast, ref, ("integrate", "a", profile, 2e6, 8))
    assert fast.occupancy_of("a") == 256 * KB


def test_strategy_reaches_the_hoisted_branches():
    """The property test draws both reuse situations, not just by luck."""
    find(
        calls(),
        lambda op: op[0] == "integrate"
        and op[2].wss_bytes == 0
        and op[2].llc_ref_rate == 0.0,
    )
    find(
        calls(),
        lambda op: op[0] == "warm"
        and op[2].wss_bytes > 0
        and op[2].llc_ref_rate > 0.0
        and op[3] == 0,
    )
    find(calls(), lambda op: op[0] == "warm" and 0 < op[3] < op[2].wss_bytes)


# ----------------------------------------------------------------------
# segments that cannot miss: the closed form against the reference
# ----------------------------------------------------------------------
@st.composite
def segment_cases(draw):
    """A cache with two neighbours and one segment of actor ``a``.

    ``no_wss`` (with or without an LLC rate), ``rate0_partial`` (no LLC
    references, the working set partly resident so ``p_hit < 1``) and
    ``at_target`` (fully resident, references but no misses) cannot
    miss; ``cold`` misses on its first sub-step and takes the loop.
    """
    kind = draw(st.sampled_from(("no_wss", "rate0_partial", "at_target", "cold")))
    capacity = draw(st.sampled_from((256 * KB, 8 * MB)))
    rate = scaled(1, 200_000, 1e6)
    if kind == "no_wss":
        wss, ref_rate = 0, draw(st.just(0.0) | rate)
        resident = 0.0
    elif kind == "rate0_partial":
        wss, ref_rate = draw(st.integers(min_value=2, max_value=32 * MB)), 0.0
        resident = draw(st.integers(min_value=1, max_value=min(wss, capacity) - 1))
    elif kind == "at_target":
        wss, ref_rate = draw(st.integers(min_value=1, max_value=capacity)), draw(rate)
        resident = float(wss)
    else:
        wss, ref_rate = draw(st.integers(min_value=1, max_value=32 * MB)), draw(rate)
        resident = 0.0
    profile = MemoryProfile(
        wss_bytes=wss,
        llc_ref_rate=ref_rate,
        base_cpi_ns=draw(scaled(50, 2_000, 1e3)),
    )
    # dt = duration / substeps rounds at 3, 7 and 9 sub-steps
    duration = draw(
        st.integers(min_value=1, max_value=50_000_000).map(float)
        | scaled(1, 50_000_000_000, 1e3)
    )
    substeps = draw(st.sampled_from((1, 2, 3, 7, 8, 9, 16)))
    return (
        kind,
        capacity,
        draw(st.sampled_from((0.5, 0.3, 1.0))),
        float(resident),
        profile,
        duration,
        substeps,
    )


def segment_pair(case):
    """Both caches with the neighbours and ``a``'s resident bytes in place."""
    _, capacity, exponent, resident, profile, _, _ = case
    fast, ref = make_pair(capacity, exponent)
    apply(fast, ref, ("insert", "x", capacity / 3, 64 * MB))
    apply(fast, ref, ("insert", "y", capacity / 5, 64 * MB))
    apply(fast, ref, ("insert", "a", resident, profile.wss_bytes))
    return fast, ref


@settings(max_examples=400, deadline=None)
@given(case=segment_cases())
def test_closed_form_matches_reference(case):
    fast, ref = segment_pair(case)
    _, _, _, _, profile, duration, substeps = case
    for _ in range(2):  # the second segment starts where the first ended
        apply(fast, ref, ("integrate", "a", profile, duration, substeps))


class WriteSpy(SharedCache):
    """A cache that records every attribute written after construction."""

    __slots__ = ("writes",)

    def __setattr__(self, name, value):
        writes = getattr(self, "writes", None)
        if writes is not None:
            writes.append(name)
        super().__setattr__(name, value)


def takes_closed_form(case) -> bool:
    """Whether ``case``'s segment returned in closed form.

    The loop always writes the cache total back; the closed form
    writes nothing.
    """
    _, capacity, exponent, resident, profile, duration, substeps = case
    cache = WriteSpy(capacity, reuse_exponent=exponent)
    cache.insert("a", resident, profile.wss_bytes)
    cache.writes = []
    integrate_duration(cache, "a", profile, duration, HIT_NS, MISS_NS, substeps)
    return not cache.writes


def test_strategy_reaches_the_closed_form_and_the_loop():
    """Every kind that cannot miss runs the closed form at 8 sub-steps
    and the loop at other counts; a profile that misses takes the loop."""
    for kind in ("no_wss", "rate0_partial", "at_target"):
        find(
            segment_cases(),
            lambda case: case[0] == kind and case[6] == 8 and takes_closed_form(case),
        )
        find(
            segment_cases(),
            lambda case: case[0] == kind
            and case[6] != 8
            and not takes_closed_form(case),
        )
    find(
        segment_cases(),
        lambda case: case[0] == "no_wss" and case[4].llc_ref_rate > 0.0,
    )
    find(
        segment_cases(),
        lambda case: case[0] == "cold"
        and case[6] == 8
        and not takes_closed_form(case),
    )


# ----------------------------------------------------------------------
# drift: the running total agrees with the written-back occupancies
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(
    capacity=st.sampled_from((512 * KB, 8 * MB)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_running_total_does_not_drift(capacity, seed):
    """300 random integrations: the running total stays the sum of the
    occupancies and within the capacity, up to float rounding (the
    model fills to the brim, where the sum can land a few ulps over)."""
    rng = random.Random(seed)
    cache = SharedCache(capacity)
    for _ in range(300):
        wss = rng.choice((0, rng.randint(1, 64 * KB), rng.randint(64 * KB, 32 * MB)))
        rate = rng.choice((0.0, rng.uniform(1e-6, 0.2)))
        profile = MemoryProfile(
            wss_bytes=wss, llc_ref_rate=rate, base_cpi_ns=rng.uniform(0.05, 2.0)
        )
        integrate_duration(
            cache, rng.choice(ACTORS), profile, rng.uniform(1e3, 5e7),
            HIT_NS, MISS_NS, substeps=rng.choice((1, 8)),
        )
        total = cache.total_occupancy
        assert abs(total - sum(occ for _, occ in cache.items())) <= 1e-6 * capacity
        assert total <= cache.capacity_bytes * (1 + 1e-12)

"""Tests for the shared-LLC model: occupancy accounting + integration."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.cache import (
    MemoryProfile,
    SharedCache,
    estimate_duration_ns,
    integrate_duration,
)

MB = 1024 * 1024


def make_cache(capacity=8 * MB, exponent=0.5):
    return SharedCache(capacity, reuse_exponent=exponent)


class TestMemoryProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            MemoryProfile(wss_bytes=-1)
        with pytest.raises(ValueError):
            MemoryProfile(llc_ref_rate=-0.1)
        with pytest.raises(ValueError):
            MemoryProfile(base_cpi_ns=0)

    def test_defaults(self):
        profile = MemoryProfile()
        assert profile.wss_bytes == 0
        assert profile.llc_ref_rate == 0.0


class TestOccupancy:
    def test_insert_grows_occupancy(self):
        cache = make_cache()
        cache.insert("a", 1 * MB, wss_bytes=4 * MB)
        assert cache.occupancy_of("a") == pytest.approx(1 * MB)

    def test_occupancy_capped_at_wss(self):
        cache = make_cache()
        cache.insert("a", 10 * MB, wss_bytes=2 * MB)
        assert cache.occupancy_of("a") == pytest.approx(2 * MB)

    def test_occupancy_capped_at_capacity(self):
        cache = make_cache(capacity=1 * MB)
        cache.insert("a", 10 * MB, wss_bytes=4 * MB)
        assert cache.occupancy_of("a") <= 1 * MB + 1

    def test_full_cache_evicts_others_proportionally(self):
        cache = make_cache(capacity=4 * MB)
        cache.insert("a", 3 * MB, wss_bytes=4 * MB)
        cache.insert("b", 1 * MB, wss_bytes=4 * MB)
        # cache is full; c's fills must displace a and b 3:1
        cache.insert("c", 2 * MB, wss_bytes=4 * MB)
        assert cache.total_occupancy <= cache.capacity_bytes + 1
        assert cache.occupancy_of("c") == pytest.approx(2 * MB)
        ratio = cache.occupancy_of("a") / cache.occupancy_of("b")
        assert ratio == pytest.approx(3.0, rel=0.01)

    def test_churn_pressure_evicts_neighbours(self):
        """A trashing actor at its target still displaces others."""
        cache = make_cache(capacity=4 * MB)
        cache.insert("victim", 2 * MB, wss_bytes=2 * MB)
        cache.insert("trasher", 2 * MB, wss_bytes=64 * MB)
        before = cache.occupancy_of("victim")
        cache.insert("trasher", 8 * MB, wss_bytes=64 * MB)
        assert cache.occupancy_of("victim") < before

    def test_evict_actor_frees_space(self):
        cache = make_cache()
        cache.insert("a", 1 * MB, wss_bytes=4 * MB)
        freed = cache.evict_actor("a")
        assert freed == pytest.approx(1 * MB)
        assert cache.occupancy_of("a") == 0.0
        assert cache.total_occupancy == pytest.approx(0.0)

    def test_flush(self):
        cache = make_cache()
        cache.insert("a", 1 * MB, wss_bytes=4 * MB)
        cache.flush()
        assert cache.total_occupancy == 0.0
        assert cache.actors() == []

    def test_zero_insert_is_noop(self):
        cache = make_cache()
        cache.insert("a", 0, wss_bytes=4 * MB)
        assert cache.occupancy_of("a") == 0.0


class TestHitProbability:
    def test_zero_wss_always_hits(self):
        cache = make_cache()
        assert cache.hit_probability("a", 0) == 1.0

    def test_cold_actor_misses(self):
        cache = make_cache()
        assert cache.hit_probability("a", 4 * MB) == 0.0

    def test_fully_resident_hits(self):
        cache = make_cache()
        cache.insert("a", 4 * MB, wss_bytes=4 * MB)
        assert cache.hit_probability("a", 4 * MB) == pytest.approx(1.0)

    def test_concave_reuse_curve(self):
        cache = make_cache(exponent=0.5)
        cache.insert("a", 1 * MB, wss_bytes=4 * MB)
        assert cache.hit_probability("a", 4 * MB) == pytest.approx(
            math.sqrt(0.25)
        )

    def test_uniform_exponent_recovers_linear(self):
        cache = make_cache(exponent=1.0)
        cache.insert("a", 1 * MB, wss_bytes=4 * MB)
        assert cache.hit_probability("a", 4 * MB) == pytest.approx(0.25)

    def test_invalid_exponent(self):
        with pytest.raises(ValueError):
            SharedCache(1 * MB, reuse_exponent=0.0)
        with pytest.raises(ValueError):
            SharedCache(1 * MB, reuse_exponent=1.5)


class TestIntegration:
    def test_no_memory_profile_runs_at_base_cpi(self):
        cache = make_cache()
        profile = MemoryProfile(base_cpi_ns=0.5)
        seg = integrate_duration(cache, "a", profile, 1000.0, 12.0, 80.0)
        assert seg.instructions == pytest.approx(2000.0)
        assert seg.llc_refs == 0.0
        assert seg.llc_misses == 0.0

    def test_cold_cache_slower_than_warm(self):
        profile = MemoryProfile(wss_bytes=4 * MB, llc_ref_rate=0.02)
        cold = make_cache()
        seg_cold = integrate_duration(cold, "a", profile, 1e6, 12.0, 80.0)
        warm = make_cache()
        warm.insert("a", 4 * MB, wss_bytes=4 * MB)
        seg_warm = integrate_duration(warm, "a", profile, 1e6, 12.0, 80.0)
        assert seg_warm.instructions > seg_cold.instructions

    def test_integration_warms_the_cache(self):
        cache = make_cache()
        profile = MemoryProfile(wss_bytes=2 * MB, llc_ref_rate=0.02)
        integrate_duration(cache, "a", profile, 20e6, 12.0, 80.0)
        assert cache.occupancy_of("a") > 0

    def test_zero_duration(self):
        cache = make_cache()
        seg = integrate_duration(
            cache, "a", MemoryProfile(), 0.0, 12.0, 80.0
        )
        assert seg.instructions == 0.0

    def test_instruction_driven_matches_duration_driven(self):
        """Running N instructions takes the time the estimate predicts,
        within sub-step discretisation error."""
        profile = MemoryProfile(wss_bytes=2 * MB, llc_ref_rate=0.02)
        warm = make_cache()
        warm.insert("a", 2 * MB, wss_bytes=2 * MB)
        duration = estimate_duration_ns(warm, "a", profile, 1e7, 12.0, 80.0)
        seg = integrate_duration(warm, "a", profile, duration, 12.0, 80.0)
        assert seg.instructions == pytest.approx(1e7, rel=1e-9)
        # from a cold cache the estimate keeps the cold hit rate for the
        # whole burst, but the integration warms up and retires more
        cold = make_cache()
        duration = estimate_duration_ns(cold, "a", profile, 1e7, 12.0, 80.0)
        seg = integrate_duration(cold, "a", profile, duration, 12.0, 80.0)
        assert seg.instructions > 1e7

    def test_estimate_is_nonmutating(self):
        cache = make_cache()
        profile = MemoryProfile(wss_bytes=2 * MB, llc_ref_rate=0.02)
        estimate_duration_ns(cache, "a", profile, 1e6, 12.0, 80.0)
        assert cache.occupancy_of("a") == 0.0

    def test_misses_bounded_by_refs(self):
        cache = make_cache()
        profile = MemoryProfile(wss_bytes=16 * MB, llc_ref_rate=0.05)
        seg = integrate_duration(cache, "a", profile, 5e6, 12.0, 80.0)
        assert 0 <= seg.llc_misses <= seg.llc_refs


@settings(max_examples=60, deadline=None)
@given(
    inserts=st.lists(
        st.tuples(
            st.sampled_from(["a", "b", "c", "d"]),
            st.floats(min_value=0, max_value=16 * MB),
            st.integers(min_value=0, max_value=64 * MB),
        ),
        max_size=30,
    )
)
def test_occupancy_invariants_hold_under_any_insert_sequence(inserts):
    """Total occupancy never exceeds capacity; per-actor never exceeds
    min(wss, capacity); everything stays non-negative."""
    cache = SharedCache(8 * MB)
    max_wss: dict[str, int] = {}
    for actor, nbytes, wss in inserts:
        max_wss[actor] = max(max_wss.get(actor, 0), wss)
        cache.insert(actor, nbytes, wss_bytes=wss)
        assert cache.total_occupancy <= cache.capacity_bytes * (1 + 1e-9)
        for other in cache.actors():
            occ = cache.occupancy_of(other)
            assert occ >= 0
        occ = cache.occupancy_of(actor)
        # occupancy never exceeds the largest working set the actor has
        # declared (a shrunk wss leaves stale lines behind, evicted by
        # others over time)
        assert occ <= min(max_wss[actor], cache.capacity_bytes) + 1e-6


@settings(max_examples=40, deadline=None)
@given(
    wss=st.integers(min_value=64, max_value=32 * MB),
    duration=st.floats(min_value=1.0, max_value=1e8),
    rate=st.floats(min_value=0.0, max_value=0.1),
)
def test_integration_outputs_are_finite_and_consistent(wss, duration, rate):
    cache = SharedCache(8 * MB)
    profile = MemoryProfile(wss_bytes=wss, llc_ref_rate=rate)
    seg = integrate_duration(cache, "a", profile, duration, 12.0, 80.0)
    assert math.isfinite(seg.instructions) and seg.instructions >= 0
    assert seg.llc_refs == pytest.approx(seg.instructions * rate, rel=1e-6)
    assert 0 <= seg.llc_misses <= seg.llc_refs + 1e-9
    assert seg.elapsed_ns == pytest.approx(duration)

"""Churn timelines through the sweep engine: keys and equivalence.

Timelines are part of the cell's cache key: two stories differing in a
*single* event's time or kind must hash to different keys, otherwise
the result cache would replay the wrong simulation.  And churn cells,
like every other cell, must be serial/parallel/cache equivalent.
The adaptation metrics a churn cell derives from the AQL decision log
are pinned per event for two short stories.
"""

from dataclasses import replace as dc_replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamics import (
    ChurnTimeline,
    PcpuOffline,
    PcpuOnline,
    random_timeline,
)
from repro.exec import Cell, ResultCache, SweepRunner
from repro.experiments.churn import (
    BASE,
    ChurnStory,
    PhaseChange,
    VmBoot,
    VmShutdown,
    make_stories,
    run_churn_cell,
)
from repro.sim.units import MS

SALT = "test-salt"


def _timeline(seed: int) -> ChurnTimeline:
    return random_timeline(
        seed=seed,
        n_events=5,
        base_vms=tuple((member.name, member.mode) for member in BASE),
        pcpus=2,
        start_ns=200 * MS,
        spacing_ns=200 * MS,
    )


def _key(timeline: ChurnTimeline) -> str:
    story = ChurnStory("keyed", BASE, timeline)
    cell = Cell(
        run_churn_cell,
        dict(
            story=story,
            policy_name="xen",
            warmup_ns=100 * MS,
            measure_ns=timeline.duration_ns + 100 * MS,
            seed=1,
        ),
    )
    return cell.cache_key(SALT)


class TestTimelineCacheKeys:
    def test_equal_timelines_share_a_key(self):
        assert _key(_timeline(3)) == _key(_timeline(3))

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        index=st.integers(min_value=0, max_value=4),
        bump=st.integers(min_value=1, max_value=10 * MS),
    )
    def test_one_event_time_shift_changes_key(self, seed, index, bump):
        timeline = _timeline(seed)
        events = list(timeline.events)
        index %= len(events)
        events[index] = dc_replace(
            events[index], at_ns=events[index].at_ns + bump
        )
        assert _key(timeline) != _key(ChurnTimeline(tuple(events)))

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        index=st.integers(min_value=0, max_value=4),
    )
    def test_one_event_kind_swap_changes_key(self, seed, index):
        timeline = _timeline(seed)
        events = list(timeline.events)
        index %= len(events)
        old = events[index]
        # same instant, different event class: only class identity in
        # the canonical form separates the keys
        substitute = (
            PcpuOffline(old.at_ns, cpu_id=0)
            if not isinstance(old, PcpuOffline)
            else PcpuOnline(old.at_ns, cpu_id=0)
        )
        events[index] = substitute
        assert _key(timeline) != _key(ChurnTimeline(tuple(events)))

    def test_same_fields_different_kind_distinct(self):
        # VmBoot/VmShutdown/PhaseChange share (at_ns, name[, mode])
        boot = ChurnTimeline((VmBoot(200 * MS, name="cpu0", mode="io"),))
        down = ChurnTimeline((VmShutdown(200 * MS, name="cpu0"),))
        phase = ChurnTimeline((PhaseChange(200 * MS, name="cpu0", mode="io"),))
        keys = {_key(boot), _key(down), _key(phase)}
        assert len(keys) == 3


def _equivalence_cells():
    stories = (
        ChurnStory(
            "mini-arrive",
            BASE,
            ChurnTimeline(
                (
                    VmBoot(200 * MS, name="dyn0", mode="io"),
                    VmShutdown(400 * MS, name="mem0"),
                )
            ),
        ),
        ChurnStory(
            "mini-phase",
            BASE,
            ChurnTimeline((PhaseChange(200 * MS, name="cpu1", mode="io"),)),
        ),
    )
    cells = []
    for story in stories:
        for policy_name in ("xen", "aql"):
            cells.append(
                Cell(
                    run_churn_cell,
                    dict(
                        story=story,
                        policy_name=policy_name,
                        warmup_ns=200 * MS,
                        measure_ns=story.timeline.duration_ns + 300 * MS,
                        seed=3,
                    ),
                    label=f"{story.name}:{policy_name}",
                )
            )
    return cells


class TestChurnCellEquivalence:
    def test_serial_parallel_identical(self):
        serial = SweepRunner(jobs=1).run(_equivalence_cells())
        parallel = SweepRunner(jobs=2).run(_equivalence_cells())
        assert len(serial) == len(parallel) == 4
        for ours, theirs in zip(serial, parallel):
            # ChurnRun is a plain dataclass: exact equality, floats and all
            assert ours == theirs

    def test_cache_replay_identical(self, tmp_path):
        cold = SweepRunner(jobs=1, cache=ResultCache(root=tmp_path))
        first = cold.run(_equivalence_cells())
        assert cold.cache.stats.misses == 4
        warm = SweepRunner(jobs=1, cache=ResultCache(root=tmp_path))
        second = warm.run(_equivalence_cells())
        assert warm.cache.stats.hits == 4
        for ours, theirs in zip(first, second):
            assert ours == theirs


class TestAdaptationRecordPins:
    """``build_records`` output for AQL over two fast scripted stories:
    (event, detection_ms, convergence_periods, stable, migrations)."""

    EXPECTED = {
        "arrivals": [
            ("boot dyn0 (io)", 80.0, 1, True, 2),
            ("boot dyn1 (llco)", 40.0, 4, False, 2),
            ("shutdown mem0", None, 0, True, 2),
        ],
        "phases": [
            ("phase cpu1 -> io", 200.0, 2, True, 2),
            ("spike io0 x4", None, 0, True, 0),
            ("phase cpu1 -> llcf", 120.0, 1, True, 2),
        ],
    }

    def test_aql_records_match_pins(self):
        stories = {story.name: story for story in make_stories(fast=True)}
        for name, expected in self.EXPECTED.items():
            story = stories[name]
            run = run_churn_cell(
                story, "aql", 600 * MS,
                story.timeline.duration_ns + 400 * MS, seed=0,
            )
            observed = [
                (
                    record.event,
                    record.detection_ms,
                    record.convergence_periods,
                    record.stable,
                    record.migrations,
                )
                for record in run.records
            ]
            assert observed == expected, name

"""Progress contracts: the per-cell line format and the ETA arithmetic.

:class:`repro.exec.progress.ProgressPrinter` writes one stderr line per
finished cell; ``TestProgressPrinterLines`` pins its exact shape
(width padding, the ``[stage]`` prefix, every outcome) with wall
seconds replaced by a fake so the lines are deterministic.

The old inline ETA math in the progress printer divided by the number
of finished cells — zero until the first completion — and could go
negative when a resumed run's replay storm outpaced the wall clock.
:class:`repro.exec.progress.EtaTracker` owns that arithmetic now, with
the clamps these tests pin.
"""

from __future__ import annotations

import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exec import Engine, ProgressPrinter, ResultCache, SweepRunner
from repro.exec.progress import EtaTracker

from tests.engine_cells import make_cells


@pytest.fixture
def fake_seconds(monkeypatch):
    """Executed cells report ``n + 0.5`` seconds instead of wall time."""

    def fake_profiled_call(fn, kwargs):
        return fn(**kwargs), kwargs["n"] + 0.5, {}

    monkeypatch.setattr(
        "repro.exec.engine.profiled_call", fake_profiled_call
    )


class TestProgressPrinterLines:
    def test_flat_sweep_pads_the_index_to_the_total_width(
        self, fake_seconds
    ):
        stream = io.StringIO()
        SweepRunner(jobs=1, sinks=[ProgressPrinter(stream)]).run(
            make_cells(12)
        )
        assert stream.getvalue().splitlines() == [
            f"[{i + 1:2d}/12] ran arith:{i} ({i + 0.5:.2f}s)"
            for i in range(12)
        ]

    def test_stage_sweep_prefixes_every_outcome(
        self, fake_seconds, tmp_path
    ):
        cells = make_cells(3)
        # cell 0 journalled in a run directory, cell 1 in the cache
        first = Engine(jobs=1, run_root=tmp_path / "runs")
        first.run(cells[:1])
        run_id = first.run_dir.run_id
        first.close()
        SweepRunner(jobs=1, cache=ResultCache(root=tmp_path / "cache")).run(
            cells[1:2]
        )
        stream = io.StringIO()
        SweepRunner(
            jobs=1,
            cache=ResultCache(root=tmp_path / "cache"),
            run_root=tmp_path / "runs",
            run_id=run_id,
            sinks=[ProgressPrinter(stream)],
        ).run(cells, stage="epoch 1/2")
        assert stream.getvalue().splitlines() == [
            "[epoch 1/2] [1/3] resumed arith:0 (0.00s)",
            "[epoch 1/2] [2/3] hit arith:1 (0.00s)",
            "[epoch 1/2] [3/3] ran arith:2 (2.50s)",
        ]


class TestEtaTracker:
    def test_no_samples_means_no_estimate(self):
        tracker = EtaTracker()
        assert tracker.rate() is None
        assert tracker.estimate(10) is None  # never a ZeroDivisionError

    def test_cached_outcomes_do_not_feed_the_rate(self):
        """A resume replaying 1000 cells in ~0s must not project a
        near-zero ETA for the cells that still have to execute."""
        tracker = EtaTracker()
        for _ in range(1000):
            tracker.note("resumed", 0.0)
            tracker.note("hit", 0.0)
        assert tracker.rate() is None
        assert tracker.estimate(5) is None

    def test_rate_is_mean_of_ran_seconds(self):
        tracker = EtaTracker()
        tracker.note("ran", 2.0)
        tracker.note("ran", 4.0)
        assert tracker.rate() == pytest.approx(3.0)
        assert tracker.estimate(10) == pytest.approx(30.0)

    def test_zero_remaining_is_zero_eta(self):
        tracker = EtaTracker()
        assert tracker.estimate(0) == 0.0  # even with no samples
        tracker.note("ran", 5.0)
        assert tracker.estimate(0) == 0.0

    def test_negative_remaining_clamps_to_zero(self):
        """A stale cells-hint smaller than the done count must not
        produce a negative ETA."""
        tracker = EtaTracker()
        tracker.note("ran", 5.0)
        assert tracker.estimate(-3) == 0.0

    def test_negative_seconds_clamp_at_note_time(self):
        """A clock-step backwards (NTP) cannot poison the mean."""
        tracker = EtaTracker()
        tracker.note("ran", -1.0)
        tracker.note("ran", 3.0)
        rate = tracker.rate()
        assert rate is not None and rate >= 0.0
        estimate = tracker.estimate(4)
        assert estimate is not None and estimate >= 0.0

    @given(
        samples=st.lists(
            st.tuples(
                st.sampled_from(["ran", "hit", "resumed"]),
                st.floats(
                    min_value=-10.0,
                    max_value=10.0,
                    allow_nan=False,
                    allow_infinity=False,
                ),
            ),
            max_size=50,
        ),
        remaining=st.integers(min_value=-5, max_value=100),
    )
    def test_estimate_is_never_negative(self, samples, remaining):
        tracker = EtaTracker()
        for outcome, seconds in samples:
            tracker.note(outcome, seconds)
        estimate = tracker.estimate(remaining)
        assert estimate is None or estimate >= 0.0

"""Differential equivalence: the event queue vs a naive reference.

The tuple-heap queue in :mod:`repro.sim.engine` must be
*observationally identical* to the obviously-correct scheduler: a
sorted list popped from the front.  Hypothesis generates schedules of
``at``/``after``/``cancel``/``run_until``/``step`` operations
(including callbacks that schedule follow-up events mid-run), and the
simulator must produce the same fire order, fire times, clock
positions, ``peek_time`` answers and ``events_fired`` counts as the
reference.

The file also carries the regression tests for the engine's guards and
edge cases: ``run_until``/``step()`` re-entrancy, float truncation in
``at``/``after``, and lazy cancellation.
"""

from __future__ import annotations

import math
from bisect import insort

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Event, SimulationError, Simulator
from repro.sim.units import MS, US


# ----------------------------------------------------------------------
# the reference scheduler
# ----------------------------------------------------------------------
class ReferenceSimulator:
    """Sorted-list event loop — slow, simple, obviously correct.

    Mirrors the public surface of :class:`Simulator` that the
    differential driver exercises.  Entries are kept sorted by
    ``(time, seq)`` and popped from the front; cancellation is checked
    at fire time.
    """

    def __init__(self) -> None:
        self.now = 0
        self.events_fired = 0
        self._entries: list[tuple[int, int, Event]] = []
        self._seq = 0

    def at(self, time, fn, label=""):
        itime = int(time)
        if itime != time:
            raise SimulationError(f"non-integral time {time!r}")
        if itime < self.now:
            raise SimulationError(f"{itime} < now {self.now}")
        event = Event(itime, self._seq, fn, label)
        insort(self._entries, (itime, self._seq, event))
        self._seq += 1
        return event

    def after(self, delay, fn, label=""):
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        idelay = int(delay)
        if idelay != delay:
            raise SimulationError(f"non-integral delay {delay!r}")
        return self.at(self.now + idelay, fn, label)

    def run_until(self, end_time: int) -> None:
        if end_time < self.now:
            raise SimulationError("run_until in the past")
        while self._entries and self._entries[0][0] <= end_time:
            time, _, event = self._entries.pop(0)
            if event.cancelled:
                continue
            self.now = time
            self.events_fired += 1
            event.fn()
        self.now = end_time

    def step(self):
        while self._entries:
            time, _, event = self._entries.pop(0)
            if event.cancelled:
                continue
            self.now = time
            self.events_fired += 1
            event.fn()
            return event
        return None

    def peek_time(self):
        for time, _, event in self._entries:
            if not event.cancelled:
                return time
        return None

    @property
    def pending(self) -> int:
        return sum(1 for _, _, e in self._entries if not e.cancelled)


# ----------------------------------------------------------------------
# differential driver
# ----------------------------------------------------------------------
def _apply_schedule(sim, ops) -> list:
    """Run one op schedule against ``sim``; return the observation trace."""
    trace: list = []
    handles: list[Event] = []

    def logger(label):
        def fn():
            trace.append(("fire", sim.now, label))

        return fn

    def chained(label, follow_delay):
        def fn():
            trace.append(("fire", sim.now, label))
            sim.after(follow_delay, logger(label + "+"), label + "+")

        return fn

    for op in ops:
        kind = op[0]
        if kind == "at":
            label = f"e{len(handles)}"
            handles.append(sim.at(sim.now + op[1], logger(label), label))
        elif kind == "after":
            label = f"e{len(handles)}"
            handles.append(sim.after(op[1], logger(label), label))
        elif kind == "chain":
            label = f"e{len(handles)}"
            handles.append(
                sim.at(sim.now + op[1], chained(label, op[2]), label)
            )
        elif kind == "cancel":
            if handles:
                handles[op[1] % len(handles)].cancel()
        elif kind == "run":
            sim.run_until(sim.now + op[1])
        elif kind == "step":
            event = sim.step()
            trace.append(("step", sim.now, None if event is None else event.label))
        trace.append(("state", sim.now, sim.peek_time(), sim.pending))
    # drain everything still pending (chains included) and settle
    sim.run_until(sim.now + 500 * MS)
    trace.append(("end", sim.now, sim.events_fired, sim.pending))
    return trace


#: deltas mix sub-microsecond, millisecond and 150 ms scales so that
#: schedules interleave near and far events
_DELTA = st.one_of(
    st.integers(min_value=0, max_value=3 * US),
    st.integers(min_value=0, max_value=5 * MS),
    st.integers(min_value=0, max_value=150 * MS),
)

_OP = st.one_of(
    st.tuples(st.just("at"), _DELTA),
    st.tuples(st.just("after"), _DELTA),
    st.tuples(st.just("chain"), _DELTA, _DELTA),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=63)),
    st.tuples(st.just("run"), _DELTA),
    st.tuples(st.just("step")),
)


@settings(max_examples=200)
@given(ops=st.lists(_OP, max_size=40))
def test_kernels_match_reference(ops):
    """The simulator traces identically to the sorted-list reference."""
    reference = _apply_schedule(ReferenceSimulator(), ops)
    assert _apply_schedule(Simulator(), ops) == reference


@settings(max_examples=50)
@given(
    ops=st.lists(_OP, max_size=40),
    checkpoints=st.lists(st.integers(min_value=0, max_value=40 * MS), max_size=4),
)
def test_kernels_match_reference_with_chopped_runs(ops, checkpoints):
    """Equivalence holds when runs stop at arbitrary times."""
    ops = list(ops)
    for point in checkpoints:
        ops.append(("run", point))
    reference = _apply_schedule(ReferenceSimulator(), ops)
    assert _apply_schedule(Simulator(), ops) == reference


# ----------------------------------------------------------------------
# bug-fix satellites: step() re-entrancy, float truncation
# ----------------------------------------------------------------------
def test_step_rejects_reentrancy():
    """A callback stepping the engine must fail loudly, not corrupt time."""
    sim = Simulator()
    failures: list[SimulationError] = []

    def reenter():
        try:
            sim.step()
        except SimulationError as exc:
            failures.append(exc)

    sim.at(5, reenter)
    sim.step()
    assert len(failures) == 1
    assert "re-entrant" in str(failures[0])
    # the guard is released: stepping afterwards works normally
    sim.at(10, lambda: None)
    event = sim.step()
    assert event is not None and sim.now == 10


def test_run_until_rejects_reentrancy():
    sim = Simulator()
    failures: list[SimulationError] = []

    def reenter():
        try:
            sim.run_until(sim.now + 5)
        except SimulationError as exc:
            failures.append(exc)

    sim.at(1, reenter)
    sim.run_until(10)
    assert len(failures) == 1


def test_at_and_after_reject_non_integral_times():
    sim = Simulator()
    with pytest.raises(SimulationError, match="non-integral"):
        sim.at(1.5, lambda: None)
    with pytest.raises(SimulationError, match="non-integral"):
        sim.after(2.25, lambda: None)
    # integral floats are fine and land on the integer clock
    fired = []
    sim.at(5.0, lambda: fired.append(sim.now))
    sim.after(7.0, lambda: fired.append(sim.now))
    sim.run_until(20)
    assert fired == [5, 7]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_at_and_after_reject_non_finite_times(value):
    """NaN and infinities are a SimulationError, not a bare
    ValueError/OverflowError from ``int()``, and queue nothing."""
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.at(value, lambda: None, "bad")
    with pytest.raises(SimulationError):
        sim.after(value, lambda: None, "bad")
    assert sim.pending == 0 and sim.peek_time() is None


def test_run_until_rejects_non_integral_end_times():
    sim = Simulator()
    with pytest.raises(SimulationError, match="non-integral"):
        sim.run_until(1.5)
    assert sim.now == 0
    # an integral float leaves the clock an int, so later delays stay exact
    sim.run_until(5.0)
    assert sim.now == 5 and type(sim.now) is int
    fired = []
    sim.after(10, lambda: fired.append(sim.now))
    sim.run_until(20)
    assert fired == [15] and type(fired[0]) is int


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_run_until_rejects_non_finite_end_times(value):
    """No periodic event is armed, so a run to +inf would return (with
    the clock at inf) instead of looping forever."""
    sim = Simulator()
    fired = []
    sim.at(5, lambda: fired.append(sim.now))
    with pytest.raises(SimulationError, match="non-integral"):
        sim.run_until(value)
    assert sim.now == 0 and fired == []


# ----------------------------------------------------------------------
# cancellation edge cases
# ----------------------------------------------------------------------
def test_cancel_then_reschedule_same_cadence():
    sim = Simulator()
    fired = []
    first = sim.after(10 * MS, lambda: fired.append("old"), "old")
    first.cancel()
    sim.after(10 * MS, lambda: fired.append("new"), "new")
    sim.run_until(20 * MS)
    assert fired == ["new"]
    assert sim.events_fired == 1


def test_cancelled_head_is_skipped():
    sim = Simulator()
    fired = []
    head = sim.at(int(2.1 * MS), lambda: fired.append("head"), "head")
    sim.at(int(2.7 * MS), lambda: fired.append("tail"), "tail")
    head.cancel()
    assert sim.peek_time() == int(2.7 * MS)
    sim.run_until(3 * MS)
    assert fired == ["tail"]


def test_peek_time_tracks_the_earliest_live_event():
    sim = Simulator()
    sim.at(200 * MS, lambda: None, "far")
    sim.at(3 * MS, lambda: None, "near")
    assert sim.peek_time() == 3 * MS
    sim.run_until(5 * MS)
    assert sim.peek_time() == 200 * MS


def test_peek_time_skips_cancelled_entries():
    sim = Simulator()
    near = sim.at(3 * MS, lambda: None, "near")
    sim.at(40 * MS, lambda: None, "later")
    near.cancel()
    assert sim.peek_time() == 40 * MS
    assert sim.pending == 1


def test_cancel_during_run():
    """An event cancelled by an earlier-firing event never fires."""
    sim = Simulator()
    fired = []
    victim = sim.at(7 * MS, lambda: fired.append("victim"), "victim")
    sim.at(2 * MS, lambda: victim.cancel(), "killer")
    sim.run_until(20 * MS)
    assert fired == []
    assert sim.events_fired == 1

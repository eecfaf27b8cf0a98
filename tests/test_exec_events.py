"""The event-stream contract: typed round-trips, golden JSONL, validator.

Satellites of the engine work:

* a **golden snapshot** of a full engine narration (ran → resumed →
  hit), normalised for wall-clock noise, pinning the JSONL schema and
  its stable field order — ``pytest --update-golden`` rewrites it;
* unit tests for :func:`repro.exec.events.validate_events`, the same
  helper the CI ``engine-smoke`` job runs via ``python -m repro.exec``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.exec import Engine, JsonlSink, ResultCache
from repro.exec.cli import main as events_main
from repro.exec.events import (
    EVENT_TYPES,
    CellFinished,
    Finished,
    Interrupted,
    PhaseStarted,
    event_from_json,
    normalize_events,
    read_event_log,
    validate_events,
)
from tests.engine_cells import make_cells

GOLDEN = Path(__file__).parent / "golden" / "engine_events.jsonl"

#: serialisation identical to JsonlSink's, so the golden pins the
#: exact on-disk byte shape (field order included)
def _dump(record: dict) -> str:
    return json.dumps(record, separators=(", ", ": "))


def narrate(tmp_path: Path) -> list[dict]:
    """A deterministic three-act narration: ran, resumed, hit."""
    log = tmp_path / "events.jsonl"
    sink = JsonlSink(log)
    cache = ResultCache(root=tmp_path / "cache")
    cells = make_cells(2)

    # act 1: cold — every cell executes and checkpoints
    one = Engine(
        jobs=1, cache=cache, run_root=tmp_path / "runs",
        salt="golden-salt", sinks=[sink],
    )
    one.run(cells, stage="act1")
    # act 2: a fresh engine over the same run dir — pure journal replay
    two = Engine(
        jobs=1, run_root=tmp_path / "runs",
        salt="golden-salt", sinks=[sink],
    )
    two.run(cells, stage="act2")
    # act 3: no run dir, warm cache — hits
    three = Engine(jobs=1, cache=cache, salt="golden-salt", sinks=[sink])
    three.run(cells, stage="act3")
    # closing an engine closes its sinks — the shared log sink is
    # shared, so every engine stays open until the narration is done
    one.close()
    two.close()
    three.close()
    return read_event_log(log)


class TestGoldenSnapshot:
    def test_narration_matches_golden(self, tmp_path, update_golden):
        records = normalize_events(narrate(tmp_path))
        lines = [_dump(record) for record in records]
        if update_golden:
            GOLDEN.write_text("\n".join(lines) + "\n", encoding="utf-8")
            pytest.skip("golden rewritten")
        committed = GOLDEN.read_text(encoding="utf-8").splitlines()
        assert lines == committed, (
            "engine event narration drifted from the golden snapshot; "
            "run pytest --update-golden if the change is intentional"
        )

    def test_narration_is_valid_and_complete(self, tmp_path):
        records = narrate(tmp_path)
        assert validate_events(records) == []
        outcomes = [
            r["outcome"] for r in records
            if r.get("kind") == "cell_finished"
        ]
        assert outcomes == ["ran", "ran", "resumed", "resumed", "hit", "hit"]


class TestRoundTrip:
    def test_every_kind_round_trips(self):
        samples = [
            PhaseStarted(seq=0, phase="plan", stage="s", cells=3),
            CellFinished(
                seq=1, index=0, total=3, label="c", outcome="ran",
                seconds=0.25, key="k", stage="s",
            ),
            Interrupted(seq=2, completed=1, total=3, stage="s"),
            Finished(seq=3, cells=3, ran=2, hits=1, resumed=0),
        ]
        for event in samples:
            doc = event.to_json()
            assert list(doc)[0] == "kind"  # stable field order
            assert event_from_json(doc) == event

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            event_from_json({"kind": "nope", "seq": 0})

    def test_missing_required_field_rejected(self):
        with pytest.raises(ValueError, match="missing fields"):
            event_from_json({"kind": "finished", "seq": 0, "cells": 1})

    def test_registry_covers_all_kinds(self):
        assert set(EVENT_TYPES) == {
            "phase_started", "cell_scheduled", "cell_finished",
            "checkpoint_written", "interrupted", "finished",
        }


def _minimal_sweep(n_cells: int = 1, seq0: int = 0) -> list[dict]:
    events = []
    seq = seq0
    for phase in ("plan", "probe"):
        events.append({
            "kind": "phase_started", "seq": seq, "phase": phase,
            "stage": "", "cells": n_cells,
        })
        seq += 1
    events.append({
        "kind": "phase_started", "seq": seq, "phase": "execute",
        "stage": "", "cells": n_cells,
    })
    seq += 1
    for index in range(n_cells):
        events.append({
            "kind": "cell_scheduled", "seq": seq, "index": index,
            "label": f"c{index}", "key": None, "stage": "",
        })
        seq += 1
    for index in range(n_cells):
        events.append({
            "kind": "cell_finished", "seq": seq, "index": index,
            "total": n_cells, "label": f"c{index}", "outcome": "ran",
            "seconds": 0.1, "key": None, "stage": "",
        })
        seq += 1
    events.append({
        "kind": "phase_started", "seq": seq, "phase": "fold",
        "stage": "", "cells": n_cells,
    })
    seq += 1
    events.append({
        "kind": "finished", "seq": seq, "cells": n_cells,
        "ran": n_cells, "hits": 0, "resumed": 0, "stage": "",
    })
    return events


class TestValidator:
    def test_minimal_sweep_is_valid(self):
        assert validate_events(_minimal_sweep(2)) == []

    def test_empty_log_invalid(self):
        assert validate_events([]) == ["empty event log"]

    def test_must_open_with_plan(self):
        events = _minimal_sweep(1)[1:]
        assert any(
            "must open with phase_started(plan)" in p
            for p in validate_events(events)
        )

    def test_seq_must_be_monotone(self):
        events = _minimal_sweep(2)
        events[3]["seq"] = events[2]["seq"]
        assert any("not after" in p for p in validate_events(events))

    def test_cell_finishing_twice_flagged(self):
        events = _minimal_sweep(2)
        finished = [e for e in events if e["kind"] == "cell_finished"]
        finished[1]["index"] = finished[0]["index"]
        assert any("finished twice" in p for p in validate_events(events))

    def test_ran_requires_scheduled(self):
        events = [
            e for e in _minimal_sweep(1)
            if e["kind"] != "cell_scheduled"
        ]
        assert any(
            "ran without being scheduled" in p
            for p in validate_events(events)
        )

    def test_finished_counts_must_match(self):
        events = _minimal_sweep(2)
        events[-1]["ran"] = 7
        assert any(
            "finished counts" in p for p in validate_events(events)
        )

    def test_truncated_tail_needs_partial(self):
        events = _minimal_sweep(2)[:-2]  # lost fold + finished
        assert any(
            "no terminal event" in p for p in validate_events(events)
        )
        assert validate_events(events, partial=True) == []

    def test_crash_then_restart_segments_cleanly(self):
        """A killed sweep followed by a seq-0 restart is one valid log."""
        killed = _minimal_sweep(3)[:-4]  # died mid-execute
        resumed = _minimal_sweep(3, seq0=0)
        assert validate_events(killed + resumed) == []

    def test_second_sweep_of_same_engine_continues_seq(self):
        first = _minimal_sweep(1)
        second = _minimal_sweep(1, seq0=first[-1]["seq"] + 1)
        assert validate_events(first + second) == []

    def test_seq_jump_between_engines_flagged(self):
        first = _minimal_sweep(1)
        second = _minimal_sweep(1, seq0=first[-1]["seq"] + 10)
        assert any(
            "neither continues" in p
            for p in validate_events(first + second)
        )


class TestLogIo:
    def test_truncated_final_line_tolerated(self, tmp_path):
        log = tmp_path / "events.jsonl"
        lines = [_dump(e) for e in _minimal_sweep(1)]
        log.write_text("\n".join(lines) + '\n{"kind": "fini', "utf-8")
        records = read_event_log(log)
        assert len(records) == len(lines)
        assert validate_events(records) == []

    def test_corrupt_middle_line_raises(self, tmp_path):
        log = tmp_path / "events.jsonl"
        lines = [_dump(e) for e in _minimal_sweep(1)]
        lines.insert(2, "not json")
        log.write_text("\n".join(lines) + "\n", "utf-8")
        with pytest.raises(json.JSONDecodeError):
            read_event_log(log)

    def test_cli_validates(self, tmp_path, capsys):
        log = tmp_path / "events.jsonl"
        log.write_text(
            "\n".join(_dump(e) for e in _minimal_sweep(2)) + "\n", "utf-8"
        )
        assert events_main([str(log)]) == 0
        broken = tmp_path / "broken.jsonl"
        broken.write_text(
            "\n".join(_dump(e) for e in _minimal_sweep(2)[1:]) + "\n",
            "utf-8",
        )
        assert events_main([str(broken)]) == 1
        out = capsys.readouterr().out
        assert "INVALID" in out

    def test_cli_reports_a_damaged_log(self, tmp_path, capsys):
        """A malformed line before the last is an error naming the
        file and line, not a traceback; so is a line that is JSON but
        not an object."""
        lines = [_dump(e) for e in _minimal_sweep(2)]
        for line_no, damage in ((3, "not json"), (2, "[1]")):
            log = tmp_path / f"damaged-{line_no}.jsonl"
            damaged = list(lines)
            damaged[line_no - 1] = damage
            log.write_text("\n".join(damaged) + "\n", "utf-8")
            assert events_main([str(log)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: {log}: ")
            assert f": line {line_no} column 1 " in captured.err

    def test_module_entry_point_runs_clean(self, tmp_path):
        """``python -m repro.exec`` writes only its summary: no runpy
        warning about a module the package already imported."""
        log = tmp_path / "events.jsonl"
        log.write_text(
            "\n".join(_dump(e) for e in _minimal_sweep(2)) + "\n", "utf-8"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        done = subprocess.run(
            [sys.executable, "-m", "repro.exec", str(log)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 0
        assert done.stderr == ""
        assert done.stdout.startswith(f"{log}: ")

    def test_normalize_strips_noise_only(self):
        records = [{
            "kind": "cell_finished", "seq": 0, "index": 0, "total": 1,
            "label": "c", "outcome": "ran", "seconds": 1.23,
            "key": "abc123", "stage": "s",
        }]
        [normalised] = normalize_events(records)
        assert normalised["seconds"] == 0.0
        assert normalised["key"] == "<key>"
        assert normalised["label"] == "c"
        assert list(normalised) == list(records[0])  # order kept

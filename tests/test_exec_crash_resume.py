"""Crash consistency: SIGKILL a sweep mid-run, resume, lose nothing.

The headline guarantee of the execution engine (DESIGN.md §14): a run
killed at *any* cell boundary resumes from its event log and
folds to the byte-identical result of an uninterrupted run, with no
completed cell executed twice.  These tests kill a real process —
``python -m tests.engine_cells`` with ``REPRO_ENGINE_KILL_AFTER=N``
SIGKILLs itself right after the Nth checkpoint is durable — at several
randomized (but seeded) cell boundaries, then resume and verify:

* the folded results pickle is byte-identical to the uninterrupted
  run's;
* the event log after the kill holds exactly N ``checkpoint_written``
  records, and the resumed run reports exactly those N keys as
  ``resumed`` — zero re-executions of completed work;
* the combined event log (kill segment + resume segment) passes the
  stream contract validator.
"""

import json
import os
import pickle
import random
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.exec import read_event_log, validate_events
from repro.ops.status import fold_log

REPO_ROOT = Path(__file__).resolve().parent.parent

CELLS = 8
JOBS = 2

#: randomized kill points, seeded so failures reproduce: at least
#: three distinct cell boundaries strictly inside the sweep
KILL_POINTS = sorted(random.Random(20260808).sample(range(1, CELLS), 3))


def drive(
    run_root: Path, fold_out: Path, kill_after=None, jobs=JOBS, extra=()
):
    """One ``tests.engine_cells`` sweep in a real subprocess."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.pop("REPRO_ENGINE_KILL_AFTER", None)
    env.pop("REPRO_JOBS", None)
    env.pop("REPRO_SERVE", None)
    if kill_after is not None:
        env["REPRO_ENGINE_KILL_AFTER"] = str(kill_after)
    return subprocess.run(
        [
            sys.executable, "-m", "tests.engine_cells",
            "--run-root", str(run_root),
            "--cells", str(CELLS),
            "--jobs", str(jobs),
            "--fold-out", str(fold_out),
            *extra,
        ],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def the_run_dir(run_root: Path) -> Path:
    runs = [p for p in run_root.iterdir() if p.is_dir()]
    assert len(runs) == 1, f"expected one run dir, found {runs}"
    return runs[0]


def folded(run_root: Path) -> dict:
    """The run's status as ``attach`` folds it from the log."""
    records = read_event_log(the_run_dir(run_root) / "events.jsonl")
    return fold_log(records).document()


def checkpoints(run_root: Path) -> list[dict]:
    """The run's ``checkpoint_written`` records: its journal."""
    records = read_event_log(the_run_dir(run_root) / "events.jsonl")
    return [r for r in records if r.get("kind") == "checkpoint_written"]


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    """The reference: one clean run's folded pickle bytes."""
    root = tmp_path_factory.mktemp("clean")
    fold = root / "fold.pkl"
    proc = drive(root / "runs", fold, kill_after=None)
    assert proc.returncode == 0, proc.stderr
    return fold.read_bytes()


@pytest.mark.parametrize("kill_after", KILL_POINTS)
def test_kill_and_resume_is_byte_identical(
    tmp_path, uninterrupted, kill_after
):
    run_root = tmp_path / "runs"
    fold = tmp_path / "fold.pkl"

    # ---- the kill: SIGKILL right after checkpoint N is durable -----
    killed = drive(run_root, fold, kill_after=kill_after)
    assert killed.returncode == -signal.SIGKILL, (
        f"expected SIGKILL death, got rc={killed.returncode}\n"
        f"{killed.stderr}"
    )
    assert not fold.exists(), "a killed run must not publish a fold"
    journal = checkpoints(run_root)
    assert len(journal) == kill_after, (
        "the log must hold exactly the cells checkpointed before the "
        f"kill: expected {kill_after}, found {len(journal)}"
    )

    # ---- the resume: same sweep, same run root ---------------------
    resumed = drive(run_root, fold, kill_after=None)
    assert resumed.returncode == 0, resumed.stderr
    assert fold.read_bytes() == uninterrupted, (
        "resumed fold must be byte-identical to the uninterrupted run"
    )

    # ---- no completed cell executed twice (via the event log) ------
    records = read_event_log(the_run_dir(run_root) / "events.jsonl")
    assert validate_events(records) == []
    segments_resumed = [
        r for r in records
        if r.get("kind") == "cell_finished" and r.get("outcome") == "resumed"
    ]
    segments_ran = [
        r for r in records
        if r.get("kind") == "cell_finished" and r.get("outcome") == "ran"
    ]
    journalled_keys = {record["key"] for record in journal}
    resumed_keys = {r["key"] for r in segments_resumed}
    assert resumed_keys == journalled_keys, (
        "the resume must replay exactly the journalled cells"
    )
    # every key executed at most once across the whole history
    ran_keys = [r["key"] for r in segments_ran]
    assert len(ran_keys) == len(set(ran_keys)), (
        f"some cell executed twice: {ran_keys}"
    )
    assert len(set(ran_keys) & journalled_keys) == kill_after, (
        "the kill-run's executed cells are the journalled ones"
    )
    # the resume segment executed only what was left
    assert len(segments_resumed) == kill_after
    assert len(ran_keys) == CELLS


def test_kill_points_cover_distinct_boundaries():
    """The suite genuinely exercises >= 3 different cell boundaries."""
    assert len(set(KILL_POINTS)) >= 3
    assert all(1 <= k < CELLS for k in KILL_POINTS)


def test_second_resume_is_pure_replay(tmp_path, uninterrupted):
    """Resuming a *finished* run re-executes nothing at all."""
    run_root = tmp_path / "runs"
    fold = tmp_path / "fold.pkl"
    first = drive(run_root, fold, kill_after=None)
    assert first.returncode == 0, first.stderr

    again = drive(run_root, fold, kill_after=None)
    assert again.returncode == 0, again.stderr
    assert fold.read_bytes() == uninterrupted
    records = read_event_log(the_run_dir(run_root) / "events.jsonl")
    assert validate_events(records) == []
    outcomes = [
        r["outcome"] for r in records if r.get("kind") == "cell_finished"
    ]
    assert outcomes.count("ran") == CELLS  # the first run only
    assert outcomes.count("resumed") == CELLS  # the second, entirely


def test_worker_crash_dumps_a_valid_flight_record(tmp_path):
    """A worker SIGKILLed mid-sweep (pool crash, parent survives) must
    leave the run's flight record in its run directory: an
    ``events.jsonl`` the partial validator accepts, ending in the
    crash, whose fold names the same reason."""
    run_root = tmp_path / "runs"
    fold = tmp_path / "fold.pkl"
    crashed = drive(run_root, fold, extra=["--die-at", "3"])
    assert crashed.returncode == 3, (
        f"expected the driver's worker-crash exit code 3, got "
        f"rc={crashed.returncode}\n{crashed.stderr}"
    )
    assert not fold.exists(), "a crashed run must not publish a fold"

    run_dir = the_run_dir(run_root)
    records = read_event_log(run_dir / "events.jsonl")
    assert validate_events(records, partial=True) == [], (
        "a crashed run's event log must pass the partial validator"
    )
    assert records[-1]["kind"] == "interrupted"
    assert records[-1]["reason"] == "worker-crash"

    # the status attach folds from the log agrees
    assert fold_log(records).interrupted == "worker-crash"


def test_status_json_consistent_with_journal(tmp_path, uninterrupted):
    """The status folded from the log claims exactly the progress the
    log's checkpoint records hold — after a SIGKILL and again after the
    clean resume.  (That the live fold never runs ahead of the log is
    checked at every event, in process, by
    ``tests/test_ops_plane.py::TestOneFoldTwoFeeds``.)"""
    kill_after = KILL_POINTS[0]
    run_root = tmp_path / "runs"
    fold = tmp_path / "fold.pkl"

    killed = drive(run_root, fold, kill_after=kill_after)
    assert killed.returncode == -signal.SIGKILL, killed.stderr
    journal_lines = len(checkpoints(run_root))
    status = folded(run_root)
    checkpointed = status["cells"]["checkpointed"]
    assert checkpointed == journal_lines == kill_after, (
        f"the fold claims {checkpointed} checkpointed cells but the "
        f"log holds {journal_lines}"
    )
    assert status["cells"]["done"] == kill_after
    assert status["cells"]["fold_lag"] == 0

    resumed = drive(run_root, fold, kill_after=None)
    assert resumed.returncode == 0, resumed.stderr
    assert fold.read_bytes() == uninterrupted
    journal_lines = len(checkpoints(run_root))
    status = folded(run_root)
    assert status["cells"]["checkpointed"] == journal_lines == CELLS
    assert status["cells"]["done"] == CELLS
    assert status["interrupted"] is None
    assert status["sweeps_finished"] == 1
    assert status["phase"] == "fold"  # the last phase a clean run enters


def test_killed_run_leaves_no_temp_files(tmp_path):
    """SIGKILL mid-sweep never strands atomic-write temp files for
    the resume to trip over (they are swept on run-dir open)."""
    run_root = tmp_path / "runs"
    fold = tmp_path / "fold.pkl"
    killed = drive(run_root, fold, kill_after=2)
    assert killed.returncode == -signal.SIGKILL
    resumed = drive(run_root, fold, kill_after=None)
    assert resumed.returncode == 0, resumed.stderr
    stranded = list(run_root.rglob(".tmp-*"))
    assert stranded == []


def test_run_dir_resumes_from_its_event_log_alone(tmp_path, uninterrupted):
    """A run directory holds one log: its ``events.jsonl`` is the
    checkpoint journal and its only status record, and the run resumes
    exactly the checkpointed cells from it."""
    kill_after = KILL_POINTS[1]
    run_root = tmp_path / "runs"
    fold = tmp_path / "fold.pkl"
    killed = drive(run_root, fold, kill_after=kill_after)
    assert killed.returncode == -signal.SIGKILL, killed.stderr
    run_dir = the_run_dir(run_root)
    assert sorted(p.name for p in run_dir.iterdir()) == [
        "events.jsonl", "manifest.json", "results",
    ]
    keys = {r["key"] for r in checkpoints(run_root)}
    assert len(keys) == kill_after

    resumed = drive(run_root, fold, kill_after=None)
    assert resumed.returncode == 0, resumed.stderr
    assert fold.read_bytes() == uninterrupted
    records = read_event_log(run_dir / "events.jsonl")
    assert {
        r["key"] for r in records
        if r.get("kind") == "cell_finished" and r.get("outcome") == "resumed"
    } == keys


def test_torn_log_tail_is_cut_before_a_resume_appends(
    tmp_path, uninterrupted
):
    """A half-written last line (a crash mid-write) is cut when the run
    directory reopens its log: two resumes later the fold is
    byte-identical, every line parses, and the validator accepts the
    log.  Appending onto the torn tail would merge the next record
    into it, and the second resume's log would no longer parse."""
    kill_after = KILL_POINTS[0]
    run_root = tmp_path / "runs"
    fold = tmp_path / "fold.pkl"
    killed = drive(run_root, fold, kill_after=kill_after)
    assert killed.returncode == -signal.SIGKILL, killed.stderr
    log = the_run_dir(run_root) / "events.jsonl"
    intact = log.read_bytes()
    with open(log, "ab") as handle:
        handle.write(b'{"kind": "checkpoint_written", "seq": 9')

    for _ in range(2):
        resumed = drive(run_root, fold, kill_after=None)
        assert resumed.returncode == 0, resumed.stderr
        assert fold.read_bytes() == uninterrupted
    data = log.read_bytes()
    assert data.startswith(intact + b'{"kind": "phase_started", "seq": 0')
    lines = data.decode("utf-8").splitlines()
    assert [json.loads(line)["kind"] for line in lines]  # all parse
    records = read_event_log(log)
    assert len(records) == len(lines)
    assert validate_events(records, partial=True) == []
    outcomes = [
        r["outcome"] for r in records if r.get("kind") == "cell_finished"
    ]
    # first resume: kill_after replayed, the rest ran; second: all replayed
    assert outcomes.count("resumed") == kill_after + CELLS
    assert outcomes.count("ran") == CELLS

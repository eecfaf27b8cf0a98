"""Durable run directories: one event log + result store.

A *run directory* makes a sweep resumable: every completed cell's
pickled result lands in a private
:class:`~repro.exec.cache.ResultCache` inside the run directory, and
then a ``checkpoint_written`` record naming its content-addressed
cache key is appended to the run's event log and fsynced.  The log is
the checkpoint journal.  A killed sweep — SIGKILL, OOM, a yanked
laptop lid — resumes by re-planning the same cells: checkpointed keys
replay from the run store, everything else re-executes.

Layout, under ``<root>/<run-id>/``::

    manifest.json    run id, code salt, first plan fingerprint
    events.jsonl     the engine event stream, appended across resumes;
                     its checkpoint_written records are the journal,
                     and its fold is the run's status (repro.ops attach)
    results/         ResultCache keyed by the same cache hashes

Run ids are content-addressed too: ``run-<plan fingerprint>`` of the
first sweep planned against the directory, so re-running the *same*
sweep with the same code automatically lands in (and resumes) the same
run — no wall-clock naming, no id bookkeeping.  ``--resume <run-id>``
pins an id explicitly and fails loudly if it is missing or was written
by different code (the salt check), instead of silently recomputing.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from repro.exec.cache import ResultCache
from repro.exec.events import (
    CheckpointWritten,
    Event,
    JsonlSink,
    read_event_log,
)

ENV_RUN_DIR = "REPRO_RUN_DIR"

#: hex digits of the plan fingerprint used in derived run ids
_RUN_ID_DIGITS = 12


class RunDirError(RuntimeError):
    """A run directory cannot be (re)used: missing, damaged, or written
    by different code."""


def resolve_run_root(
    root: Union[str, Path, None] = None,
) -> Optional[Path]:
    """Explicit argument > ``REPRO_RUN_DIR`` > no checkpointing."""
    if root is not None:
        return Path(root)
    # Where checkpoints land is operational plumbing: it decides whether
    # results are checkpointed, never what they are (pinned by
    # tests/test_exec_crash_resume.py's resumed ≡ uninterrupted fold).
    env = os.environ.get(ENV_RUN_DIR, "").strip()  # simlint: disable=SIM008
    return Path(env) if env else None


def derive_run_id(plan_fingerprint: str) -> str:
    return f"run-{plan_fingerprint[:_RUN_ID_DIGITS]}"


@dataclass
class RunManifest:
    """Identity of a run directory: which code, which first plan."""

    run_id: str
    salt: str
    plan: str

    def to_json(self) -> dict[str, str]:
        return {"run_id": self.run_id, "salt": self.salt, "plan": self.plan}

    @classmethod
    def read(cls, path: Path) -> "RunManifest":
        """Parse a ``manifest.json``; a damaged one raises a
        ``ValueError`` that names the file."""
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
            return cls(
                run_id=str(doc["run_id"]),
                salt=str(doc["salt"]),
                plan=str(doc["plan"]),
            )
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(
                f"{path}: malformed run manifest: {exc!s}"
            ) from None


class RunDir:
    """One resumable run: event log + result store."""

    def __init__(self, path: Path, manifest: RunManifest) -> None:
        self.path = path
        self.manifest = manifest
        self.results = ResultCache(root=path / "results")
        self.events_path = path / "events.jsonl"
        #: appended across resumes, so the run's whole history reads
        #: in one file; opening it cuts a torn last line left by a
        #: killed run, before anything reads the checkpoints
        self.log = JsonlSink(self.events_path, append=True)
        #: cache keys the log had checkpointed when the run was opened
        self.resumed_keys: set[str] = set()

    @property
    def run_id(self) -> str:
        return self.manifest.run_id

    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        root: Union[str, Path],
        *,
        salt: str,
        plan_fingerprint: str,
        run_id: Optional[str] = None,
    ) -> "RunDir":
        """Create or attach the run directory for one planned sweep.

        Without ``run_id`` the id derives from the plan fingerprint
        (same sweep + same code → same directory → automatic resume).
        With ``run_id`` (``--resume``) the directory must already
        exist.  Either way, a manifest written by a different code
        salt is an error: its checkpoint keys could never match the
        re-planned cells, and silently recomputing everything is the
        failure mode resume exists to prevent.
        """
        root = Path(root)
        explicit = run_id is not None
        if run_id is None:
            run_id = derive_run_id(plan_fingerprint)
        path = root / run_id
        manifest_path = path / "manifest.json"
        if manifest_path.exists():
            try:
                manifest = RunManifest.read(manifest_path)
            except ValueError as exc:
                raise RunDirError(str(exc)) from None
            if manifest.salt != salt:
                raise RunDirError(
                    f"run {run_id!r} was written by a different code "
                    "version; its checkpoints cannot be trusted — start "
                    "a fresh run (or clear the run directory)"
                )
        elif explicit:
            raise RunDirError(
                f"cannot resume run {run_id!r}: no manifest under {path}"
            )
        else:
            path.mkdir(parents=True, exist_ok=True)
            manifest = RunManifest(
                run_id=run_id, salt=salt, plan=plan_fingerprint
            )
            tmp = manifest_path.with_suffix(".json.tmp")
            tmp.write_text(
                json.dumps(manifest.to_json(), indent=2, sort_keys=True),
                encoding="utf-8",
            )
            os.replace(tmp, manifest_path)
        run = cls(path, manifest)
        try:
            run.resumed_keys = run.completed_keys()
        except ValueError as exc:  # a malformed line before the last
            run.close()
            raise RunDirError(str(exc)) from None
        # a previous crash may have stranded atomic-write temp files in
        # the result store; they are unreachable garbage, drop them
        run.results.sweep_temps()
        return run

    # ------------------------------------------------------------------
    def completed_keys(self) -> set[str]:
        """Cache keys of every cell the log says was checkpointed."""
        return {
            str(record["key"])
            for record in read_event_log(self.events_path)
            if record.get("kind") == CheckpointWritten.kind
        }

    def append(self, event: Event) -> None:
        """Log one event; a checkpoint is durable before returning."""
        self.log(event)
        if isinstance(event, CheckpointWritten):
            self.log.sync()

    def close(self) -> None:
        self.log.close()


__all__ = [
    "ENV_RUN_DIR",
    "RunDir",
    "RunDirError",
    "RunManifest",
    "derive_run_id",
    "resolve_run_root",
]

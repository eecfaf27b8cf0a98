"""The flight recorder: last-N events, dumped when a run dies.

A crashed or interrupted sweep's most valuable evidence is the last
few hundred events before it stopped — exactly what scrolled off the
terminal.  :class:`FlightRecorder` is an event sink keeping a bounded
in-memory :class:`~repro.ops.stream.EventRing`; on trouble it writes
the ring to ``<run-dir>/flightrec-<stamp>-<n>.jsonl`` (one event JSON
per line, same shape as ``events.jsonl``) plus a ``.meta.json``
sidecar carrying the dump reason, the /status document and a metrics
snapshot at dump time.

Dump triggers:

* an ``Interrupted`` event in the stream (Ctrl-C, worker crash) —
  automatic, from inside the sink;
* ``SIGTERM`` — dump, then re-deliver to the previous handler so the
  process still dies;
* ``SIGUSR1`` — dump and keep running (an operator's "what is it
  doing right now?" poke);
* an unhandled exception, via the CLI wrappers calling :meth:`dump`.

Dumps validate with ``python -m repro.exec.events --ring``: the ring
may have evicted a sweep's head, which ring mode waives for the first
segment only (``tests/test_exec_crash_resume.py`` asserts a SIGKILLed
parent's surviving dump passes).

Wall-clock note: dump filenames and the ``dumped_unix`` stamp are
host-side provenance about when the artifact was written; each read
carries a simlint waiver naming its pinning test.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.exec.events import Event, Interrupted
from repro.ops.stream import DEFAULT_RING_CAPACITY, EventRing

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.ops.status import RunStatus
    from repro.telemetry.registry import TelemetryRegistry

#: bumped when the .meta.json sidecar shape changes incompatibly
FLIGHTREC_SCHEMA = 1


class FlightRecorder:
    """Bounded event ring + dump-on-trouble, as one engine sink."""

    def __init__(
        self,
        dir_provider: Callable[[], Path],
        capacity: int = DEFAULT_RING_CAPACITY,
        status: Optional["RunStatus"] = None,
        registry: Optional["TelemetryRegistry"] = None,
    ) -> None:
        #: where dumps land, resolved *at dump time* — the run
        #: directory usually attaches after the recorder is installed
        self.dir_provider = dir_provider
        self.ring = EventRing(capacity)
        self.status = status
        self.registry = registry
        self.dumps: list[Path] = []
        self._lock = threading.Lock()
        self._dump_seq = 0
        self._prev_sigterm: Any = None

    # ------------------------------------------------------------------
    def __call__(self, event: Event) -> None:
        self.ring.push(event.to_json())
        if isinstance(event, Interrupted):
            self.dump(f"interrupted:{event.reason}")

    # ------------------------------------------------------------------
    def dump(self, reason: str) -> Optional[Path]:
        """Write the ring (and metadata) to the run directory.

        Returns the dump path, or ``None`` when the ring is empty or
        the target directory cannot be written (a recorder must never
        turn a dying run's exit path into a new crash).
        """
        with self._lock:
            events = self.ring.snapshot()
            if not events:
                return None
            try:
                directory = self.dir_provider()
            # a dump path provider failing while the process is already
            # dying must not mask the original failure; no simulation
            # invariant can be in flight in this frame
            except Exception:  # simlint: disable=SIM006
                return None  # pragma: no cover - provider misbehaved
            # The filename stamp records when the host dumped —
            # operational provenance, never an engine input (pinned by
            # tests/test_ops_plane.py::test_serve_preserves_fold_bytes).
            stamp = int(time.time() * 1000)  # simlint: disable=SIM008
            name = f"flightrec-{stamp}-{self._dump_seq:02d}"
            self._dump_seq += 1
            path = Path(directory) / f"{name}.jsonl"
            meta: dict[str, Any] = {
                "schema": FLIGHTREC_SCHEMA,
                "reason": reason,
                "events": len(events),
                "ring_dropped": self.ring.dropped,
                "dumped_unix": stamp / 1000.0,
            }
            if self.status is not None:
                meta["status"] = self.status.document()
            if self.registry is not None:
                meta["metrics"] = self.registry.summary()
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                with open(path, "w", encoding="utf-8") as handle:
                    for doc in events:
                        handle.write(
                            json.dumps(doc, separators=(", ", ": "))
                        )
                        handle.write("\n")
                    handle.flush()
                    os.fsync(handle.fileno())
                meta_path = path.with_suffix(".meta.json")
                meta_path.write_text(
                    json.dumps(meta, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8",
                )
            except OSError:  # pragma: no cover - disk gone mid-dump
                return None
            self.dumps.append(path)
            return path

    # ------------------------------------------------------------------
    def install_signals(self) -> bool:
        """Dump on SIGTERM (then die) and SIGUSR1 (then continue).

        Returns ``False`` when handlers cannot be installed (not the
        main thread) — the recorder still dumps on ``Interrupted``
        events and explicit :meth:`dump` calls.
        """

        def on_sigterm(signum: int, frame: Any) -> None:
            self.dump("sigterm")
            # restore whoever was handling SIGTERM and re-deliver, so
            # the process still terminates with default semantics
            previous = self._prev_sigterm
            signal.signal(
                signal.SIGTERM,
                previous if callable(previous) or previous in (
                    signal.SIG_DFL, signal.SIG_IGN
                ) else signal.SIG_DFL,
            )
            # re-delivering to our own pid is signal plumbing on the
            # exit path, not an engine input (pinned by
            # tests/test_exec_crash_resume.py's byte-identity suite)
            os.kill(os.getpid(), signal.SIGTERM)  # simlint: disable=SIM008

        def on_sigusr1(signum: int, frame: Any) -> None:
            self.dump("sigusr1")

        try:
            self._prev_sigterm = signal.signal(signal.SIGTERM, on_sigterm)
            signal.signal(signal.SIGUSR1, on_sigusr1)
        except ValueError:  # pragma: no cover - non-main thread
            return False
        return True


__all__ = [
    "FLIGHTREC_SCHEMA",
    "FlightRecorder",
]

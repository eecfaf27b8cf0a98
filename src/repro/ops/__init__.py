"""``repro.ops`` — the read-only observation plane over the engine.

Everything a running (or dead) sweep exposes to an operator lives
here, strictly *above* :mod:`repro.exec` in the layering — the engine
lazy-imports only :mod:`repro.ops.status`, and nothing in this package
steers execution:

* :mod:`repro.ops.server` — the opt-in stdlib HTTP plane
  (``/metrics``, ``/status``, ``/events``) attached with
  ``--serve [host:]port`` or ``REPRO_SERVE``.  This package does not
  import it: callers take ``attach_ops`` and the serve-spec helpers
  from :mod:`repro.ops.server` itself, so a process that builds an
  engine but never serves loads no ``http.server``, ``ssl`` or
  ``email`` modules;
* :mod:`repro.ops.stream` — the fan-out sink, bounded event ring and
  drop-on-full subscriptions behind ``/events``;
* :mod:`repro.ops.status` — the live status fold, ``/status`` and
  ``<run-dir>/status.json`` (written by the engine, plane or not);
* :mod:`repro.ops.metrics` — engine metrics folded into the existing
  telemetry registry and Prometheus exposition;
* :mod:`repro.ops.profiles` — per-cell resource profiles and the
  slowest-cells tables;
* :mod:`repro.ops.cli` — ``python -m repro.ops attach RUN_DIR``.

A dead run's record is its run directory: the engine's own
``events.jsonl`` (ending in ``interrupted`` when it saw the failure)
and ``status.json``.  The HTTP plane attaches only to serve, and is an
observer: with or without ``--serve``, a sweep folds to byte-identical
results
(``tests/test_ops_plane.py::test_serve_preserves_fold_bytes``).
"""

from repro.ops.metrics import EngineMetricsSink
from repro.ops.profiles import read_journal, render_slowest, slowest_cells
from repro.ops.status import (
    STATUS_SCHEMA,
    RunStatus,
    StatusWriter,
    read_status,
)
from repro.ops.stream import EventRing, FanOutSink, Subscription

__all__ = [
    "EngineMetricsSink",
    "EventRing",
    "FanOutSink",
    "RunStatus",
    "STATUS_SCHEMA",
    "StatusWriter",
    "Subscription",
    "read_journal",
    "read_status",
    "render_slowest",
    "slowest_cells",
]

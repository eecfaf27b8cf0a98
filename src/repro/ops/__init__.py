"""``repro.ops`` — the read-only observation plane over the engine.

Everything a running (or dead) sweep exposes to an operator lives
here, strictly *above* :mod:`repro.exec` in the layering — the engine
lazy-imports only :mod:`repro.ops.status`, and nothing in this package
steers execution:

* :mod:`repro.ops.server` — the opt-in stdlib HTTP plane
  (``/metrics``, ``/status``, ``/events``) attached with
  ``--serve [host:]port`` or ``REPRO_SERVE``.  This package does not
  import it: the serve-spec helpers below resolve the spec, and a
  caller imports ``attach_ops`` from :mod:`repro.ops.server` only once
  a spec resolved, so a process that never serves loads no
  ``http.server``, ``ssl`` or ``email`` modules;
* :mod:`repro.ops.stream` — the fan-out sink, bounded event ring and
  drop-on-full subscriptions behind ``/events``;
* :mod:`repro.ops.status` — the status fold behind ``/status``, and
  its replay over a run directory's log;
* :mod:`repro.ops.metrics` — engine metrics folded into the existing
  telemetry registry and Prometheus exposition;
* :mod:`repro.ops.profiles` — per-cell resource profiles and the
  slowest-cells tables;
* :mod:`repro.ops.cli` — ``python -m repro.ops attach RUN_DIR``.

A dead run's record is its run directory: the engine's own
``events.jsonl`` (ending in ``interrupted`` when it saw the failure),
whose fold is the run's status.  The HTTP plane attaches only to
serve, and is an observer: with or without ``--serve``, a sweep folds
to byte-identical results
(``tests/test_ops_plane.py::test_serve_preserves_fold_bytes``).
"""

from __future__ import annotations

import os
from typing import Optional

from repro.ops.metrics import EngineMetricsSink
from repro.ops.profiles import render_slowest, slowest_cells
from repro.ops.status import STATUS_SCHEMA, RunStatus
from repro.ops.stream import EventRing, FanOutSink, Subscription

ENV_SERVE = "REPRO_SERVE"

#: host used when ``--serve PORT`` omits one — never a public bind by
#: accident
DEFAULT_HOST = "127.0.0.1"


def parse_serve_spec(spec: str) -> tuple[str, int]:
    """``"[host:]port"`` → ``(host, port)``; port 0 asks the OS."""
    text = spec.strip()
    host, sep, port_text = text.rpartition(":")
    if not sep:
        host, port_text = DEFAULT_HOST, text
    if not host:
        host = DEFAULT_HOST
    try:
        port = int(port_text)
    except ValueError as exc:
        raise ValueError(
            f"serve spec must be [host:]port, got {spec!r}"
        ) from exc
    if not 0 <= port <= 65535:
        raise ValueError(f"serve port out of range: {port}")
    return host, port


def resolve_serve_spec(
    spec: Optional[str] = None,
) -> Optional[tuple[str, int]]:
    """Explicit ``--serve`` argument > ``REPRO_SERVE`` > no server."""
    if spec is not None:
        return parse_serve_spec(spec)
    # Whether an observation endpoint exists is operational plumbing;
    # it cannot change a result byte (pinned by
    # tests/test_ops_plane.py::test_serve_preserves_fold_bytes).
    env = os.environ.get(ENV_SERVE, "").strip()  # simlint: disable=SIM008
    return parse_serve_spec(env) if env else None


__all__ = [
    "DEFAULT_HOST",
    "ENV_SERVE",
    "EngineMetricsSink",
    "EventRing",
    "FanOutSink",
    "RunStatus",
    "STATUS_SCHEMA",
    "Subscription",
    "parse_serve_spec",
    "render_slowest",
    "resolve_serve_spec",
    "slowest_cells",
]

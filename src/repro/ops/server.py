"""The in-process HTTP ops plane: /metrics, /status, /events.

Opt-in, stdlib-only observation of a running
:class:`~repro.exec.engine.Engine`.  ``--serve [host:]port`` (or
``REPRO_SERVE``) starts a :class:`ThreadingHTTPServer` on a daemon
thread next to the run:

* ``GET /metrics`` — Prometheus text 0.0.4 from the
  :class:`~repro.ops.metrics.EngineMetricsSink` fold;
* ``GET /status`` — the :class:`~repro.ops.status.RunStatus` JSON
  document (``python -m repro.ops attach`` folds the same document,
  live-only fields aside, from a run directory's log);
* ``GET /events`` — a live chunked JSONL tail: ring replay first,
  then events as they happen (``?replay=N`` bounds the replay,
  ``?limit=N`` closes the stream after N lines);
* ``GET /healthz`` and ``GET /`` — liveness and a plain-text index.

Read-only by construction: handlers serve snapshots of folds the
:class:`OpsPlane` already maintains; nothing routes back into the
engine, and a slow or dead client costs the engine nothing (the
subscription drops, the handler thread dies).  The serial ≡ parallel ≡
cached fold equivalence holds verbatim with the server on — pinned by
``tests/test_ops_plane.py::test_serve_preserves_fold_bytes``.

The serve spec (``--serve`` / ``REPRO_SERVE``) is parsed by
:func:`repro.ops.resolve_serve_spec`, which does not import this
module: a caller imports :func:`attach_ops` only once a spec resolved.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Any, Optional
from urllib.parse import parse_qs, urlsplit

from repro.ops.metrics import EngineMetricsSink
from repro.ops.stream import EventRing, FanOutSink

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.exec.engine import Engine

class OpsHTTPServer(ThreadingHTTPServer):
    """Threading server with a back-pointer to its ops plane."""

    daemon_threads = True
    allow_reuse_address = True

    plane: "OpsPlane"


class _OpsHandler(BaseHTTPRequestHandler):
    """Request routing for the ops endpoints (GET-only)."""

    server: OpsHTTPServer
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------------
    def log_message(self, format: str, *args: Any) -> None:
        """Silence per-request stderr chatter — the run owns stderr."""

    def _send_text(
        self, body: str, content_type: str, code: int = 200
    ) -> None:
        payload = body.encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        parsed = urlsplit(self.path)
        route = parsed.path.rstrip("/") or "/"
        try:
            if route == "/metrics":
                self._send_text(
                    self.server.plane.metrics.render(),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
            elif route == "/status":
                doc = self.server.plane.status.document()
                self._send_text(
                    json.dumps(doc, indent=2, sort_keys=True) + "\n",
                    "application/json",
                )
            elif route == "/events":
                self._stream_events(parse_qs(parsed.query))
            elif route == "/healthz":
                self._send_text("ok\n", "text/plain; charset=utf-8")
            elif route == "/":
                self._send_text(
                    "repro ops plane\n"
                    "  /metrics  Prometheus exposition\n"
                    "  /status   run summary (JSON)\n"
                    "  /events   live JSONL tail "
                    "(?replay=N&limit=N)\n"
                    "  /healthz  liveness\n",
                    "text/plain; charset=utf-8",
                )
            else:
                self._send_text(
                    "not found\n", "text/plain; charset=utf-8", code=404
                )
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-response; nothing to salvage

    # ------------------------------------------------------------------
    def _stream_events(self, query: dict[str, list[str]]) -> None:
        """Chunked JSONL: ring replay, then live events until limit."""

        def int_param(name: str, default: Optional[int]) -> Optional[int]:
            values = query.get(name)
            if not values:
                return default
            try:
                return max(0, int(values[0]))
            except ValueError:
                return default

        limit = int_param("limit", None)
        replay = int_param("replay", None)
        plane = self.server.plane
        # Subscribe *before* snapshotting the ring: an event arriving in
        # between lands in both, and the seq guard below deduplicates —
        # the opposite order would silently lose it instead.
        subscription = plane.fanout.subscribe()
        try:
            self.send_response(200)
            self.send_header(
                "Content-Type", "application/jsonl; charset=utf-8"
            )
            self.send_header("Transfer-Encoding", "chunked")
            self.end_headers()
            sent = 0
            last_seq = -1
            backlog = plane.ring.snapshot()
            if replay is not None:
                backlog = backlog[len(backlog) - min(replay, len(backlog)):]
            for doc in backlog:
                if limit is not None and sent >= limit:
                    break
                self._write_chunk(doc)
                sent += 1
                seq = doc.get("seq")
                if isinstance(seq, int):
                    last_seq = max(last_seq, seq)
            while limit is None or sent < limit:
                if plane.closing.is_set() or subscription.closed:
                    break
                doc = subscription.get(timeout=0.5)
                if doc is None:
                    continue
                seq = doc.get("seq")
                # a plane watches one engine, whose seq never resets:
                # anything at or below the replay's last seq arrived in
                # the subscribe window and was already sent
                if isinstance(seq, int) and seq <= last_seq:
                    continue
                self._write_chunk(doc)
                sent += 1
                if isinstance(seq, int):
                    last_seq = seq
            self.wfile.write(b"0\r\n\r\n")
        except (BrokenPipeError, ConnectionResetError):
            pass  # slow/vanished reader: drop it, never block the run
        finally:
            plane.fanout.unsubscribe(subscription)

    def _write_chunk(self, doc: dict[str, Any]) -> None:
        line = (
            json.dumps(doc, separators=(", ", ": ")) + "\n"
        ).encode("utf-8")
        self.wfile.write(f"{len(line):x}\r\n".encode("ascii"))
        self.wfile.write(line)
        self.wfile.write(b"\r\n")
        self.wfile.flush()


class OpsPlane:
    """The HTTP plane observing one engine: folds, ring and listener.

    Construction wires one :class:`~repro.ops.stream.FanOutSink` into
    the engine, feeding the metrics fold and the ring ``/events``
    replays, and starts the listener on a daemon thread (``port=0``
    picks a free port).  The engine's run directory keeps its own
    record (``events.jsonl``) with or without a plane.
    """

    def __init__(self, engine: "Engine", host: str, port: int) -> None:
        # bind first: a taken port must leave the engine unobserved
        self._server = OpsHTTPServer((host, port), _OpsHandler)
        self._server.plane = self
        self.host, self.port = self._server.server_address[:2]
        self.status = engine.status
        self.metrics = EngineMetricsSink(health=engine.worker_health)
        self.ring = EventRing()
        self.fanout = FanOutSink(self.metrics, ring=self.ring)
        engine.add_sink(self.fanout)
        self.closing = threading.Event()
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-ops-http",
            daemon=True,
        )
        self._thread.start()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def close(self) -> None:
        if self.closing.is_set():
            return
        self.closing.set()
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5.0)
        self.fanout.close()


def attach_ops(engine: "Engine", spec: tuple[str, int]) -> OpsPlane:
    """Observe ``engine`` and serve its plane at ``spec`` (host, port)."""
    host, port = spec
    return OpsPlane(engine, host, port)


__all__ = [
    "OpsHTTPServer",
    "OpsPlane",
    "attach_ops",
]

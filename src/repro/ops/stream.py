"""Event fan-out: a ring buffer plus bounded live subscriptions.

The ops plane observes a running :class:`~repro.exec.engine.Engine`
through one extra sink — :class:`FanOutSink` — which does three things
per event, all O(1):

* forward to the sink it wraps (the metrics fold);
* push the event's JSON form into an :class:`EventRing` (the bounded
  memory of "what just happened" that ``/events`` replays);
* offer the JSON form to every live :class:`Subscription` (an
  ``/events`` streaming client).

Back-pressure contract (DESIGN.md §16): a subscription is a *bounded*
``queue.Queue``; when a slow reader falls behind, :meth:`Subscription.
offer` drops the event and counts it rather than blocking the engine.
The engine's hot path never waits on a network peer — observation can
lose events, execution cannot lose time.

Nothing here reads a clock or the environment; timing enters only via
the event payloads the engine already produced, so the ops plane stays
out of the determinism argument entirely (pinned by
``tests/test_ops_plane.py::test_serve_preserves_fold_bytes``).
"""

from __future__ import annotations

import queue
import threading
from collections import deque
from typing import Any, Optional

from repro.exec.events import Event, EventSink

#: events the ring remembers — enough to reconstruct the last few
#: sweeps of a typical run while bounding a week-long fleet campaign
#: to a few hundred KB of memory
DEFAULT_RING_CAPACITY = 512

#: per-subscriber queue depth before events are dropped, not queued
DEFAULT_SUBSCRIBER_DEPTH = 256


class EventRing:
    """A bounded, thread-safe ring of event JSON objects."""

    def __init__(self, capacity: int = DEFAULT_RING_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError("ring capacity must be positive")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._items: deque[dict[str, Any]] = deque(maxlen=capacity)
        self.pushed = 0

    def push(self, doc: dict[str, Any]) -> None:
        with self._lock:
            self._items.append(doc)
            self.pushed += 1

    def snapshot(self) -> list[dict[str, Any]]:
        """The ring's current contents, oldest first."""
        with self._lock:
            return list(self._items)

    @property
    def dropped(self) -> int:
        """Events evicted off the head since the ring was created."""
        with self._lock:
            return max(0, self.pushed - len(self._items))

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)


class Subscription:
    """One live ``/events`` reader: a bounded queue, drop-on-full."""

    def __init__(self, depth: int = DEFAULT_SUBSCRIBER_DEPTH) -> None:
        self._queue: queue.Queue[Optional[dict[str, Any]]] = queue.Queue(
            maxsize=depth
        )
        self.dropped = 0
        self.closed = False

    def offer(self, doc: dict[str, Any]) -> None:
        """Enqueue without blocking; a full queue drops the event."""
        if self.closed:
            return
        try:
            self._queue.put_nowait(doc)
        except queue.Full:
            self.dropped += 1

    def get(self, timeout: float = 0.5) -> Optional[dict[str, Any]]:
        """Next event, or ``None`` after ``timeout`` (or on close)."""
        try:
            return self._queue.get(timeout=timeout)
        except queue.Empty:
            return None

    def close(self) -> None:
        self.closed = True
        try:
            # wake any blocked reader with the close sentinel
            self._queue.put_nowait(None)
        except queue.Full:
            pass


class FanOutSink:
    """One engine sink feeding a wrapped sink, the ring and subscribers.

    Serialisation (``event.to_json()``) happens once per event; the
    wrapped sink still receives the typed event, so an existing sink
    (the metrics fold) plugs in unchanged.
    """

    def __init__(
        self,
        sink: Optional[EventSink] = None,
        ring: Optional[EventRing] = None,
    ) -> None:
        self.sink = sink
        self.ring = ring
        self._lock = threading.Lock()
        self._subscribers: list[Subscription] = []

    def __call__(self, event: Event) -> None:
        if self.sink is not None:
            self.sink(event)
        doc = event.to_json()
        if self.ring is not None:
            self.ring.push(doc)
        with self._lock:
            subscribers = list(self._subscribers)
        for subscription in subscribers:
            subscription.offer(doc)

    # ------------------------------------------------------------------
    def subscribe(
        self, depth: int = DEFAULT_SUBSCRIBER_DEPTH
    ) -> Subscription:
        subscription = Subscription(depth=depth)
        with self._lock:
            self._subscribers.append(subscription)
        return subscription

    def unsubscribe(self, subscription: Subscription) -> None:
        subscription.close()
        with self._lock:
            if subscription in self._subscribers:
                self._subscribers.remove(subscription)

    @property
    def subscriber_count(self) -> int:
        with self._lock:
            return len(self._subscribers)

    def close(self) -> None:
        with self._lock:
            subscribers = list(self._subscribers)
            self._subscribers.clear()
        for subscription in subscribers:
            subscription.close()


__all__ = [
    "DEFAULT_RING_CAPACITY",
    "DEFAULT_SUBSCRIBER_DEPTH",
    "EventRing",
    "FanOutSink",
    "Subscription",
]

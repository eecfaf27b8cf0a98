"""The counter/gauge/histogram registry.

Instruments are keyed by ``(name, labels)``: the same metric name may
exist once per vCPU, pCPU or pool (``dispatches{vcpu="web.0"}``), and
a label-free instance aggregates machine-wide.  Every instrument keeps
a scalar current value plus a fixed-size :class:`RingBuffer` of
``(virtual time, value)`` samples, filled by :meth:`TelemetryRegistry.
sample` — a periodic probe the machine arms once per accounting window
when telemetry is on.

Overhead contract (DESIGN.md §11): a *disabled* registry must cost one
attribute check on the hot path.  Instrument lookups therefore never
happen behind a disabled flag — callers guard with
``if telemetry.enabled:`` — and creating an instrument is the slow
path anyway: hot code holds
the instrument object and calls :meth:`Counter.inc` directly.

Everything here is a pure function of the virtual clock and program
order: instruments are stored in insertion-ordered dicts and summaries
sort by key, so serial, parallel and cache-replayed runs produce
byte-identical telemetry.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Optional, Union

#: A label set in canonical form: sorted ``(key, value)`` pairs.
LabelSet = tuple[tuple[str, str], ...]

#: Default ring-buffer depth: at one sample per 30 ms accounting window
#: this holds ~15 s of virtual time, longer than any single experiment
#: measurement window.
DEFAULT_RING = 512

#: Default histogram bucket upper bounds (ns-scale quantities: wake
#: latencies, span durations, quantum slices from 10 µs to 100 ms).
DEFAULT_BUCKETS = (
    10_000.0,
    100_000.0,
    1_000_000.0,
    10_000_000.0,
    30_000_000.0,
    100_000_000.0,
)


def canonical_labels(labels: Mapping[str, object]) -> LabelSet:
    """Sorted, stringified label pairs — the dict key and export order."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class RingBuffer:
    """A fixed-capacity ``(time, value)`` series that forgets the past."""

    __slots__ = ("capacity", "_items", "_next")

    def __init__(self, capacity: int = DEFAULT_RING) -> None:
        if capacity <= 0:
            raise ValueError("ring capacity must be positive")
        self.capacity = capacity
        self._items: list[tuple[int, float]] = []
        self._next = 0

    def push(self, time_ns: int, value: float) -> None:
        if len(self._items) < self.capacity:
            self._items.append((time_ns, value))
        else:
            self._items[self._next] = (time_ns, value)
            self._next = (self._next + 1) % self.capacity

    def __len__(self) -> int:
        return len(self._items)

    def items(self) -> list[tuple[int, float]]:
        """Samples oldest-first (unwraps the ring)."""
        if len(self._items) < self.capacity:
            return list(self._items)
        return self._items[self._next:] + self._items[:self._next]


class Counter:
    """A monotonically increasing count (events, migrations, flips)."""

    __slots__ = ("name", "labels", "value", "series", "help")

    kind = "counter"

    def __init__(self, name: str, labels: LabelSet, ring: int) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0
        self.series = RingBuffer(ring)
        #: optional ``# HELP`` text for Prometheus exposition
        self.help = ""

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    """A point-in-time level (queue depth, pool load, live VMs)."""

    __slots__ = ("name", "labels", "value", "series", "help")

    kind = "gauge"

    def __init__(self, name: str, labels: LabelSet, ring: int) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0
        self.series = RingBuffer(ring)
        #: optional ``# HELP`` text for Prometheus exposition
        self.help = ""

    def set(self, value: float) -> None:
        self.value = value

    def add(self, amount: float) -> None:
        self.value += amount


class Histogram:
    """A bucketed distribution (latencies, slice lengths).

    ``value`` mirrors the observation count so histograms sample into
    their ring buffer uniformly with counters and gauges.
    """

    __slots__ = (
        "name", "labels", "bounds", "bucket_counts",
        "count", "sum", "min", "max", "value", "series", "help",
    )

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: LabelSet,
        ring: int,
        bounds: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        self.name = name
        self.labels = labels
        self.bounds = tuple(sorted(bounds))
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = 0.0
        self.max = 0.0
        self.value = 0.0
        self.series = RingBuffer(ring)
        #: optional ``# HELP`` text for Prometheus exposition
        self.help = ""

    def observe(self, value: float) -> None:
        if self.count == 0 or value < self.min:
            self.min = value
        if self.count == 0 or value > self.max:
            self.max = value
        self.count += 1
        self.value = float(self.count)
        self.sum += value
        index = 0
        for bound in self.bounds:
            if value <= bound:
                break
            index += 1
        self.bucket_counts[index] += 1

    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


Instrument = Union[Counter, Gauge, Histogram]


class TelemetryRegistry:
    """Get-or-create instrument store with deterministic iteration."""

    __slots__ = ("ring", "_instruments", "samples_taken")

    def __init__(self, ring: int = DEFAULT_RING) -> None:
        self.ring = ring
        self._instruments: dict[tuple[str, str, LabelSet], Instrument] = {}
        self.samples_taken = 0

    # ------------------------------------------------------------------
    # instrument access
    # ------------------------------------------------------------------
    def counter(
        self, name: str, help: str = "", **labels: object
    ) -> Counter:
        instrument = self._get("counter", name, labels)
        if instrument is None:
            instrument = Counter(name, canonical_labels(labels), self.ring)
            self._put(instrument)
        assert isinstance(instrument, Counter)
        if help and not instrument.help:
            instrument.help = help
        return instrument

    def gauge(self, name: str, help: str = "", **labels: object) -> Gauge:
        instrument = self._get("gauge", name, labels)
        if instrument is None:
            instrument = Gauge(name, canonical_labels(labels), self.ring)
            self._put(instrument)
        assert isinstance(instrument, Gauge)
        if help and not instrument.help:
            instrument.help = help
        return instrument

    def histogram(
        self,
        name: str,
        bounds: tuple[float, ...] = DEFAULT_BUCKETS,
        help: str = "",
        **labels: object,
    ) -> Histogram:
        instrument = self._get("histogram", name, labels)
        if instrument is None:
            instrument = Histogram(
                name, canonical_labels(labels), self.ring, bounds
            )
            self._put(instrument)
        assert isinstance(instrument, Histogram)
        if help and not instrument.help:
            instrument.help = help
        return instrument

    def _get(
        self, kind: str, name: str, labels: Mapping[str, object]
    ) -> Optional[Instrument]:
        return self._instruments.get((kind, name, canonical_labels(labels)))

    def _put(self, instrument: Instrument) -> None:
        key = (instrument.kind, instrument.name, instrument.labels)
        self._instruments[key] = instrument

    # ------------------------------------------------------------------
    # time series
    # ------------------------------------------------------------------
    def sample(self, time_ns: int) -> None:
        """Push every instrument's current value into its ring buffer."""
        self.samples_taken += 1
        for instrument in self._instruments.values():
            instrument.series.push(time_ns, instrument.value)

    def series_of(
        self, name: str, **labels: object
    ) -> list[tuple[int, float]]:
        """The sampled ``(time, value)`` series of one instrument."""
        key = canonical_labels(labels)
        for (_, iname, ilabels), instrument in self._instruments.items():
            if iname == name and ilabels == key:
                return instrument.series.items()
        return []

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._instruments)

    def instruments(self) -> Iterator[Instrument]:
        """Instruments sorted by (kind, name, labels) — export order."""
        for key in sorted(self._instruments):
            yield self._instruments[key]

    def summary(self) -> dict[str, float]:
        """A flat, picklable ``qualified-name -> value`` snapshot.

        This is what sweep results carry across process boundaries and
        through the result cache; keys are stable and sorted so the
        serial ≡ parallel ≡ cached equivalence extends to telemetry.
        """
        out: dict[str, float] = {}
        for instrument in self.instruments():
            out[qualified_name(instrument.name, instrument.labels)] = (
                instrument.value
            )
        return out


def qualified_name(name: str, labels: LabelSet) -> str:
    """``dispatches{pool=s0.C1,vcpu=web.0}`` — the flat summary key."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


__all__ = [
    "DEFAULT_BUCKETS",
    "DEFAULT_RING",
    "Counter",
    "Gauge",
    "Histogram",
    "Instrument",
    "LabelSet",
    "RingBuffer",
    "TelemetryRegistry",
    "canonical_labels",
    "qualified_name",
]

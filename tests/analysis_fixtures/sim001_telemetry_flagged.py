# simlint: module=repro.telemetry.registry
# simlint-expect: SIM008:11 SIM008:15
"""SIM008 positive fixture: telemetry *recording* is simulation code.

Only repro.telemetry.exposition is on the wall-clock allowlist; a wall-clock read while
emitting registry samples or spans still fails the lint."""
import time


def sample_with_wall_clock(registry) -> None:
    registry.sample(time.time_ns())


def span_with_wall_clock(tracer) -> None:
    tracer.begin(time.time_ns(), "slice")

# simlint: module=repro.telemetry.exposition
# simlint-expect: SIM008:17
"""The wall-clock allowlist does not cover randomness.

``repro.telemetry.exposition`` may stamp export artifacts with the
host clock, but an unseeded draw there is still flagged: randomness
has no allowlist."""
import random
import time


def export_stamp() -> float:
    return time.time()


def export_sample_id() -> float:
    return random.random()

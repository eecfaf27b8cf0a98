# simlint: module=repro.telemetry.exposition
# simlint-expect:
"""SIM008 negative fixture: exposition may stamp export artifacts.

The wall-clock moment an artifact was *written* is host provenance,
recorded after the simulation finished — never a simulation input."""
import time


def export_stamp() -> float:
    return time.time()

# simlint: module=repro.perf.fake_helpers
# simlint-expect:
"""SIM008 helper fixture: an allowlisted module that reads the clock.

``repro.perf`` profiles on purpose, so it is on SIM008's wall-clock
allowlist: its read is not flagged and it is not a sink — no finding
lands in this file.  But
the allowlist is lifted to the sink only: ``now_ms`` still seeds taint,
and the laundering it enables is caught in ``sim008_flagged.py`` at the
sim-domain caller.
"""
import time


def now_ms() -> float:
    return time.perf_counter() * 1e3


def pure_scale(value: float) -> float:
    return value * 2.0
